"""Tests of the benchmark's input generator and correctness gate.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import itertools
import os
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gate  # noqa: E402
import workloads as W  # noqa: E402
from weaktime import scenarios as S  # noqa: E402
from weaktime.hilbert import HBAR, Region  # noqa: E402

SEEDS = range(5)


def program_density(sc):
    """|psi(t_stop)|^2 dx evolved by the program's own eigensystem."""
    vals, vecs = sc.hamiltonian().eigensystem()
    psi0 = sc.initial_state().amplitudes
    amp = vecs @ (np.exp(-1j * vals * sc.duration() / HBAR) * (vecs.conj().T @ psi0))
    return np.abs(amp) ** 2 * sc.grid.dx


def assert_usable(sc):
    """Valid without warnings, barrier cleared, position cell weighted."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert S.validate_scenario(sc) == []
    dens = W.final_density(sc)
    np.testing.assert_allclose(dens, program_density(sc), atol=1e-10)
    if sc.potential.kind != "free":
        inside = Region(*sc.potential.interval).indicator(sc.grid) > 0
        assert dens[inside].sum() <= S.BARRIER_CLEARANCE_BUDGET
    if sc.postselection == "position_cell":
        assert dens[sc.cell_index] >= W.CELL_WEIGHT_SHARE * dens.max()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["meter", "sweep"])
def test_generated_scenarios_are_usable(name, seed):
    items = W.build(name, seed)
    for sc, _ in items:
        if sc.initial_kind == "packet":
            assert_usable(sc)
    names = [sc.name for sc, _ in items]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("n_points", W.METER_SIZES)
def test_meter_barrier_corners_are_usable(n_points):
    class Corner:
        def __init__(self, picks):
            self.picks = iter(picks)

        def uniform(self, lo, hi):
            return hi if next(self.picks) else lo

    for picks in itertools.product((0, 1), repeat=4):
        assert_usable(W.meter_barrier(n_points, Corner(picks)))


@pytest.mark.parametrize("window", W.SWEEP_WINDOWS)
@pytest.mark.parametrize("k0", W.SWEEP_K0)
def test_sweep_packet_corners_are_usable(window, k0):
    base = S.catalog()["barrier_dwell"]
    packet = S.PacketSpec(base.packet.x0, base.packet.sigma, k0)
    assert_usable(replace(base, packet=packet, window=(0.0, window)))


def test_sweep_mixes_postselections_and_windows():
    scs = [sc for sc, _ in W.build("sweep", 0)]
    assert len(scs) == W.SWEEP_COUNT
    assert [sc.postselection == "position_cell" for sc in scs] == [
        i % 3 == 2 for i in range(W.SWEEP_COUNT)
    ]
    assert {sc.duration() for sc in scs} == set(W.SWEEP_WINDOWS)
    assert len({sc.hamiltonian().potential_real.tobytes() for sc in scs}) == 1


def test_same_seed_same_inputs():
    for name in W.WORKLOADS:
        assert W.build(name, 7) == W.build(name, 7)
    assert W.build("sweep", 7) != W.build("sweep", 8)


# -- gate -------------------------------------------------------------------


def bundle(name, *records):
    b = S.ResultBundle(scenario=name)
    for method, post, value, residual, flags in records:
        b.add(method=method, postselection=post, order=1, value=value,
              tolerance=0.01, residual=residual, flags=flags)
    return b


FREE = S.catalog()["free_box"]
BARRIER = S.catalog()["barrier_farside"]


def test_gate_accepts_agreeing_routes_and_documented_flags():
    b = bundle("barrier_farside",
               ("sojourn", "none", 3.0, 0.0, ""),
               ("sojourn", "reflected", -0.5, 0.0, "negative"),
               ("clock_larmor", "reflected", -0.504, 0.0, ""),
               ("sum_rule", "family", 1e-12, 1e-12, ""))
    failures, worst = gate.check_bundle(BARRIER, ("sojourn", "clocks"), b)
    assert failures == []
    assert worst == pytest.approx(0.8)


@pytest.mark.parametrize("record", [
    ("clock_real_potential", "none", 3.1, 0.0, ""),
    ("meter", "none", 2.9, 0.05, ""),
    ("sum_rule", "family", 1e-6, 1e-6, "violated"),
])
def test_gate_flags_route_disagreement_and_violated_sum_rule(record):
    b = bundle("barrier_farside", ("sojourn", "none", 3.0, 0.0, ""), record)
    failures, _ = gate.check_bundle(BARRIER, ("sojourn",), b)
    assert len(failures) == 1


def test_gate_checks_closed_form_dwell_and_missing_pipelines():
    exact = bundle("free_box", ("sojourn", "none", FREE.duration(), 0.0, ""))
    assert gate.check_bundle(FREE, ("sojourn",), exact)[0] == []
    off = bundle("free_box", ("sojourn", "none", FREE.duration() - 1e-7, 0.0, ""))
    assert len(gate.check_bundle(FREE, ("sojourn",), off)[0]) == 1
    assert gate.check_bundle(FREE, ("sojourn", "clocks"), exact)[0] == ["no clocks records"]
