import numpy as np
import pytest

import oracle
from weaktime import clocks
from weaktime.clocks import (
    ClockRuns,
    absorption_survival_dwell,
    clock_imaginary_potential,
    clock_larmor,
    clock_real_potential,
    extrapolate_to_zero,
)
from weaktime.dynamics import Hamiltonian, Propagator, evolve
from weaktime.errors import ParameterError
from weaktime.hilbert import (
    Grid,
    QuantumState,
    Region,
    gaussian_packet,
    position_space,
)
from weaktime.sojourn import dwell_time, sojourn_matrix

GRID = Grid(64, 0.0, 48.0)
SPACE = position_space(GRID)
REGION = Region(20.0, 28.0)
WINDOW = (0.0, 8.0)


@pytest.fixture(scope="module")
def crossing():
    """Free packet crossing the region; reference dwell time from the
    sojourn operator."""
    ham = Hamiltonian(SPACE)
    psi0 = gaussian_packet(GRID, 13.0, 2.5, 1.0)
    psi_final = QuantumState(
        SPACE,
        oracle.evolve_exact(ham.dense_matrix(), psi0.amplitudes, WINDOW[1]),
        WINDOW[1],
    )
    op = sojourn_matrix(REGION, ham, WINDOW)
    tau = dwell_time(op, psi_final)
    return ham, psi0, psi_final, tau


# -- extrapolation ----------------------------------------------------------


def test_extrapolation_recovers_quadratic_exactly():
    g = np.array([0.4, 0.2, 0.1])
    f = 3.7 + 0.9 * g**2
    value, order, residual = extrapolate_to_zero(g, f, error_order=2)
    assert value.real == pytest.approx(3.7, abs=1e-12)
    assert residual < 1e-10


def test_extrapolation_recovers_linear_data():
    g = np.array([0.4, 0.2, 0.1])
    f = 1.25 - 0.3 * g
    value, order, residual = extrapolate_to_zero(g, f, error_order=1)
    assert value.real == pytest.approx(1.25, abs=1e-12)
    assert order == pytest.approx(1.0, abs=0.05)


def test_extrapolation_fitted_order_detects_quadratic():
    g = np.array([0.4, 0.2, 0.1, 0.05])
    f = 2.0 + 0.5 * g**2 + 0.01 * g**4
    _, order, _ = extrapolate_to_zero(g, f, error_order=2)
    assert 1.8 < order < 2.2


def test_extrapolation_input_validation():
    with pytest.raises(ParameterError):
        extrapolate_to_zero([0.2, 0.1], [1.0, 1.0])
    with pytest.raises(ParameterError):
        extrapolate_to_zero([0.2, 0.2, 0.1], [1.0, 1.0, 1.0])
    with pytest.raises(ParameterError):
        extrapolate_to_zero([0.2, 0.1, -0.1], [1.0, 1.0, 1.0])


def test_config_requires_descending_ladder(crossing):
    ham, psi0, psi_final, _ = crossing
    runs = ClockRuns(ham, psi0, REGION, WINDOW)
    for ladder in ((0.1, 0.2, 0.3), (0.1, 0.05), (0.1, 0.05, 1e-9)):
        for read in (clock_real_potential, clock_imaginary_potential, clock_larmor):
            with pytest.raises(ParameterError):
                read(ladder, runs, psi_final)
        with pytest.raises(ParameterError):
            absorption_survival_dwell(ladder, runs)


# -- full-box exact cases ---------------------------------------------------


def _full_box_chi(ham, psi0):
    amps = oracle.evolve_exact(ham.dense_matrix(), psi0.amplitudes, WINDOW[1])
    return QuantumState(SPACE, amps, WINDOW[1])


def test_real_potential_full_box_gives_window_length():
    ham = Hamiltonian(SPACE)
    psi0 = gaussian_packet(GRID, 24.0, 3.0, 0.0)
    whole = Region(GRID.x_min - 1.0, GRID.x_max + 1.0)
    runs = ClockRuns(ham, psi0, whole, WINDOW)
    rec = clock_real_potential((0.12, 0.06, 0.03), runs, _full_box_chi(ham, psi0))
    duration = WINDOW[1] - WINDOW[0]
    assert rec.time == pytest.approx(duration, rel=5e-3)
    assert not rec.flagged


def test_imaginary_potential_full_box_gives_window_length():
    ham = Hamiltonian(SPACE)
    psi0 = gaussian_packet(GRID, 24.0, 3.0, 0.0)
    whole = Region(GRID.x_min - 1.0, GRID.x_max + 1.0)
    runs = ClockRuns(ham, psi0, whole, WINDOW)
    rec = clock_imaginary_potential((0.02, 0.01, 0.005), runs, _full_box_chi(ham, psi0))
    duration = WINDOW[1] - WINDOW[0]
    assert rec.time == pytest.approx(duration, rel=5e-3)


def test_larmor_full_box_gives_window_length():
    ham = Hamiltonian(SPACE)
    psi0 = gaussian_packet(GRID, 24.0, 3.0, 0.0)
    whole = Region(GRID.x_min - 1.0, GRID.x_max + 1.0)
    runs = ClockRuns(ham, psi0, whole, WINDOW)
    rec = clock_larmor((0.2, 0.1, 0.05), runs, _full_box_chi(ham, psi0))
    duration = WINDOW[1] - WINDOW[0]
    assert rec.time == pytest.approx(duration, rel=5e-3)


# -- agreement with the sojourn route ---------------------------------------


def test_real_potential_matches_dwell(crossing):
    ham, psi0, psi_final, tau = crossing
    runs = ClockRuns(ham, psi0, REGION, WINDOW)
    rec = clock_real_potential((0.12, 0.06, 0.03), runs, psi_final)
    assert rec.time == pytest.approx(tau, rel=0.01)


def test_imaginary_potential_matches_dwell(crossing):
    ham, psi0, psi_final, tau = crossing
    runs = ClockRuns(ham, psi0, REGION, WINDOW)
    rec = clock_imaginary_potential((0.04, 0.02, 0.01), runs, psi_final)
    assert rec.time == pytest.approx(tau, rel=0.01)


def test_larmor_matches_dwell_and_identity_route(crossing):
    ham, psi0, psi_final, tau = crossing
    runs = ClockRuns(ham, psi0, REGION, WINDOW)
    rec = clock_larmor((0.2, 0.1, 0.05), runs, psi_final)
    assert rec.time == pytest.approx(tau, rel=0.01)
    # the spin-amplitude identity reads the same sweeps a second way
    ident = rec.metadata["identity_value"]
    assert ident.real == pytest.approx(rec.time, rel=1e-4)


def test_larmor_matches_position_spin_oracle(crossing):
    ham, psi0, psi_final, _ = crossing
    strengths = (0.2, 0.1, 0.05)
    runs = ClockRuns(ham, psi0, REGION, WINDOW)
    rec = clock_larmor(strengths, runs, psi_final)
    spinors = oracle.larmor_spinors(
        ham.dense_matrix(), REGION.indicator(GRID), psi0.amplitudes,
        psi_final.amplitudes, (0.0, *strengths), WINDOW[1] - WINDOW[0], 0.05,
        GRID.dx,
    )
    a_up0 = spinors[0][0]
    sy, ident = [], []
    for w, (a_up, a_dn) in zip(strengths, spinors[1:]):
        weight = abs(a_up) ** 2 + abs(a_dn) ** 2
        sy.append(2.0 * np.imag(np.conj(a_up) * a_dn) / weight / w)
        ident.append(1j * (a_up - a_dn) / (w * a_up0))
    np.testing.assert_allclose(np.real(rec.readouts), sy, rtol=1e-9)
    np.testing.assert_allclose(np.imag(rec.readouts), 0.0, atol=0.0)
    ident_value, _, _ = extrapolate_to_zero(strengths, ident, 2)
    assert abs(rec.metadata["identity_value"] - ident_value) <= 1e-9 * abs(ident_value)


def test_norm_loss_route_matches_dwell(crossing):
    ham, psi0, _, tau = crossing
    runs = ClockRuns(ham, psi0, REGION, WINDOW)
    rec = absorption_survival_dwell((0.04, 0.02, 0.01), runs)
    assert rec.time == pytest.approx(tau, rel=0.01)


def test_dict_postselection_shares_sweeps(crossing):
    ham, psi0, psi_final, _ = crossing
    runs = ClockRuns(ham, psi0, REGION, WINDOW)
    both = clock_real_potential((0.12, 0.06, 0.03), runs, {"a": psi_final, "b": psi_final})
    assert both["a"].value == both["b"].value
    assert both["a"].postselection == "a"


def test_absorbed_fraction_guard(crossing):
    ham, psi0, psi_final, _ = crossing
    runs = ClockRuns(ham, psi0, REGION, WINDOW)
    with pytest.raises(ParameterError):
        clock_imaginary_potential((2.0, 1.0, 0.5), runs, psi_final)


def test_norm_loss_route_has_the_same_absorbed_fraction_guard(crossing):
    # the same ladder that the postselected absorber refuses: 88% of the
    # packet is absorbed at Gamma = 2, far outside the linear regime
    ham, psi0, _, _ = crossing
    runs = ClockRuns(ham, psi0, REGION, WINDOW)
    with pytest.raises(ParameterError):
        absorption_survival_dwell((2.0, 1.0, 0.5), runs)


# -- the table of evolutions ------------------------------------------------


def test_runs_final_zero_is_the_unperturbed_evolution(crossing):
    ham, psi0, _, _ = crossing
    runs = ClockRuns(ham, psi0, REGION, WINDOW)
    direct = evolve(psi0, Propagator(0.05, ham), *WINDOW)
    np.testing.assert_array_equal(runs.final(0).amplitudes, direct.amplitudes)
    assert runs.final(0.0) is runs.final(0j)


def test_larmor_reads_the_phase_clock_runs(crossing, monkeypatch):
    # omega = 2v puts Larmor's +-omega/2 runs on the phase clock's +-v keys,
    # so a table filled by the phase clock serves Larmor without evolving
    ham, psi0, psi_final, _ = crossing
    fresh = clock_larmor((0.24, 0.12, 0.06), ClockRuns(ham, psi0, REGION, WINDOW), psi_final)
    shared = ClockRuns(ham, psi0, REGION, WINDOW)
    clock_real_potential((0.12, 0.06, 0.03), shared, psi_final)
    calls = []
    monkeypatch.setattr(clocks, "evolve", lambda *args: calls.append(args) or evolve(*args))
    reused = clock_larmor((0.24, 0.12, 0.06), shared, psi_final)
    assert calls == []
    assert reused.value == fresh.value
    assert reused.residual == fresh.residual
    assert reused.readouts == fresh.readouts
