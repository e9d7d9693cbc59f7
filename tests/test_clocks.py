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
    clock_shifts,
    extrapolate_to_zero,
)
from weaktime import dynamics
from weaktime.dynamics import CoupledSystem, Hamiltonian, evolve_eigenbasis
from weaktime.errors import ParameterError
from weaktime.hilbert import (
    HBAR,
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


def _coupled(ham, psi0, region=REGION):
    return CoupledSystem(ham, psi0, region.indicator(GRID), WINDOW)


def _runs(ham, psi0, region=REGION, **ladders):
    """A table holding exactly the keys that these ladders read."""
    return ClockRuns(_coupled(ham, psi0, region), clock_shifts(**ladders))


def _one(read, strengths, runs, chi):
    """The record of a single postselector."""
    return read(strengths, runs, {"chi": chi})["chi"]


@pytest.fixture(scope="module")
def crossing():
    """Free packet crossing the region; reference dwell time from the
    sojourn operator."""
    ham = Hamiltonian(SPACE)
    psi0 = gaussian_packet(GRID, 13.0, 2.5, 1.0)
    psi_final = QuantumState(
        SPACE,
        oracle.evolve_exact(oracle.dense_hamiltonian(ham), psi0.amplitudes, WINDOW[1]),
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
    runs = _runs(ham, psi0)
    for ladder in ((0.1, 0.2, 0.3), (0.1, 0.05), (0.1, 0.05, 1e-9)):
        for read in (clock_real_potential, clock_imaginary_potential, clock_larmor):
            with pytest.raises(ParameterError, match="strength"):
                read(ladder, runs, {"chi": psi_final})
        with pytest.raises(ParameterError):
            absorption_survival_dwell(ladder, runs)


# -- full-box exact cases ---------------------------------------------------


def _full_box_chi(ham, psi0):
    amps = oracle.evolve_exact(oracle.dense_hamiltonian(ham), psi0.amplitudes, WINDOW[1])
    return QuantumState(SPACE, amps, WINDOW[1])


def test_real_potential_full_box_gives_window_length():
    ham = Hamiltonian(SPACE)
    psi0 = gaussian_packet(GRID, 24.0, 3.0, 0.0)
    whole = Region(GRID.x_min - 1.0, GRID.x_max + 1.0)
    ladder = (0.12, 0.06, 0.03)
    runs = _runs(ham, psi0, whole, real_potential=ladder)
    rec = _one(clock_real_potential, ladder, runs, _full_box_chi(ham, psi0))
    duration = WINDOW[1] - WINDOW[0]
    assert rec.time == pytest.approx(duration, rel=5e-3)
    assert not rec.flagged


def test_imaginary_potential_full_box_gives_window_length():
    ham = Hamiltonian(SPACE)
    psi0 = gaussian_packet(GRID, 24.0, 3.0, 0.0)
    whole = Region(GRID.x_min - 1.0, GRID.x_max + 1.0)
    ladder = (0.02, 0.01, 0.005)
    runs = _runs(ham, psi0, whole, imaginary_potential=ladder)
    rec = _one(clock_imaginary_potential, ladder, runs, _full_box_chi(ham, psi0))
    duration = WINDOW[1] - WINDOW[0]
    assert rec.time == pytest.approx(duration, rel=5e-3)


def test_larmor_full_box_gives_window_length():
    ham = Hamiltonian(SPACE)
    psi0 = gaussian_packet(GRID, 24.0, 3.0, 0.0)
    whole = Region(GRID.x_min - 1.0, GRID.x_max + 1.0)
    ladder = (0.2, 0.1, 0.05)
    runs = _runs(ham, psi0, whole, larmor=ladder)
    rec = _one(clock_larmor, ladder, runs, _full_box_chi(ham, psi0))
    duration = WINDOW[1] - WINDOW[0]
    assert rec.time == pytest.approx(duration, rel=5e-3)


# -- agreement with the sojourn route ---------------------------------------


def test_real_potential_matches_dwell(crossing):
    ham, psi0, psi_final, tau = crossing
    ladder = (0.12, 0.06, 0.03)
    rec = _one(clock_real_potential, ladder, _runs(ham, psi0, real_potential=ladder), psi_final)
    assert rec.time == pytest.approx(tau, rel=0.01)


def test_imaginary_potential_matches_dwell(crossing):
    ham, psi0, psi_final, tau = crossing
    ladder = (0.04, 0.02, 0.01)
    rec = _one(clock_imaginary_potential, ladder,
               _runs(ham, psi0, imaginary_potential=ladder), psi_final)
    assert rec.time == pytest.approx(tau, rel=0.01)


def test_larmor_matches_dwell_and_identity_route(crossing):
    ham, psi0, psi_final, tau = crossing
    omegas = (0.2, 0.1, 0.05)
    runs = _runs(ham, psi0, larmor=omegas)
    rec = _one(clock_larmor, omegas, runs, psi_final)
    assert rec.time == pytest.approx(tau, rel=0.01)
    # the spin-amplitude identity i (a_up - a_down) / (omega a_up(0)) is the
    # phase clock at v = hbar omega/2, read from the same table
    phase = _one(clock_real_potential, tuple(0.5 * HBAR * w for w in omegas), runs, psi_final)
    assert phase.time == pytest.approx(rec.time, rel=1e-4)


def test_larmor_matches_position_spin_oracle(crossing):
    ham, psi0, psi_final, _ = crossing
    strengths = (0.2, 0.1, 0.05)
    runs = _runs(ham, psi0, larmor=strengths)
    rec = _one(clock_larmor, strengths, runs, psi_final)
    phase = _one(clock_real_potential, tuple(0.5 * HBAR * w for w in strengths),
                 runs, psi_final)
    spinors = oracle.larmor_spinors(
        oracle.dense_hamiltonian(ham), REGION.indicator(GRID), psi0.amplitudes,
        psi_final.amplitudes, (0.0, *strengths), WINDOW[1] - WINDOW[0], GRID.dx,
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
    assert abs(phase.value - ident_value) <= 1e-9 * abs(ident_value)


def test_norm_loss_route_matches_dwell(crossing):
    ham, psi0, _, tau = crossing
    ladder = (0.04, 0.02, 0.01)
    rec = absorption_survival_dwell(ladder, _runs(ham, psi0, imaginary_potential=ladder))
    assert rec.time == pytest.approx(tau, rel=0.01)


def test_dict_postselection_shares_sweeps(crossing):
    ham, psi0, psi_final, _ = crossing
    ladder = (0.12, 0.06, 0.03)
    runs = _runs(ham, psi0, real_potential=ladder)
    both = clock_real_potential(ladder, runs, {"a": psi_final, "b": psi_final})
    assert list(both) == ["a", "b"]
    assert both["a"] == both["b"]


def test_absorbed_fraction_guard(crossing):
    # 69% of the packet is absorbed at Gamma = 0.4, far outside the linear
    # regime: the table refuses to be built
    ham, psi0, _, _ = crossing
    with pytest.raises(ParameterError, match="absorbed fraction 0.69"):
        _runs(ham, psi0, imaginary_potential=(0.4, 0.2, 0.1))


def test_runs_refuse_an_absorber_too_far_off_the_real_axis(crossing):
    # Gamma T = 16 puts u = -i at T |Im u| = 8: continued from real nodes,
    # its column would carry the nodes' rounding amplified ~1e6-fold, so the
    # table is refused before any absorbed fraction is read
    ham, psi0, _, _ = crossing
    for keys in (clock_shifts(imaginary_potential=(2.0, 1.0, 0.5)), (0j, -1.0j)):
        with pytest.raises(ParameterError, match="weaken the absorber"):
            ClockRuns(_coupled(ham, psi0), keys)


def test_norm_loss_route_has_the_same_absorbed_fraction_guard(crossing):
    # the guard is per key, so both absorption readouts share it: one
    # over-absorbing key refuses the table, and a table without it cannot
    # serve the ladder that would read it
    ham, psi0, _, _ = crossing
    with pytest.raises(ParameterError, match="absorbed fraction"):
        ClockRuns(_coupled(ham, psi0), (0j, -0.2j))
    runs = _runs(ham, psi0, imaginary_potential=(0.04, 0.02, 0.01))
    with pytest.raises(ParameterError, match="not among the declared shifts"):
        absorption_survival_dwell((2.0, 1.0, 0.5), runs)


@pytest.mark.parametrize("scale", [2.0, 0.5])
def test_absorption_reads_survival_relative_to_the_packet_norm(crossing, scale):
    # the norm clock and the absorbed-fraction guard measure the share of
    # the packet kept, so a packet of any norm gives the normalized one's
    # record and passes the guard where it passes
    ham, psi0, _, _ = crossing
    ladder = (0.04, 0.02, 0.01)
    scaled = QuantumState(SPACE, scale * psi0.amplitudes, psi0.representation_time)
    ref = absorption_survival_dwell(ladder, _runs(ham, psi0, imaginary_potential=ladder))
    rec = absorption_survival_dwell(ladder, _runs(ham, scaled, imaginary_potential=ladder))
    assert rec.value == pytest.approx(ref.value, rel=1e-12)
    assert rec.readouts == pytest.approx(ref.readouts, rel=1e-12)
    with pytest.raises(ParameterError, match="absorbed fraction"):
        _runs(ham, scaled, imaginary_potential=(0.4, 0.2, 0.1))


# -- the table of evolutions ------------------------------------------------


def test_runs_final_zero_is_the_unperturbed_evolution(crossing):
    ham, psi0, _, _ = crossing
    runs = _runs(ham, psi0)
    exact = evolve_eigenbasis(psi0, ham, WINDOW[1])
    np.testing.assert_allclose(runs.final(0).amplitudes, exact.amplitudes,
                               rtol=0, atol=1e-13)
    assert runs.final(0).representation_time == WINDOW[1]
    assert runs.final(0.0) is runs.final(0j)


def _counting_blocks(monkeypatch):
    blocks = []
    evolve_shifted = dynamics.evolve_shifted
    monkeypatch.setattr(dynamics, "evolve_shifted",
                        lambda *args: blocks.append(list(args[2])) or evolve_shifted(*args))
    return blocks


def test_runs_evolve_every_declared_key_in_one_block(crossing, monkeypatch):
    # the declared keys are read off one node block when the table is built,
    # its interval the largest real key (8 times the largest absorber here);
    # the readouts only read the table
    ham, psi0, psi_final, _ = crossing
    shifts = clock_shifts(real_potential=(0.12, 0.06, 0.03),
                          imaginary_potential=(0.04, 0.02, 0.01),
                          larmor=(0.24, 0.12, 0.06))
    assert len(shifts) == 1 + 6 + 3
    blocks = _counting_blocks(monkeypatch)
    runs = ClockRuns(_coupled(ham, psi0), shifts)
    [nodes] = blocks
    assert np.max(np.abs(nodes)) == pytest.approx(0.16, rel=1e-15)
    chis = {"chi": psi_final}
    clock_real_potential((0.12, 0.06, 0.03), runs, chis)
    clock_imaginary_potential((0.04, 0.02, 0.01), runs, chis)
    absorption_survival_dwell((0.04, 0.02, 0.01), runs)
    clock_larmor((0.24, 0.12, 0.06), runs, chis)
    assert blocks == [nodes]
    # each column is exp(-i T (H + u P_region)) psi0
    h = oracle.dense_hamiltonian(ham)
    for u in shifts:
        ref = oracle.evolve_exact(h + u * np.diag(REGION.indicator(GRID)),
                                  psi0.amplitudes, WINDOW[1] - WINDOW[0])
        np.testing.assert_allclose(runs.final(u).amplitudes, ref, rtol=0, atol=1e-12)


def test_runs_refuse_an_undeclared_key(crossing, monkeypatch):
    # no lazy fill: a key outside the declared ones is an error, not a
    # second evolution
    ham, psi0, psi_final, _ = crossing
    runs = _runs(ham, psi0, real_potential=(0.12, 0.06, 0.03))
    blocks = _counting_blocks(monkeypatch)
    for u in (0.5, 0.12j, -0.5j * 0.04):
        with pytest.raises(ParameterError, match="not among the declared shifts"):
            runs.final(u)
    with pytest.raises(ParameterError, match="not among the declared shifts"):
        clock_imaginary_potential((0.04, 0.02, 0.01), runs, {"chi": psi_final})
    assert blocks == []


def test_larmor_reads_the_phase_clock_runs(crossing):
    # omega = 2v puts Larmor's +-omega/2 runs on the phase clock's +-v keys,
    # so a table declared for the phase clock serves Larmor
    ham, psi0, psi_final, _ = crossing
    omegas, vs = (0.24, 0.12, 0.06), (0.12, 0.06, 0.03)
    assert clock_shifts(larmor=omegas) == clock_shifts(real_potential=vs)
    fresh = _one(clock_larmor, omegas, _runs(ham, psi0, larmor=omegas), psi_final)
    shared = _one(clock_larmor, omegas, _runs(ham, psi0, real_potential=vs), psi_final)
    assert shared == fresh
