import mpmath
import numpy as np
import pytest

import oracle
from weaktime.clocks import (
    absorption_survival_dwell,
    clock_imaginary_potential,
    clock_larmor,
    clock_real_potential,
    clock_shifts,
    extrapolate_to_zero,
)
from weaktime import dynamics
from weaktime.dynamics import CoupledSystem, Hamiltonian, evolve_eigenbasis
from weaktime.errors import ParameterError, StructureError
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


def _served(ham, psi0, region=REGION, **ladders):
    """A coupled system fitted on exactly the keys that these ladders read,
    as `run_scenario` fits it."""
    coupled = _coupled(ham, psi0, region)
    coupled.serve(clock_shifts(**ladders))
    return coupled


def _one(read, strengths, coupled, chi):
    """The record of a single postselector."""
    return read(strengths, coupled, {"chi": chi})["chi"]


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


def _mp_lagrange_at_zero(x, f):
    """The interpolant through (x_i, f_i) at zero, at 50 digits."""
    total = mpmath.mpc(0)
    for i, (xi, fi) in enumerate(zip(x, f)):
        term = mpmath.mpc(fi)
        for j, xj in enumerate(x):
            if j != i:
                term *= xj / (xj - xi)
        total += term
    return total


@pytest.mark.parametrize("error_order", [1, 2])
@pytest.mark.parametrize("ladder", [
    (0.4, 0.2, 0.1), (0.3, 0.2, 0.1), (0.12, 0.06, 0.03, 0.015),
    (0.5, 0.37, 0.2, 0.11, 0.05)])
def test_extrapolation_is_the_lagrange_value_at_zero(ladder, error_order):
    # the value is the interpolant in strength**error_order at zero, the
    # residual its distance to the one without the largest strength; both
    # are held to a 50-digit Lagrange evaluation on the same inputs
    rng = np.random.default_rng(len(ladder) + 10 * error_order)
    coeffs = rng.normal(size=(len(ladder) + 1, 2)) @ [1.0, 1j]
    f = [np.polyval(coeffs, g**error_order) for g in ladder]
    value, _, residual = extrapolate_to_zero(ladder, f, error_order)
    with mpmath.workdps(50):
        x = [mpmath.mpf(g) ** error_order for g in ladder]
        full = _mp_lagrange_at_zero(x, f)
        reduced = _mp_lagrange_at_zero(x[1:], f[1:])
        scale = max(abs(v) for v in f)
        assert abs(value - complex(full)) <= 1e-14 * scale
        assert abs(residual - float(abs(full - reduced))) <= 1e-14 * scale


def test_extrapolation_input_validation():
    with pytest.raises(ParameterError):
        extrapolate_to_zero([0.2, 0.1], [1.0, 1.0])
    with pytest.raises(ParameterError):
        extrapolate_to_zero([0.2, 0.2, 0.1], [1.0, 1.0, 1.0])
    with pytest.raises(ParameterError):
        extrapolate_to_zero([0.2, 0.1, -0.1], [1.0, 1.0, 1.0])
    # a NaN strength compares false with its neighbours and the floor
    for ladder in ([0.2, np.nan, 0.05], [0.2, 0.1, np.nan]):
        with pytest.raises(ParameterError, match="strictly decreasing"):
            extrapolate_to_zero(ladder, [1.0, 1.0, 1.0])
    # 3 used to extrapolate as one-sided, the same as 1
    for error_order in (0, 3, 1.5):
        with pytest.raises(ParameterError, match="error_order must be 1 or 2"):
            extrapolate_to_zero([0.3, 0.2, 0.1], [1.0, 1.0, 1.0], error_order)


def test_config_requires_descending_ladder(crossing):
    ham, psi0, psi_final, _ = crossing
    coupled = _coupled(ham, psi0)
    for ladder in ((0.1, 0.2, 0.3), (0.1, 0.05), (0.1, 0.05, 1e-9)):
        for read in (clock_real_potential, clock_imaginary_potential, clock_larmor):
            with pytest.raises(ParameterError, match="strength"):
                read(ladder, coupled, {"chi": psi_final})
        with pytest.raises(ParameterError):
            absorption_survival_dwell(ladder, coupled)


# -- full-box exact cases ---------------------------------------------------


def _full_box_chi(ham, psi0):
    amps = oracle.evolve_exact(oracle.dense_hamiltonian(ham), psi0.amplitudes, WINDOW[1])
    return QuantumState(SPACE, amps, WINDOW[1])


def test_real_potential_full_box_gives_window_length():
    ham = Hamiltonian(SPACE)
    psi0 = gaussian_packet(GRID, 24.0, 3.0, 0.0)
    whole = Region(GRID.x_min - 1.0, GRID.x_max + 1.0)
    ladder = (0.12, 0.06, 0.03)
    coupled = _served(ham, psi0, whole, real_potential=ladder)
    rec = _one(clock_real_potential, ladder, coupled, _full_box_chi(ham, psi0))
    duration = WINDOW[1] - WINDOW[0]
    assert rec.time == pytest.approx(duration, rel=5e-3)
    assert not rec.flagged


def test_imaginary_potential_full_box_gives_window_length():
    ham = Hamiltonian(SPACE)
    psi0 = gaussian_packet(GRID, 24.0, 3.0, 0.0)
    whole = Region(GRID.x_min - 1.0, GRID.x_max + 1.0)
    ladder = (0.02, 0.01, 0.005)
    coupled = _served(ham, psi0, whole, imaginary_potential=ladder)
    rec = _one(clock_imaginary_potential, ladder, coupled, _full_box_chi(ham, psi0))
    duration = WINDOW[1] - WINDOW[0]
    assert rec.time == pytest.approx(duration, rel=5e-3)


def test_larmor_full_box_gives_window_length():
    ham = Hamiltonian(SPACE)
    psi0 = gaussian_packet(GRID, 24.0, 3.0, 0.0)
    whole = Region(GRID.x_min - 1.0, GRID.x_max + 1.0)
    ladder = (0.2, 0.1, 0.05)
    coupled = _served(ham, psi0, whole, larmor=ladder)
    rec = _one(clock_larmor, ladder, coupled, _full_box_chi(ham, psi0))
    duration = WINDOW[1] - WINDOW[0]
    assert rec.time == pytest.approx(duration, rel=5e-3)


# -- agreement with the sojourn route ---------------------------------------


def test_real_potential_matches_dwell(crossing):
    ham, psi0, psi_final, tau = crossing
    ladder = (0.12, 0.06, 0.03)
    rec = _one(clock_real_potential, ladder, _served(ham, psi0, real_potential=ladder),
               psi_final)
    assert rec.time == pytest.approx(tau, rel=0.01)


def test_imaginary_potential_matches_dwell(crossing):
    ham, psi0, psi_final, tau = crossing
    ladder = (0.04, 0.02, 0.01)
    rec = _one(clock_imaginary_potential, ladder,
               _served(ham, psi0, imaginary_potential=ladder), psi_final)
    assert rec.time == pytest.approx(tau, rel=0.01)


def test_larmor_matches_dwell_and_identity_route(crossing):
    ham, psi0, psi_final, tau = crossing
    omegas = (0.2, 0.1, 0.05)
    coupled = _served(ham, psi0, larmor=omegas)
    rec = _one(clock_larmor, omegas, coupled, psi_final)
    assert rec.time == pytest.approx(tau, rel=0.01)
    # the spin-amplitude identity i (a_up - a_down) / (omega a_up(0)) is the
    # phase clock at v = hbar omega/2, read from the same columns
    phase = _one(clock_real_potential, tuple(0.5 * HBAR * w for w in omegas), coupled,
                 psi_final)
    assert phase.time == pytest.approx(rec.time, rel=1e-4)


def test_larmor_matches_position_spin_oracle(crossing):
    ham, psi0, psi_final, _ = crossing
    strengths = (0.2, 0.1, 0.05)
    coupled = _served(ham, psi0, larmor=strengths)
    rec = _one(clock_larmor, strengths, coupled, psi_final)
    phase = _one(clock_real_potential, tuple(0.5 * HBAR * w for w in strengths),
                 coupled, psi_final)
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
    rec = absorption_survival_dwell(ladder, _served(ham, psi0, imaginary_potential=ladder))
    assert rec.time == pytest.approx(tau, rel=0.01)


def test_dict_postselection_shares_sweeps(crossing):
    ham, psi0, psi_final, _ = crossing
    ladder = (0.12, 0.06, 0.03)
    coupled = _served(ham, psi0, real_potential=ladder)
    both = clock_real_potential(ladder, coupled, {"a": psi_final, "b": psi_final})
    assert list(both) == ["a", "b"]
    assert both["a"] == both["b"]


def test_absorbed_fraction_guard(crossing):
    # 69% of the packet is absorbed at Gamma = 0.4, far outside the linear
    # regime: both absorption readouts refuse the column they read
    ham, psi0, psi_final, _ = crossing
    ladder = (0.4, 0.2, 0.1)
    coupled = _coupled(ham, psi0)
    with pytest.raises(ParameterError, match="absorbed fraction 0.69"):
        clock_imaginary_potential(ladder, coupled, {"chi": psi_final})
    with pytest.raises(ParameterError, match="absorbed fraction 0.69"):
        absorption_survival_dwell(ladder, coupled)


def test_runs_refuse_an_absorber_too_far_off_the_real_axis(crossing):
    # Gamma T = 16 puts u = -i at T |Im u| = 8, T |Im u| h = 4 for the
    # region's half range h = 1/2: continued from real nodes, its column
    # would carry the nodes' rounding amplified ~7e3-fold, so the
    # coupled system refuses to serve it before any absorbed fraction is read
    ham, psi0, psi_final, _ = crossing
    ladder = (2.0, 1.0, 0.5)
    with pytest.raises(ParameterError, match="weaken the absorber"):
        _coupled(ham, psi0).serve(clock_shifts(imaginary_potential=ladder))
    with pytest.raises(ParameterError, match="weaken the absorber"):
        clock_imaginary_potential(ladder, _coupled(ham, psi0), {"chi": psi_final})
    with pytest.raises(ParameterError, match="weaken the absorber"):
        absorption_survival_dwell(ladder, _served(ham, psi0, real_potential=(0.12, 0.06)))


def test_norm_loss_route_has_the_same_absorbed_fraction_guard(crossing):
    # the guard is per column read, so it refuses the one over-absorbing
    # key wherever it stands in the ladder, and a coupled system that has
    # served a weaker ladder refuses it all the same
    ham, psi0, _, _ = crossing
    coupled = _served(ham, psi0, imaginary_potential=(0.04, 0.02, 0.01))
    absorption_survival_dwell((0.04, 0.02, 0.01), coupled)
    with pytest.raises(ParameterError, match=r"absorbed fraction 0.69\d at u = -0.2j"):
        absorption_survival_dwell((0.4, 0.02, 0.01), coupled)


@pytest.mark.parametrize("scale", [2.0, 0.5])
def test_absorption_reads_survival_relative_to_the_packet_norm(crossing, scale):
    # the norm clock and the absorbed-fraction guard measure the share of
    # the packet kept, so a packet of any norm gives the normalized one's
    # record and passes the guard where it passes
    ham, psi0, _, _ = crossing
    ladder = (0.04, 0.02, 0.01)
    scaled = QuantumState(SPACE, scale * psi0.amplitudes, psi0.representation_time)
    ref = absorption_survival_dwell(ladder, _served(ham, psi0, imaginary_potential=ladder))
    rec = absorption_survival_dwell(ladder, _served(ham, scaled, imaginary_potential=ladder))
    assert rec.value == pytest.approx(ref.value, rel=1e-12)
    assert rec.readouts == pytest.approx(ref.readouts, rel=1e-12)
    with pytest.raises(ParameterError, match="absorbed fraction"):
        absorption_survival_dwell((0.4, 0.2, 0.1), _coupled(ham, scaled))


def test_readouts_refuse_a_postselector_on_another_space(crossing):
    # each overlap is the postselector's projection on the fit's basis, so
    # a postselector of the right length on another grid is refused before
    # it is read
    ham, psi0, psi_final, _ = crossing
    other = gaussian_packet(Grid(64, 0.0, 50.0), 13.0, 2.5, 1.0).at_time(WINDOW[1])
    with pytest.raises(StructureError, match="different spaces"):
        clock_real_potential((0.12, 0.06, 0.03), _coupled(ham, psi0),
                             {"chi": psi_final, "other": other})


# -- reading the coupled family ----------------------------------------------


def test_runs_final_zero_is_the_unperturbed_evolution(crossing):
    # the readouts' u = 0 column, read with their keys off the node block,
    # is the exact unperturbed evolution; alone it is that evolution itself
    ham, psi0, _, _ = crossing
    shifts = clock_shifts(real_potential=(0.12, 0.06, 0.03),
                          imaginary_potential=(0.04, 0.02, 0.01))
    coupled = _served(ham, psi0, real_potential=(0.12, 0.06, 0.03),
                       imaginary_potential=(0.04, 0.02, 0.01))
    exact = evolve_eigenbasis(psi0, ham, WINDOW[1])
    np.testing.assert_allclose(oracle.columns(coupled, shifts)[:, 0], exact.amplitudes,
                               rtol=0, atol=1e-13)
    np.testing.assert_array_equal(oracle.columns(coupled, [0j])[:, 0], exact.amplitudes)


def _counting_blocks(monkeypatch):
    blocks = []
    evolve_shifted = dynamics.evolve_shifted
    monkeypatch.setattr(dynamics, "evolve_shifted",
                        lambda *args: blocks.append(list(args[2])) or evolve_shifted(*args))
    return blocks


def test_runs_evolve_every_declared_key_in_one_block(crossing, monkeypatch):
    # serving the ladders' keys fits one node block, its interval the
    # largest real key (8 times the largest absorber here); the readouts
    # then only read it
    ham, psi0, psi_final, _ = crossing
    shifts = clock_shifts(real_potential=(0.12, 0.06, 0.03),
                          imaginary_potential=(0.04, 0.02, 0.01),
                          larmor=(0.24, 0.12, 0.06))
    assert len(shifts) == 1 + 6 + 3
    blocks = _counting_blocks(monkeypatch)
    coupled = _coupled(ham, psi0)
    coupled.serve(shifts)
    [nodes] = blocks
    assert np.max(np.abs(nodes)) == pytest.approx(0.16, rel=1e-15)
    chis = {"chi": psi_final}
    clock_real_potential((0.12, 0.06, 0.03), coupled, chis)
    clock_imaginary_potential((0.04, 0.02, 0.01), coupled, chis)
    absorption_survival_dwell((0.04, 0.02, 0.01), coupled)
    clock_larmor((0.24, 0.12, 0.06), coupled, chis)
    assert blocks == [nodes]
    assert (coupled.nodes, coupled.chebyshev_terms) == (len(nodes), 62)
    assert 0.0 < coupled.node_tail <= 1e-13
    # each column is exp(-i T (H + u P_region)) psi0
    h = oracle.dense_hamiltonian(ham)
    block = oracle.columns(coupled, shifts)
    for j, u in enumerate(shifts):
        ref = oracle.evolve_exact(h + u * np.diag(REGION.indicator(GRID)),
                                  psi0.amplitudes, WINDOW[1] - WINDOW[0])
        np.testing.assert_allclose(block[:, j], ref, rtol=0, atol=1e-12)


def test_readout_outside_the_cover_refits_once(crossing, monkeypatch):
    # a coupled system fitted on the phase clock's keys up to v = 0.12 does
    # not serve v = 0.3: the stronger ladder's first readout refits it, once,
    # and later readouts of those keys, Larmor's at omega = 2v included, read
    # the new block, which agrees with one fitted on them from the start
    ham, psi0, psi_final, _ = crossing
    coupled = _served(ham, psi0, real_potential=(0.12, 0.06, 0.03))
    blocks = _counting_blocks(monkeypatch)
    ladder, chis = (0.3, 0.15, 0.075), {"chi": psi_final}
    rec = clock_real_potential(ladder, coupled, chis)
    assert len(blocks) == 1
    assert np.max(np.abs(blocks[0])) == pytest.approx(0.3, rel=1e-15)
    assert clock_real_potential(ladder, coupled, chis) == rec
    clock_larmor((0.6, 0.3, 0.15), coupled, chis)
    assert len(blocks) == 1
    fresh = _one(clock_real_potential, ladder, _served(ham, psi0, real_potential=ladder),
                 psi_final)
    assert fresh.value == pytest.approx(rec["chi"].value, rel=1e-12)


def test_larmor_reads_the_phase_clock_runs(crossing):
    # omega = 2v puts Larmor's +-omega/2 runs on the phase clock's +-v keys,
    # so a coupled system fitted for the phase clock serves Larmor
    ham, psi0, psi_final, _ = crossing
    omegas, vs = (0.24, 0.12, 0.06), (0.12, 0.06, 0.03)
    assert clock_shifts(larmor=omegas) == clock_shifts(real_potential=vs)
    fresh = _one(clock_larmor, omegas, _served(ham, psi0, larmor=omegas), psi_final)
    shared = _one(clock_larmor, omegas, _served(ham, psi0, real_potential=vs), psi_final)
    assert shared == fresh
