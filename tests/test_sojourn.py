import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from weaktime import scenarios
from weaktime.dynamics import Hamiltonian
from weaktime.errors import DegeneratePostselectionError, ParameterError, StructureError
from weaktime.hilbert import (
    HBAR,
    Grid,
    QuantumState,
    Region,
    basis_cell_state,
    inner_product,
    position_space,
    spin_space,
)
from weaktime.scenarios import catalog, run_scenario
from weaktime.sojourn import (
    ANOMALY_FACTOR,
    _BLOCK,
    SojournOperator,
    _filter_blocks,
    _window_sinc,
    conditional_dwell_time,
    dwell_time,
    moment,
    moment_sum,
    second_moment_position_integral,
    sojourn_matrix,
)

GRID = Grid(32, 0.0, 15.5)
SPACE = position_space(GRID)
WINDOW = (0.0, 4.0)
REGION = Region(7.0, 9.0)


def _small_ham():
    v = 1.0 * REGION.indicator(GRID)
    return Hamiltonian(SPACE, potential_real=v)


def _initial_state(ham):
    # deterministic superposition of low eigenstates; avoids packet
    # resolvability constraints on a coarse grid
    vals, vecs = ham.eigensystem()
    coeff = np.array([1.0, 0.8j, -0.5, 0.3 + 0.2j, 0.1])
    amps = vecs[:, :5] @ coeff
    return QuantumState(SPACE, amps, 0.0).normalized()


@pytest.fixture(scope="module")
def small():
    ham = _small_ham()
    psi0 = _initial_state(ham)
    hmat = oracle.dense_hamiltonian(ham)
    psi_final = QuantumState(
        SPACE, oracle.evolve_exact(hmat, psi0.amplitudes, WINDOW[1]), WINDOW[1]
    )
    op = sojourn_matrix(REGION, ham, WINDOW)
    return ham, hmat, psi0, psi_final, op


def test_spectral_sum_matches_oracle_block_exponential():
    # the exact average, against the oracle's dense Van Loan exponential,
    # from a window far shorter than one level spacing to one that many
    # level differences wind through hundreds of turns
    ham = _small_ham()
    proj = np.diag(REGION.indicator(GRID))
    for window in ((0.0, 0.01), (1.0, 5.0), (0.0, 200.0)):
        duration = window[1] - window[0]
        ours = oracle.dense_sojourn(sojourn_matrix(REGION, ham, window)) / duration
        ref = oracle.time_average(proj, oracle.dense_hamiltonian(ham), window)
        np.testing.assert_allclose(ours, ref, atol=1e-12)


def test_integrated_matches_brute_force_quadrature(small):
    ham, hmat, psi0, psi_final, op = small
    ref = oracle.sojourn(REGION.indicator(GRID), hmat, WINDOW)
    np.testing.assert_allclose(oracle.dense_sojourn(op), ref, atol=1e-13)


def test_sojourn_full_box_is_window_length():
    ham = _small_ham()
    whole = Region(GRID.x_min - 1.0, GRID.x_max + 1.0)
    op = sojourn_matrix(whole, ham, WINDOW)
    duration = WINDOW[1] - WINDOW[0]
    np.testing.assert_allclose(
        oracle.dense_sojourn(op), duration * np.eye(GRID.n_points), atol=1e-9
    )


def test_sojourn_matrix_needs_position_grid():
    with pytest.raises(StructureError):
        sojourn_matrix(REGION, Hamiltonian(spin_space()), WINDOW)


@pytest.mark.parametrize("ctx", ["barrier_ctx", "farside_ctx", "free_box_ctx", "well_ctx"])
def test_catalog_sojourn_spectrum_within_window(ctx, request):
    op = request.getfixturevalue(ctx).op
    # the stored midpoint matrix K, unitarily similar to M, has the
    # spectrum of T_op / T, inside [0, 1] up to rounding now that the
    # average is exact
    tau = np.linalg.eigvalsh(oracle.k_matrix(op))
    assert tau.min() >= -1e-12
    assert tau.max() <= 1.0 + 1e-12


@pytest.mark.parametrize("ctx", ["barrier_ctx", "farside_ctx", "free_box_ctx", "well_ctx"])
def test_catalog_sojourn_matrix_is_exactly_hermitian(ctx, request):
    # the kept form of M is the real K, so hermitian means exactly symmetric
    op = request.getfixturevalue(ctx).op
    assert all(block.dtype == np.float64 for _, _, block in op.blocks)
    k = oracle.k_matrix(op)
    assert np.array_equal(k, k.T)


@pytest.mark.parametrize("ctx", ["barrier_ctx", "farside_ctx", "free_box_ctx", "well_ctx"])
def test_catalog_sojourn_matrix_equals_full_build(ctx, request):
    # the row blocks and their mirrored transposes are bit for bit the
    # K that filters every level pair at once
    c = request.getfixturevalue(ctx)
    vals, vecs = c.ham.eigensystem()
    rows = vecs[c.scenario.region.indices(c.scenario.grid)]
    full = oracle.full_k_matrix(rows, vals, c.scenario.duration())
    assert np.array_equal(oracle.k_matrix(c.op), full)


# grids up to 200 points cross the block edges at 64 and 128
RANDOM_CASES = (
    st.integers(min_value=3, max_value=200),
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=1e-3, max_value=300.0),
)


def _random_case(n, dx, lo, width, v0):
    grid = Grid(n, 0.0, dx * (n - 1))
    first = int(lo * (n - 1))
    last = first + int(width * (n - 1 - first))
    region = Region((first - 0.5) * dx, (last + 0.5) * dx)
    ham = Hamiltonian(position_space(grid), potential_real=v0 * region.indicator(grid))
    return region, ham


@settings(max_examples=30, deadline=None)
@given(*RANDOM_CASES)
def test_sojourn_matrix_is_exactly_hermitian(n, dx, lo, width, v0, duration):
    # the kept K = (V_R^T V_R) * sinc(phi) is real, with phi exactly
    # antisymmetric and sinc(-phi) == sinc(phi) bit for bit, so it is
    # exactly symmetric, with no symmetrization, on any grid, potential or
    # window
    region, ham = _random_case(n, dx, lo, width, v0)
    vals = ham.eigensystem()[0]
    phi = (vals[:, None] - vals[None, :]) * (0.5 * duration / HBAR)
    assert np.array_equal(_window_sinc(-phi), _window_sinc(phi))
    k = oracle.k_matrix(sojourn_matrix(region, ham, (0.0, duration)))
    assert np.array_equal(k, k.T)


@settings(max_examples=30, deadline=None)
@example(n=64, dx=0.5, lo=0.2, width=0.3, v0=1.0, duration=5.0)
@example(n=65, dx=0.5, lo=0.0, width=1.0, v0=-2.0, duration=50.0)
@example(n=129, dx=0.3, lo=0.5, width=0.1, v0=3.0, duration=0.01)
@example(n=200, dx=1.0, lo=0.9, width=1.0, v0=0.0, duration=300.0)
@given(*RANDOM_CASES)
def test_sojourn_matrix_equals_full_build(n, dx, lo, width, v0, duration):
    # the block rows' Gram products are not the full build's one syrk, so
    # off the catalog they agree to rounding: 1e-15 ||K||_F
    region, ham = _random_case(n, dx, lo, width, v0)
    vals, vecs = ham.eigensystem()
    full = oracle.full_k_matrix(vecs[region.indices(ham.position_grid)], vals, duration)
    k = oracle.k_matrix(sojourn_matrix(region, ham, (0.0, duration)))
    assert np.linalg.norm(k - full) <= 1e-15 * np.linalg.norm(full)


@settings(max_examples=30, deadline=None)
@example(n=64, dx=0.5, lo=0.2, width=0.3, v0=1.0, duration=5.0)
@example(n=65, dx=0.5, lo=0.0, width=1.0, v0=-2.0, duration=50.0)
@example(n=129, dx=0.3, lo=0.5, width=0.1, v0=3.0, duration=0.01)
@example(n=200, dx=1.0, lo=0.9, width=1.0, v0=0.0, duration=300.0)
@given(*RANDOM_CASES)
def test_midpoint_rotation_matches_the_complex_filter_build(n, dx, lo, width, v0, duration):
    # D_u K D_u^dag against M = (V_R^T V_R) * sinc(phi) exp(-i phi) built
    # whole.  Entry by entry they differ only in how the phase is rounded:
    # theta_i = E_i T / 2 hbar rounds with error <= eps |theta_i| <= eps
    # Theta, Theta = max|E| T / 2 hbar, so theta_i - theta_j is off by at
    # most 2 eps Theta, and phi_ij = (E_i - E_j) T / 2 hbar, at most
    # 2 Theta in size, by at most 2 eps |phi_ij| <= 4 eps Theta; the two
    # exponentials, the products by u_i, conj(u_j) and the full build's
    # sinc cos and sinc sin add a few eps more.  So |dM_ij| <= (6 Theta +
    # c) eps |M_ij|, and over the Frobenius norm, with room, 8 eps (Theta +
    # 1) ||M||_F
    region, ham = _random_case(n, dx, lo, width, v0)
    vals, vecs = ham.eigensystem()
    full = oracle.full_eigen_matrix(vecs[region.indices(ham.position_grid)], vals, duration)
    op = sojourn_matrix(region, ham, (0.0, duration))
    u = op.midpoint_phases
    rotated = u[:, None] * oracle.k_matrix(op) * u.conj()[None, :]
    theta = np.abs(vals).max() * 0.5 * duration / HBAR
    bound = 8.0 * np.finfo(float).eps * (theta + 1.0) * np.linalg.norm(full)
    assert np.linalg.norm(rotated - full) <= bound


def _check_eigensystem(op, full):
    # tau is the spectrum of T_op / T, W_K is real orthogonal and W_K
    # diag(tau) W_K^T is K; the real eigh reads only the block rows, and its
    # result is kept
    tau, w = op.eigensystem()
    n = op.vals.size
    assert w.dtype == np.float64
    assert tau.min() >= -1e-12 and tau.max() <= 1.0 + 1e-12
    assert np.abs(w.T @ w - np.eye(n)).max() <= 1e-13
    assert np.linalg.norm((w * tau) @ w.T - full) <= 1e-13 * np.linalg.norm(full)
    again = op.eigensystem()
    assert again[0] is tau and again[1] is w


@pytest.mark.parametrize("ctx", ["barrier_ctx", "farside_ctx", "free_box_ctx", "well_ctx"])
def test_catalog_eigensystem_diagonalizes_the_eigenbasis_matrix(ctx, request):
    c = request.getfixturevalue(ctx)
    vals, vecs = c.ham.eigensystem()
    rows = vecs[c.scenario.region.indices(c.scenario.grid)]
    _check_eigensystem(c.op, oracle.full_k_matrix(rows, vals, c.scenario.duration()))


@settings(max_examples=30, deadline=None)
@example(n=64, dx=0.5, lo=0.2, width=0.3, v0=1.0, duration=5.0)
@example(n=200, dx=1.0, lo=0.9, width=1.0, v0=0.0, duration=300.0)
@given(*RANDOM_CASES)
def test_eigensystem_diagonalizes_the_eigenbasis_matrix(n, dx, lo, width, v0, duration):
    region, ham = _random_case(n, dx, lo, width, v0)
    vals, vecs = ham.eigensystem()
    full = oracle.full_k_matrix(vecs[region.indices(ham.position_grid)], vals, duration)
    _check_eigensystem(sojourn_matrix(region, ham, (0.0, duration)), full)


@settings(max_examples=30, deadline=None)
@example(n=64, dx=0.5, lo=0.2, width=0.3, v0=1.0, duration=5.0, seed=0)
@example(n=65, dx=0.5, lo=0.0, width=1.0, v0=-2.0, duration=50.0, seed=1)
@example(n=129, dx=0.3, lo=0.5, width=0.1, v0=3.0, duration=0.01, seed=2)
@example(n=200, dx=1.0, lo=0.9, width=1.0, v0=0.0, duration=300.0, seed=3)
@given(*RANDOM_CASES, st.integers(min_value=0, max_value=2**32 - 1))
def test_block_application_matches_full_build(n, dx, lo, width, v0, duration, seed):
    # the readouts apply K from its block rows and their mirrors, never
    # forming it: the full build's product up to rounding, bounded by
    # 1e-14 ||K||_F ||x||
    region, ham = _random_case(n, dx, lo, width, v0)
    vals, vecs = ham.eigensystem()
    full = oracle.full_k_matrix(vecs[region.indices(ham.position_grid)], vals, duration)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = sojourn_matrix(region, ham, (0.0, duration))._apply_k(x)
    bound = 1e-14 * np.linalg.norm(full) * np.linalg.norm(x)
    assert np.linalg.norm(got - full @ x) <= bound


def test_sojourn_pipeline_forms_each_block_row_once(monkeypatch):
    # the readouts climb the ladder to M^2 on one operator, and the moment
    # sums and the position integral read it again: every block row of K
    # is formed once, by `sojourn_matrix`, and read from then on
    sc = catalog()["barrier_dwell"]
    assert sc.postselection == "transmitted_reflected"
    built = []
    build = scenarios.sojourn_matrix
    monkeypatch.setattr(scenarios, "sojourn_matrix",
                        lambda *args: built.append(build(*args)) or built[-1])
    records = run_scenario(sc, ("sojourn",)).records
    assert {r.order for r in records if r.method == "sojourn"} == {1, 2}
    assert len(built) == 1
    assert [i0 for i0, _, _ in built[0].blocks] == list(range(0, sc.grid.n_points, _BLOCK))


def test_kept_block_rows_are_read_only_and_reused():
    # the kept rows are K's upper block rows, N^2/2 + 32N float64 values and
    # no whole Gram, scaled by the cached sinc rows of the same shape; every
    # application reads them and gives, bit for bit, what a fresh operator
    # gives
    grid = Grid(192, 0.0, 95.5)
    ham = Hamiltonian(position_space(grid),
                      potential_real=1.5 * Region(40.0, 44.0).indicator(grid))
    region, window = Region(38.0, 50.0), (0.0, 30.0)
    n = grid.n_points
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    op = sojourn_matrix(region, ham, window)
    kept = op.blocks
    assert sum(block.size for _, _, block in kept) == n * n // 2 + 32 * n
    for (i0, i1, block), sinc in zip(kept, _filter_blocks(ham, 30.0), strict=True):
        assert block.shape == sinc.shape == (min(i1, n) - i0, n - i0)
        assert block.dtype == sinc.dtype == np.float64
        for arr in (block, sinc):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0.0
    op._apply_k(x)
    second = op._apply_k(y)
    assert np.array_equal(second, sojourn_matrix(region, ham, window)._apply_k(y))


def _mp_sinc(phi):
    with mpmath.workdps(40):
        x = mpmath.mpf(phi)
        return float(mpmath.sin(x) / x)


@settings(max_examples=300, deadline=None)
@example(log_phi=None, sign=1.0)
@example(log_phi=-14.0, sign=-1.0)
@example(log_phi=3.0, sign=1.0)
@given(
    st.one_of(st.none(), st.floats(min_value=-14.0, max_value=3.0)),
    st.sampled_from([1.0, -1.0]),
)
def test_window_filter_matches_mpmath(log_phi, sign):
    # the filter's kept factor sinc(phi) against 40-digit arithmetic over
    # |phi| in [1e-14, 1e3]; log_phi None is phi == 0, where it is exactly 1
    if log_phi is None:
        assert _window_sinc(np.array([0.0]))[0] == 1.0
        return
    phi = sign * 10.0**log_phi
    assert abs(_window_sinc(np.array([phi]))[0] - _mp_sinc(phi)) <= 1e-15


def test_window_filter_is_one_only_at_zero_frequency():
    # a level pair omega = 3e-10 apart over T = 50: phi = omega T / 2 =
    # 7.5e-9, and the factored filter sinc(phi) u_i conj(u_j) of the pair
    # is not 1, while sinc is exactly 1 at phi == 0
    vals = np.array([0.5 + 3e-10, 0.5])
    op = SojournOperator(spin_space(), (0.0, 50.0), (), vals, np.eye(2))
    phi = (vals[0] - vals[1]) * 25.0 / HBAR
    assert phi == pytest.approx(7.5e-9, rel=1e-6)
    assert _window_sinc(np.array([0.0]))[0] == 1.0
    u = op.midpoint_phases
    f = _window_sinc(np.array([phi]))[0] * u[0] * u[1].conj()
    assert f != 1.0
    # small phi: 1 - i phi to first order
    assert f.imag == pytest.approx(-7.5e-9, rel=1e-6)


def test_sojourn_spectrum_within_window(small):
    _, _, _, _, op = small
    vals = np.linalg.eigvalsh(oracle.dense_sojourn(op))
    duration = WINDOW[1] - WINDOW[0]
    assert vals.min() > -1e-6
    assert vals.max() < duration + 1e-6


def _projector_expectation(op, psi):
    # <psi| T_op |psi> / T, the unconditioned weak value of the time-averaged
    # region projector, with the operator applied in its eigenbasis form
    amps = psi.amplitudes
    return complex(psi.cell_weight * np.vdot(amps, op.apply(amps))) / op.duration


def test_unconditioned_weak_value_is_real(small):
    _, _, _, psi_final, op = small
    value = _projector_expectation(op, psi_final)
    assert abs(value.imag) < 1e-9
    assert 0.0 < value.real < 1.0
    assert dwell_time(op, psi_final) / op.duration == pytest.approx(value.real, abs=1e-14)


def test_weak_value_matches_oracle(small):
    # the eigenbasis apply against the oracle's weak value of dense()
    _, _, _, psi_final, op = small
    ref = oracle.weak_value(oracle.dense_sojourn(op) / op.duration, psi_final.amplitudes, GRID.dx)
    assert _projector_expectation(op, psi_final) == pytest.approx(ref, abs=1e-10)


def test_conditional_reduces_to_unconditioned(small):
    _, _, _, psi_final, op = small
    cond = conditional_dwell_time(op, psi_final, psi_final)
    assert cond.value == pytest.approx(dwell_time(op, psi_final), abs=1e-10)


def test_conditional_matches_oracle_on_cells(small):
    _, _, _, psi_final, op = small
    idx = int(np.argmax(np.abs(psi_final.amplitudes)))
    cell = basis_cell_state(GRID, idx, time=WINDOW[1])
    res = conditional_dwell_time(op, psi_final, cell)
    ref = oracle.conditional_weak_value(
        oracle.dense_sojourn(op), psi_final.amplitudes, cell.amplitudes, GRID.dx
    )
    assert res.value == pytest.approx(ref, abs=1e-10)


def test_dwell_time_in_range_and_matches_oracle(small):
    _, _, _, psi_final, op = small
    tau = dwell_time(op, psi_final)
    duration = WINDOW[1] - WINDOW[0]
    assert 0.0 <= tau <= duration
    ref = oracle.weak_value(oracle.dense_sojourn(op), psi_final.amplitudes, GRID.dx).real
    assert tau == pytest.approx(ref, abs=1e-10)


def test_dwell_time_is_unclipped():
    # a whole-box region makes T_op = T up to rounding; on the free box the
    # dwell time of these states lands a few ulps above T, and dwell_time
    # returns that value as it is, not snapped onto T
    ham = Hamiltonian(SPACE)
    whole = Region(GRID.x_min - 1.0, GRID.x_max + 1.0)
    op = sojourn_matrix(whole, ham, WINDOW)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=GRID.n_points) + 1j * rng.normal(size=GRID.n_points)
        psi = QuantumState(SPACE, amps, WINDOW[1]).normalized()
        tau = dwell_time(op, psi)
        amps = psi.amplitudes
        raw = complex(psi.cell_weight * np.vdot(amps, op._average(amps, 1)))
        assert tau == op.duration * raw.real
        assert tau == pytest.approx(op.duration, abs=1e-12)


def test_average_is_read_only_and_kept_for_the_last_state(small):
    _, _, _, psi_final, op = small
    second = op._average(psi_final.amplitudes, 2)
    with pytest.raises(ValueError, match="read-only"):
        second[0] = 0.0
    assert op._average(psi_final.amplitudes, 2) is second


def test_writable_amplitudes_are_never_read_from_the_memo(small):
    ham, _, _, psi_final, op = small
    amps = np.array(psi_final.amplitudes)
    before = op.apply(amps)
    amps[3] += 1.0
    after = op.apply(amps)
    assert not np.array_equal(before, after)
    assert np.array_equal(after, sojourn_matrix(REGION, ham, WINDOW).apply(amps))


def test_readouts_on_alternating_states_match_fresh_operators(small):
    # one operator read on two states in turn gives, bit for bit, what a
    # fresh operator gives on each
    ham, _, _, psi_final, op = small
    chi = psi_final.normalized()
    tilted = np.exp(0.3j * GRID.points) * psi_final.amplitudes
    states = [psi_final, QuantumState(SPACE, tilted, WINDOW[1]).normalized()]

    def readouts(o, psi):
        return (dwell_time(o, psi), conditional_dwell_time(o, psi, chi).value,
                moment(o, psi, chi, 2), moment(o, psi, chi, 3),
                second_moment_position_integral(o, psi))

    for psi in states + states:
        assert readouts(op, psi) == readouts(sojourn_matrix(REGION, ham, WINDOW), psi)


def test_dwell_time_well_half_by_symmetry(well_ctx):
    tau = dwell_time(well_ctx.op, well_ctx.psi_final)
    duration = well_ctx.scenario.duration()
    assert tau == pytest.approx(0.5 * duration, abs=1e-8)


def test_readout_requires_window_end_reference(small):
    _, _, psi0, _, op = small
    with pytest.raises(ParameterError):
        dwell_time(op, psi0)


def test_degenerate_postselection_raises(small):
    _, _, _, psi_final, op = small
    # orthogonal complement of psi within a two-cell subspace
    amps = np.zeros(GRID.n_points, dtype=complex)
    a, b = psi_final.amplitudes[3], psi_final.amplitudes[4]
    amps[3], amps[4] = -np.conj(b), np.conj(a)
    perp = QuantumState(SPACE, amps, WINDOW[1])
    # make it orthogonal to psi_final globally by projecting out
    ov = inner_product(psi_final, perp) / inner_product(psi_final, psi_final)
    perp = QuantumState(SPACE, perp.amplitudes - ov * psi_final.amplitudes, WINDOW[1])
    with pytest.raises(DegeneratePostselectionError):
        conditional_dwell_time(op, psi_final, perp)


def test_moments_match_oracle_through_order_four(small):
    _, _, _, psi_final, op = small
    idx = int(np.argmax(np.abs(psi_final.amplitudes)))
    cell = basis_cell_state(GRID, idx, time=WINDOW[1])
    for order in (1, 2, 3, 4):
        ours = moment(op, psi_final, cell, order)
        ref = oracle.conditional_moment(
            oracle.dense_sojourn(op), psi_final.amplitudes, cell.amplitudes, order, GRID.dx
        )
        assert ours == pytest.approx(ref, abs=1e-9)


def test_moment_order_one_is_conditional_dwell(small):
    _, _, _, psi_final, op = small
    idx = int(np.argmax(np.abs(psi_final.amplitudes)))
    cell = basis_cell_state(GRID, idx, time=WINDOW[1])
    m1 = moment(op, psi_final, cell, 1)
    cd = conditional_dwell_time(op, psi_final, cell)
    assert m1 == pytest.approx(cd.value.real, abs=1e-12)


def test_moment_rejects_bad_orders(small):
    # 2.5 used to raise TypeError from a list index
    _, _, _, psi_final, op = small
    for order in (0, 5, 2.5, 2.0, "2"):
        with pytest.raises(ParameterError, match="integer in 1..4"):
            moment(op, psi_final, psi_final, order)


def test_cell_family_sum_rule_is_exact(small):
    _, _, _, psi_final, op = small
    family = [
        basis_cell_state(GRID, j, time=WINDOW[1]) for j in range(GRID.n_points)
    ]
    for order in (1, 2):
        lhs = moment_sum(op, psi_final, family, order)
        rhs = moment(op, psi_final, psi_final, order)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_cell_family_sum_rule_refuses_states_off_the_window_end(small):
    # the sum rule has no overlap guard, so it checks every state's instant
    # itself: a packet or a cell at t = 0 is refused, never summed
    _, _, _, psi_final, op = small
    family = [basis_cell_state(GRID, j, time=WINDOW[1]) for j in range(GRID.n_points)]
    with pytest.raises(ParameterError, match="window end"):
        moment_sum(op, psi_final.at_time(0.0), family, 1)
    family[3] = basis_cell_state(GRID, 3, time=0.0)
    with pytest.raises(ParameterError, match="window end"):
        moment_sum(op, psi_final, family, 1)


def test_second_moment_position_integral_equals_operator_route(small):
    _, _, _, psi_final, op = small
    via_cells = second_moment_position_integral(op, psi_final)
    via_operator = moment(op, psi_final, psi_final, 2)
    assert via_cells == pytest.approx(via_operator, abs=1e-10)
    ref = oracle.second_moment_cells(oracle.dense_sojourn(op), psi_final.amplitudes, GRID.dx)
    assert via_cells == pytest.approx(ref, abs=1e-10)


def test_unconditioned_variance_nonnegative(small):
    _, _, _, psi_final, op = small
    m1 = moment(op, psi_final, psi_final, 1)
    m2 = moment(op, psi_final, psi_final, 2)
    assert m2 - m1**2 > -1e-12


def test_cell_second_moment_two_forms_differ_in_general(barrier_ctx):
    psi_final = barrier_ctx.psi_final
    grid = barrier_ctx.scenario.grid
    idx = int(np.argmax(np.abs(psi_final.amplitudes)))
    both = oracle.second_moment_position_postselected(barrier_ctx.op, psi_final, idx)
    rel = abs(both.operator_form - both.symmetrized_form) / abs(both.symmetrized_form)
    assert rel > 1e-3


def test_anomalous_flag_on_blown_up_value(barrier_ctx):
    psi_final = barrier_ctx.psi_final
    grid = barrier_ctx.scenario.grid
    # a far-tail cell with a tiny but nonzero overlap gives a huge ratio
    weights = np.abs(psi_final.amplitudes)
    candidates = np.nonzero(weights > 1e-6 * weights.max())[0]
    idx = int(candidates[0])
    cell = basis_cell_state(grid, idx, time=barrier_ctx.scenario.window[1])
    res = conditional_dwell_time(barrier_ctx.op, psi_final, cell)
    # the flag must reflect the magnitude, whichever way it comes out
    expected = abs(res.value) > 10.0 * barrier_ctx.op.duration
    assert res.anomalous == expected


@pytest.mark.parametrize("target", [5.0, 18.3])
def test_anomaly_flags_agree_on_one_postselector(barrier_ctx, target):
    # chi = v/|v| + s psi with v = M psi - <M> psi orthogonal to psi has the
    # projector weak value <M> + |v|/s, so conditional_dwell_time reads T
    # times it and flags it exactly when that weak value is beyond
    # ANOMALY_FACTOR
    op, psi = barrier_ctx.op, barrier_ctx.psi_final
    amps = psi.amplitudes / psi.norm()
    m_psi = op.apply(amps) / op.duration
    mean = float(np.real(psi.cell_weight * np.vdot(amps, m_psi)))
    v = QuantumState(psi.space, m_psi - mean * amps, psi.representation_time)
    s = v.norm() / (target - mean)
    chi = QuantumState(psi.space, v.amplitudes / v.norm() + s * amps,
                       psi.representation_time)
    time = conditional_dwell_time(op, psi, chi)
    assert time.value.real == pytest.approx(target * op.duration, rel=1e-9)
    assert time.anomalous == (target > ANOMALY_FACTOR)
