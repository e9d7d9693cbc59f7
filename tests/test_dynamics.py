import mpmath
import numpy as np
import pytest

import oracle
from weaktime import dynamics
from weaktime.dynamics import (
    Hamiltonian,
    Propagator,
    evolve,
    evolve_eigenbasis,
    evolve_shifted,
)
from weaktime.errors import NumericalError, ParameterError, StructureError
from weaktime.hilbert import (
    Grid,
    Region,
    gaussian_packet,
    position_space,
    spin_space,
)
from weaktime.clocks import clock_shifts
from weaktime.scenarios import CLOCK_LADDERS, catalog

GRID = Grid(48, 0.0, 40.0)
SPACE = position_space(GRID)


def _packet():
    return gaussian_packet(GRID, 20.0, 3.0, 0.4)


def test_kinetic_matrix_matches_reference_stencil():
    ham = Hamiltonian(SPACE)
    np.testing.assert_allclose(
        ham.dense_matrix(), oracle.kinetic_matrix(GRID.n_points, GRID.dx), atol=1e-14
    )


def test_implicit_step_conserves_norm():
    ham = Hamiltonian(SPACE)
    out = evolve(_packet(), Propagator(0.1, ham), 0.0, 5.0)
    assert abs(out.norm() - 1.0) < 1e-10


def test_implicit_step_second_order_in_dt():
    ham = Hamiltonian(SPACE)
    psi = _packet()
    ref = oracle.evolve_exact(ham.dense_matrix(), psi.amplitudes, 2.0)
    errs = []
    for dt in (0.1, 0.05):
        out = evolve(psi, Propagator(dt, ham), 0.0, 2.0)
        errs.append(np.linalg.norm(out.amplitudes - ref))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_absorbing_potential_decays_norm_monotonically():
    gamma = 0.4 * Region(15.0, 25.0).indicator(GRID)
    ham = Hamiltonian(SPACE, potential_imag=-0.5 * gamma)
    psi = _packet()
    prop = Propagator(0.2, ham)
    norms = [psi.norm()]
    state = psi
    for j in range(10):
        state = evolve(state, prop, j * 0.2, (j + 1) * 0.2)
        norms.append(state.norm())
    diffs = np.diff(norms)
    assert np.all(diffs < 0)


def test_dt_must_divide_interval():
    ham = Hamiltonian(SPACE)
    with pytest.raises(ParameterError):
        evolve(_packet(), Propagator(0.3, ham), 0.0, 1.0)


def test_space_mismatch_rejected():
    other = Hamiltonian(position_space(Grid(12, 0.0, 11.0)))
    with pytest.raises(StructureError):
        evolve(_packet(), Propagator(0.5, other), 0.0, 1.0)


def test_is_hermitian_flags_absorbing_potential():
    assert Hamiltonian(SPACE).is_hermitian()
    gamma = 0.1 * Region(15.0, 25.0).indicator(GRID)
    lossy = Hamiltonian(SPACE, potential_imag=-0.5 * gamma)
    assert not lossy.is_hermitian()
    mat = lossy.dense_matrix()
    assert np.max(np.abs(mat - mat.conj().T)) > 0.0


def test_eigensystem_requires_static_hermitian():
    gamma = 0.1 * Region(15.0, 25.0).indicator(GRID)
    lossy = Hamiltonian(SPACE, potential_imag=-0.5 * gamma)
    with pytest.raises(ParameterError):
        lossy.eigensystem()


def _catalog_or_spin_toy(name):
    if name == "spin_toy":
        return Hamiltonian(spin_space())
    return catalog()[name].hamiltonian()


@pytest.mark.parametrize("name", [*catalog(), "spin_toy"])
def test_eigensystem_is_real_orthonormal_and_rebuilds_static_matrix(name):
    ham = _catalog_or_spin_toy(name)
    vals, vecs = ham.eigensystem()
    assert vals.dtype == np.float64 and vecs.dtype == np.float64
    static = ham.dense_matrix()
    scale = np.linalg.norm(static, 2)
    rebuilt = (vecs * vals) @ vecs.T
    assert np.max(np.abs(rebuilt - static)) <= 1e-12 * scale
    assert np.max(np.abs(vecs.T @ vecs - np.eye(ham.dimension))) <= 1e-12


def test_eigensystem_rejects_two_factor_space():
    # a Hamiltonian acts on one factor, so no eigensystem of a product space
    # can be asked for
    with pytest.raises(StructureError):
        Hamiltonian((position_space(GRID), spin_space()))


def test_evolve_eigenbasis_matches_oracle():
    ham = Hamiltonian(SPACE, potential_real=0.3 * Region(15.0, 25.0).indicator(GRID))
    psi = _packet().at_time(1.0)
    out = evolve_eigenbasis(psi, ham, 5.0)
    ref = oracle.evolve_exact(ham.dense_matrix(), psi.amplitudes, 4.0)
    np.testing.assert_allclose(out.amplitudes, ref, atol=1e-12)
    assert out.representation_time == 5.0


def _shifted_cases():
    rng = np.random.default_rng(7)
    well = Hamiltonian(SPACE, potential_real=0.3 * Region(15.0, 25.0).indicator(GRID))
    region = Region(12.0, 28.0).indicator(GRID)
    packet = _packet().amplitudes
    spin = Hamiltonian(spin_space())
    up_right = np.array([1.0, 1j]) / np.sqrt(2.0)
    return {
        "random_shifts": (well, region, rng.normal(size=6), packet, 3.0),
        "spin_toy": (spin, np.array([1.0, -1.0]), np.array([0.4, -1.3, 0.0]),
                     up_right, 2.5),
        "single_column": (well, region, np.array([0.7]), packet, 1.5),
        "zero_shifts": (well, region, np.zeros(3), packet, 2.0),
        "spin_radius_zero": (spin, np.array([1.0, -1.0]), np.zeros(2), up_right, 4.0),
        "large_rt": (well, region, np.array([-0.5, 0.0, 0.5]), packet, 120.0),
    }


@pytest.mark.parametrize("case", list(_shifted_cases()))
def test_evolve_shifted_matches_oracle(case):
    ham, a, shifts, v, t = _shifted_cases()[case]
    block, terms = evolve_shifted(ham, a, shifts, v, t)
    assert block.shape == (v.size, shifts.size)
    for j, s in enumerate(shifts):
        ref = oracle.evolve_exact(ham.dense_matrix() + s * np.diag(a), v, t)
        np.testing.assert_allclose(block[:, j], ref, rtol=0, atol=1e-12)
    if case == "large_rt":
        assert terms > 300
    if case == "spin_radius_zero":
        assert terms == 1


def _clock_block(name, gamma_scale):
    """A catalog scenario's clock keys, the absorbers scaled by gamma_scale."""
    sc = catalog()[name]
    t = sc.duration()
    ladders = {k: tuple(c / t for c in v) for k, v in CLOCK_LADDERS.items()}
    ladders["imaginary_potential"] = tuple(
        gamma_scale * g for g in ladders["imaginary_potential"])
    return sc, np.array(clock_shifts(**ladders))


@pytest.mark.parametrize("gamma_scale", [1.0, 10.0])
@pytest.mark.parametrize("name", ["well_halves", "free_box"])
def test_evolve_shifted_complex_columns_match_oracle(name, gamma_scale):
    # the clocks' 12-key block; well_halves has the catalog's largest Gamma
    # (0.15 / T at T = 20), free_box an absorber over the whole box
    sc, shifts = _clock_block(name, gamma_scale)
    assert shifts.size == 12 and np.count_nonzero(shifts.imag) == 3
    ham, a = sc.hamiltonian(), sc.region.indicator(sc.grid)
    v = sc.initial_state().amplitudes
    block, _ = evolve_shifted(ham, a, shifts, v, sc.duration())
    lossy = np.nonzero(shifts.imag)[0]
    # the dense exponential costs 0.2 s at N=256: check the strongest there
    checked = lossy if sc.grid.n_points <= 128 else lossy[:1]
    for j in checked:
        ref = oracle.evolve_exact(ham.dense_matrix() + shifts[j] * np.diag(a), v,
                                  sc.duration())
        assert np.linalg.norm(block[:, j] - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("name", list(catalog()))
def test_evolve_shifted_absorbing_norms_fall_with_gamma(name):
    # the catalog ladder and ten times it, strongest last: each stronger
    # absorber leaves less of the packet
    sc = catalog()[name]
    gammas = 0.15 / sc.duration() * np.array([0.0, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0])
    block, _ = evolve_shifted(sc.hamiltonian(), sc.region.indicator(sc.grid),
                              -0.5j * gammas, sc.initial_state().amplitudes,
                              sc.duration())
    assert np.all(np.diff(np.linalg.norm(block, axis=0)) < 0)


def test_evolve_shifted_splits_the_span_for_strong_absorbers():
    # Gamma T = 12 and 48 would let rounding grow past the bound in one
    # span; the halved spans stay exact
    ham = Hamiltonian(SPACE)
    a = Region(12.0, 28.0).indicator(GRID)
    v = _packet().amplitudes
    shifts = -0.5j * np.array([2.0, 8.0])
    block, terms = evolve_shifted(ham, a, shifts, v, 6.0)
    _, one_span = evolve_shifted(ham, a, np.zeros(1), v, 6.0)
    assert terms > 2 * one_span
    for j, u in enumerate(shifts):
        ref = oracle.evolve_exact(ham.dense_matrix() + u * np.diag(a), v, 6.0)
        assert np.linalg.norm(block[:, j] - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("g, t", [(0.3, 4.0), (1.0, 2.0), (1.0, 6.0)])
def test_evolve_shifted_cut_covers_the_imaginary_extent(g, t):
    # on the spin toy, H + s diag(1, -1) with s = -i g has eigenvalues -+i g
    # on the bounding ellipse itself, where |T_n| reaches rho^n: a cut that
    # ignored rho^n would leave up to 6e-12 here
    ham = Hamiltonian(spin_space())
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    block, _ = evolve_shifted(ham, np.array([1.0, -1.0]), np.array([-1j * g]), v, t)
    exact = np.exp(np.array([-g * t, g * t])) * v
    np.testing.assert_allclose(block[:, 0], exact, rtol=2e-14, atol=0)


def test_evolve_shifted_real_path_ignores_zero_imaginary_parts():
    # complex keys with no imaginary part run the meter's real arithmetic
    ham = Hamiltonian(SPACE)
    a = Region(12.0, 28.0).indicator(GRID)
    shifts = np.array([0.0, 0.3, -0.2])
    real, terms = evolve_shifted(ham, a, shifts, _packet().amplitudes, 3.0)
    cplx, terms_c = evolve_shifted(ham, a, shifts + 0j, _packet().amplitudes, 3.0)
    np.testing.assert_array_equal(real, cplx)
    assert terms == terms_c


def test_evolve_shifted_refuses_an_absorber_it_cannot_resolve():
    # an absorber this strong needs so many short spans that the work bound
    # is passed: refused, never truncated
    ham = Hamiltonian(SPACE)
    with pytest.raises(NumericalError, match="weaken the absorber"):
        evolve_shifted(ham, np.ones(GRID.n_points), np.array([-1000j]),
                       _packet().amplitudes, 10.0)


def test_evolve_shifted_refuses_a_series_it_cannot_resolve():
    # r t ~ 1e8 would take ~1e8 terms, and a negative span has no forward
    # series: both refused before any work, never truncated or ignored
    ham = Hamiltonian(SPACE)
    for duration in (1e8, -1.0):
        with pytest.raises(NumericalError):
            evolve_shifted(ham, np.ones(GRID.n_points), np.zeros(1),
                           _packet().amplitudes, duration)


def _bessel_reference(x: float, count: int) -> np.ndarray:
    """J_n(x) for n < count at 50 digits: mpmath.besselj at the two highest
    orders, carried down by the exact three-term recurrence, in which J
    grows and so stays accurate."""
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        j = [mpmath.mpf(0)] * count
        j[-1] = mpmath.besselj(count - 1, x)
        j[-2] = mpmath.besselj(count - 2, x)
        for n in range(count - 2, 0, -1):
            j[n - 1] = 2 * n / x * j[n] - j[n + 1]
        return np.array([float(v) for v in j])


@pytest.mark.parametrize("x", [0.0, 0.3, 5.0, 120.0, 520.0, 2000.0])
def test_bessel_coefficients_match_mpmath(x):
    # the Chebyshev weights J_n(x) and the cut: the first n >= x with
    # |J_n(x)| <= 1e-15
    coeffs = dynamics._bessel_coefficients(x)
    if x == 0.0:
        np.testing.assert_array_equal(coeffs, [1.0])
        return
    ref = _bessel_reference(x, coeffs.size + 8)
    start = int(np.ceil(x))
    cut = start + int(np.nonzero(np.abs(ref[start:]) <= 1e-15)[0][0])
    assert coeffs.size == cut
    np.testing.assert_allclose(coeffs, ref[:cut], rtol=0, atol=1e-15)
    # the recurrence carried the reference down correctly
    with mpmath.workdps(50):
        direct = [float(mpmath.besselj(n, x)) for n in (0, start)]
    np.testing.assert_allclose(ref[[0, start]], direct, rtol=1e-14, atol=0)


def test_bessel_coefficients_refuse_a_series_without_a_cut(monkeypatch):
    # a cut no coefficient can meet is an error, never a silent truncation
    monkeypatch.setattr(dynamics, "_CHEBYSHEV_TOL", -1.0)
    with pytest.raises(NumericalError, match="no Bessel cut"):
        dynamics._bessel_coefficients(5.0)


@pytest.mark.parametrize("name", [*catalog(), "spin_toy"])
def test_tridiagonal_rebuilds_static_matrix(name):
    ham = _catalog_or_spin_toy(name)
    diag, off = ham.tridiagonal()
    assert diag.dtype == np.float64 and off.dtype == np.float64
    rebuilt = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    np.testing.assert_array_equal(rebuilt, ham.dense_matrix())


def test_tridiagonal_rejects_other_structures():
    gamma = 0.1 * Region(15.0, 25.0).indicator(GRID)
    with pytest.raises(StructureError):
        Hamiltonian(SPACE, potential_imag=-0.5 * gamma).tridiagonal()
    with pytest.raises(StructureError):
        Hamiltonian((position_space(GRID), spin_space()))
