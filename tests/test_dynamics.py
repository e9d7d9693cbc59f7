import mpmath
import numpy as np
import pytest

import oracle
from weaktime import dynamics
from weaktime.dynamics import CoupledSystem, Hamiltonian, evolve_eigenbasis, evolve_shifted
from weaktime.errors import NumericalError, ParameterError, StructureError
from weaktime.hilbert import (
    HBAR,
    Grid,
    QuantumState,
    Region,
    gaussian_packet,
    position_space,
    spin_space,
)
from weaktime.clocks import clock_shifts
from weaktime.meter import coupling_shifts
from weaktime.scenarios import CLOCK_LADDERS, METER_LADDER, METER_POINTER, catalog, run_scenario

GRID = Grid(48, 0.0, 40.0)
SPACE = position_space(GRID)


def _packet():
    return gaussian_packet(GRID, 20.0, 3.0, 0.4)


def test_kinetic_matrix_matches_reference_stencil():
    diag, off = Hamiltonian(SPACE).tridiagonal()
    np.testing.assert_allclose(
        np.diag(diag) + np.diag(off, 1) + np.diag(off, -1),
        oracle.kinetic_matrix(GRID.n_points, GRID.dx), atol=1e-14
    )


def test_absorbing_potential_decays_norm_monotonically():
    # an absorber is a complex shift -i Gamma/2 on its region, read off a
    # coupled system's real nodes: the norm left after each successive
    # duration is below the one before
    region = Region(15.0, 25.0).indicator(GRID)
    psi = _packet()
    norms = [psi.norm()]
    for j in range(1, 11):
        coupled = CoupledSystem(Hamiltonian(SPACE), psi, region, (0.0, 0.2 * j))
        block = oracle.columns(coupled, [-0.5j * 0.4])
        norms.append(np.sqrt(GRID.dx) * np.linalg.norm(block[:, 0]))
    diffs = np.diff(norms)
    assert np.all(diffs < 0)


def _catalog_or_spin_toy(name):
    if name == "spin_toy":
        return Hamiltonian(spin_space())
    return catalog()[name].hamiltonian()


@pytest.mark.parametrize("name", [*catalog(), "spin_toy"])
def test_eigensystem_is_real_orthonormal_and_rebuilds_static_matrix(name):
    ham = _catalog_or_spin_toy(name)
    vals, vecs = ham.eigensystem()
    assert vals.dtype == np.float64 and vecs.dtype == np.float64
    static = oracle.dense_hamiltonian(ham)
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
    ref = oracle.evolve_exact(oracle.dense_hamiltonian(ham), psi.amplitudes, 4.0)
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
        # the diagonal rows [lo, hi) of the centred series: a region far from
        # the well (a wide slice over rows with no diagonal), an observable of
        # both signs, none at all (an empty slice), and the whole box
        "far_region": (well, Region(2.0, 6.0).indicator(GRID), np.array([-0.8, 0.4]),
                       packet, 3.0),
        "signed_observable": (well, region - 2.0 * Region(20.0, 28.0).indicator(GRID),
                              np.array([-0.6, 0.3, 0.9]), packet, 3.0),
        "free_zero_observable": (Hamiltonian(SPACE), np.zeros(GRID.n_points),
                                 np.array([0.0, 0.5]), packet, 3.0),
        "whole_box": (well, np.ones(GRID.n_points), np.array([-0.7, 0.2]), packet, 3.0),
    }


@pytest.mark.parametrize("case", list(_shifted_cases()))
def test_evolve_shifted_matches_oracle(case):
    ham, a, shifts, v, t = _shifted_cases()[case]
    block, terms = evolve_shifted(ham, a, shifts, v, t)
    assert block.shape == (v.size, shifts.size)
    for j, s in enumerate(shifts):
        ref = oracle.evolve_exact(oracle.dense_hamiltonian(ham) + s * np.diag(a), v, t)
        np.testing.assert_allclose(block[:, j], ref, rtol=0, atol=1e-12)
    if case == "large_rt":
        assert terms > 300
    if case == "spin_radius_zero":
        assert terms == 1


def _clock_keys(name, gamma_scale):
    """A catalog scenario, its coupled system and its clock keys at the
    catalog ladders, the absorbers scaled by gamma_scale."""
    sc = catalog()[name]
    t = sc.duration()
    ladders = {k: tuple(c / t for c in v) for k, v in CLOCK_LADDERS.items()}
    ladders["imaginary_potential"] = tuple(
        gamma_scale * g for g in ladders["imaginary_potential"])
    coupled = CoupledSystem(sc.hamiltonian(), sc.initial_state(),
                            sc.region.indicator(sc.grid), sc.window)
    return sc, coupled, clock_shifts(**ladders)


@pytest.mark.parametrize("gamma_scale", [1.0, 10.0])
@pytest.mark.parametrize("name", ["well_halves", "free_box"])
def test_clock_runs_complex_keys_match_oracle(name, gamma_scale):
    # the clocks' absorbing keys off the node interpolant, at the catalog
    # ladder and at ten times its absorbers (past the clocks'
    # absorbed-fraction guard, which the coupled system does not apply);
    # well_halves has the catalog's largest Gamma (0.15 / T at T = 20),
    # free_box an absorber over the whole box
    sc, coupled, keys = _clock_keys(name, gamma_scale)
    shifts = np.array(keys)
    assert shifts.size == 12 and np.count_nonzero(shifts.imag) == 3
    block = oracle.columns(coupled, keys)
    h = oracle.dense_hamiltonian(sc.hamiltonian())
    a, v = sc.region.indicator(sc.grid), sc.initial_state().amplitudes
    lossy = np.nonzero(shifts.imag)[0]
    # the dense exponential costs 0.2 s at N=256: check the strongest there
    for j in (lossy if sc.grid.n_points <= 128 else lossy[:1]):
        ref = oracle.evolve_exact(h + shifts[j] * np.diag(a), v, sc.duration())
        np.testing.assert_allclose(block[:, j], ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", list(catalog()))
def test_coupled_system_absorbing_norms_fall_with_gamma(name):
    # the catalog ladder and ten times it, strongest last: each stronger
    # absorber leaves less of the packet
    sc, coupled, _ = _clock_keys(name, 1.0)
    gammas = 0.15 / sc.duration() * np.array([0.0, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0])
    block = oracle.columns(coupled, -0.5j * gammas)
    assert np.all(np.diff(np.linalg.norm(block, axis=0)) < 0)


def test_coupled_system_serves_only_the_ellipse_it_was_fitted_on(monkeypatch):
    # fitted on the Larmor keys +-0.6 / T of well_halves, on the real
    # interval (rho = 1), 12 nodes serve every real key up to 0.6 / T with
    # no block and keep the fit's bound; an absorber lies off that interval
    # and refits once, to its own ellipse, which then serves a weaker one
    sc = catalog()["well_halves"]
    t = sc.duration()
    coupled = CoupledSystem(sc.hamiltonian(), sc.initial_state(),
                            sc.region.indicator(sc.grid), sc.window)
    coupled.serve([0.6 / t, -0.6 / t])
    fitted = coupled.node_tail
    blocks = []
    evolve_shifted = dynamics.evolve_shifted
    monkeypatch.setattr(dynamics, "evolve_shifted",
                        lambda *args: blocks.append(args) or evolve_shifted(*args))
    coupled.read([0.3 / t, -0.6 / t, 0.6 / t])
    assert blocks == [] and coupled.nodes == 12 and coupled.node_tail == fitted
    coupled.read([-0.5j * 0.01 / t])
    absorbing = coupled.node_tail
    coupled.read([-0.5j * 0.005 / t])
    assert len(blocks) == 1 and coupled.node_tail == absorbing <= 1e-13
    coupled.read([0.3 / t])
    assert len(blocks) == 2


def test_bernstein_is_exactly_one_on_the_node_interval():
    # a real shift in [-S, S] lies on the degenerate ellipse rho = 1, with
    # no rounding above it: a fit on the meter's +G ladder serves each of its
    # runs, where 1 + 2.2e-16 at G = 0.2 and 0.1 would refit
    t = catalog()["well_halves"].duration()
    top = np.max(np.abs(coupling_shifts(METER_POINTER, max(METER_LADDER), t)))
    for g in METER_LADDER:
        assert dynamics._bernstein(coupling_shifts(METER_POINTER, g, t) / top) == 1.0
    assert dynamics._bernstein(np.linspace(-1.0, 1.0, 4001)) == 1.0
    assert dynamics._bernstein(np.array([1.0 + 1e-12])) > 1.0
    assert dynamics._bernstein(np.array([0.5 + 1e-9j])) > 1.0


@pytest.mark.parametrize("name", ["well_halves", "barrier_dwell"])
def test_a_covered_scenario_bounds_its_tail_once(name, monkeypatch):
    # the scenario's one fit sizes its block by one tail bound; the clock
    # and meter readouts behind it test containment and interpolate
    calls, blocks = [], []
    node_tail, evolve_shifted = dynamics._node_tail, dynamics.evolve_shifted
    monkeypatch.setattr(dynamics, "_node_tail",
                        lambda *args: calls.append(args) or node_tail(*args))
    monkeypatch.setattr(dynamics, "evolve_shifted",
                        lambda *args: blocks.append(args) or evolve_shifted(*args))
    run_scenario(catalog()[name], pipelines=("clocks", "meter"))
    assert len(calls) == len(blocks) == 1


@pytest.mark.parametrize("g, t", [(0.3, 4.0), (1.0, 2.0)])
def test_coupled_system_continues_to_the_imaginary_extent(g, t):
    # on the spin toy, H + s diag(1, -1) with s = -i g has eigenvalues -+i g,
    # so the growing column meets the bound's exp(T |Im s| max|a|) itself
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    coupled = CoupledSystem(Hamiltonian(spin_space()), QuantumState(spin_space(), v),
                            np.array([1.0, -1.0]), (0.0, t))
    block = oracle.columns(coupled, [-1j * g])
    assert coupled.node_tail <= 1e-13
    exact = np.exp(np.array([-g * t, g * t])) * v
    np.testing.assert_allclose(block[:, 0], exact, rtol=0, atol=1e-12)


def test_evolve_shifted_real_path_ignores_zero_imaginary_parts():
    # complex keys with no imaginary part are real shifts: the same block
    ham = Hamiltonian(SPACE)
    a = Region(12.0, 28.0).indicator(GRID)
    shifts = np.array([0.0, 0.3, -0.2])
    real, terms = evolve_shifted(ham, a, shifts, _packet().amplitudes, 3.0)
    cplx, terms_c = evolve_shifted(ham, a, shifts + 0j, _packet().amplitudes, 3.0)
    np.testing.assert_array_equal(real, cplx)
    assert terms == terms_c


def _argument_for_terms(k):
    """An r t in the middle of the range where the Bessel series has
    exactly k terms, bisected on the cut's size."""
    def first(m):
        lo, hi = 0.0, float(m)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if dynamics._bessel_coefficients(mid).size < m else (lo, mid)
        return hi
    x = 0.5 * (first(k) + first(k + 1))
    assert dynamics._bessel_coefficients(x).size == k
    return x


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 9, 15, 16, 17, 23, 24, 25])
def test_evolve_shifted_ring_edges_match_oracle(k):
    # the loop's edges: 1 term takes no step, 2 only the halved first one, 3
    # the first in-place one; the longer series end on an odd or an even
    # term, which the two buffers alternate between.  The radius is the
    # centred interval's: 2 |hop| plus the largest |diag - 2 |hop| + s a|
    ham = Hamiltonian(SPACE, potential_real=0.3 * Region(15.0, 25.0).indicator(GRID))
    a, v = Region(12.0, 28.0).indicator(GRID), _packet().amplitudes
    shifts = np.array([-0.5, 0.0, 0.5])
    diag, off = ham.tridiagonal()
    hop = abs(off[0])
    radius = 2.0 * hop + np.max(np.abs(diag[:, None] + a[:, None] * shifts - 2.0 * hop))
    duration = HBAR * _argument_for_terms(k) / radius
    block, terms = evolve_shifted(ham, a, shifts, v, duration)
    assert terms == k
    for j, s in enumerate(shifts):
        ref = oracle.evolve_exact(oracle.dense_hamiltonian(ham) + s * np.diag(a), v, duration)
        np.testing.assert_allclose(block[:, j], ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name, nodes, terms", [
    ("free_box", 12, 209), ("well_halves", 12, 151), ("barrier_dwell", 12, 639),
    ("barrier_farside", 12, 638)])
def test_catalog_clock_block_term_counts(name, nodes, terms, monkeypatch):
    # the node block behind each catalog scenario's clocks, pinned, and
    # reported by the coupled system: T S = 0.6 and |Im u| / S = 0.125 on
    # every scenario ask for 12 nodes
    blocks = []
    evolve_shifted = dynamics.evolve_shifted
    monkeypatch.setattr(dynamics, "evolve_shifted",
                        lambda *args: blocks.append(evolve_shifted(*args)) or blocks[-1])
    _, coupled, keys = _clock_keys(name, 1.0)
    coupled.serve(keys)
    [(block, used)] = blocks
    assert (block.shape[1], used) == (nodes, terms)
    assert (coupled.nodes, coupled.chebyshev_terms) == (nodes, terms)


@pytest.mark.parametrize("shifts", [np.array([0.0, -0.05j]), np.array([0.3, -0.5j * 0.4])])
def test_evolve_shifted_refuses_a_complex_shift(shifts):
    # an imaginary part is an absorber, read off a CoupledSystem's real
    # nodes, never evolved here: refused before any work, also where the
    # absorber would reach no row
    with pytest.raises(ParameterError, match="real shifts only"):
        evolve_shifted(Hamiltonian(SPACE), np.zeros(GRID.n_points), shifts,
                       _packet().amplitudes, 3.0)


def test_evolve_shifted_refuses_an_absorber_it_cannot_resolve():
    # an absorber this strong, as any other, is refused: the block is real
    ham = Hamiltonian(SPACE)
    with pytest.raises(ParameterError, match="real shifts only"):
        evolve_shifted(ham, np.ones(GRID.n_points), np.array([-1000j]),
                       _packet().amplitudes, 10.0)


def test_evolve_shifted_with_no_shifts_is_an_empty_block():
    block, terms = evolve_shifted(Hamiltonian(SPACE), np.ones(GRID.n_points), np.array([]),
                                  _packet().amplitudes, 3.0)
    assert block.shape == (GRID.n_points, 0) and block.dtype == complex and terms == 0


def test_evolve_shifted_refuses_a_series_it_cannot_resolve():
    # r t ~ 1e8 would take ~1e8 terms: refused before any work, never
    # truncated
    with pytest.raises(NumericalError, match="split a long evolution"):
        evolve_shifted(Hamiltonian(SPACE), np.ones(GRID.n_points), np.zeros(1),
                       _packet().amplitudes, 1e8)


@pytest.mark.parametrize("shifts", [np.zeros(1), np.array([0.1, -0.05j])])
def test_evolve_shifted_refuses_a_negative_duration(shifts, monkeypatch):
    # a backward span has no forward series: an argument error naming the
    # duration, raised before any Bessel coefficient is computed
    calls = []
    monkeypatch.setattr(dynamics, "_bessel_coefficients",
                        lambda *args: calls.append(args))
    with pytest.raises(ParameterError, match=r"duration >= 0, got -1\.0"):
        evolve_shifted(Hamiltonian(SPACE), np.ones(GRID.n_points), shifts,
                       _packet().amplitudes, -1.0)
    assert calls == []


@pytest.mark.parametrize("case", ["vector", "block", "strided", "fortran", "real", "empty"])
def test_apply_real_matches_the_split_parts(case):
    # one real product on the interleaved parts of z: the product with the
    # real and imaginary parts taken apart, up to rounding, whatever z's
    # layout or dtype, and z itself untouched
    rng = np.random.default_rng(6)
    matrix = rng.standard_normal((40, 30))
    block = rng.standard_normal((60, 4)) + 1j * rng.standard_normal((60, 4))
    z = {
        "vector": block[:30, 0].copy(),
        "block": block[:30].copy(),
        "strided": block[::2, 1],
        "fortran": np.asfortranarray(block[:30]),
        "real": block[:30].real.copy(),
        "empty": block[:30, :0],
    }[case]
    before = z.copy()
    got = dynamics.apply_real(matrix, z)
    ref = matrix @ z.real + 1j * (matrix @ np.imag(z))
    assert got.dtype == complex and got.shape == ref.shape
    bound = 1e-15 * np.linalg.norm(matrix) * np.linalg.norm(z)
    assert np.linalg.norm(got - ref) <= bound
    assert np.array_equal(z, before)


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
    # (nor a cached series)
    dynamics._bessel_coefficients.cache_clear()
    monkeypatch.setattr(dynamics, "_CHEBYSHEV_TOL", -1.0)
    with pytest.raises(NumericalError, match="no Bessel cut"):
        dynamics._bessel_coefficients(5.0)


@pytest.mark.parametrize("name", [*catalog(), "spin_toy"])
def test_tridiagonal_rebuilds_static_matrix(name):
    ham = _catalog_or_spin_toy(name)
    diag, off = ham.tridiagonal()
    assert diag.dtype == np.float64 and off.dtype == np.float64
    rebuilt = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    np.testing.assert_array_equal(rebuilt, oracle.dense_hamiltonian(ham))


def test_tridiagonal_rejects_other_structures():
    with pytest.raises(StructureError):
        Hamiltonian((position_space(GRID), spin_space()))
    # a potential is one real value per grid point, and a spin has no grid
    for space, potential in ((SPACE, np.zeros(GRID.n_points - 1)),
                             (spin_space(), np.zeros(2))):
        with pytest.raises(StructureError, match="does not match the position grid"):
            Hamiltonian(space, potential_real=potential)
