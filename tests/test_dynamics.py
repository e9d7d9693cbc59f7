import numpy as np
import pytest

import oracle
from weaktime.dynamics import (
    CouplingProfile,
    Hamiltonian,
    InteractionTerm,
    Propagator,
    SpinCoupling,
    assemble,
    evolve,
    evolve_eigenbasis,
    evolve_free,
    heisenberg_conjugate,
    propagate_matrix,
)
from weaktime.errors import ParameterError, StructureError
from weaktime.hilbert import (
    Grid,
    QuantumState,
    Region,
    gaussian_packet,
    position_space,
    projector,
    spin_space,
)
from weaktime.scenarios import catalog

GRID = Grid(48, 0.0, 40.0)
SPACE = (position_space(GRID),)


def _packet():
    return gaussian_packet(GRID, 20.0, 3.0, 0.4)


def test_profile_rectangular_area_one():
    prof = CouplingProfile.rectangular(1.0, 3.0)
    assert prof.value(1.0) == pytest.approx(0.5)
    assert prof.value(2.9) == pytest.approx(0.5)
    assert prof.value(3.0) == 0.0
    assert prof.value(0.5) == 0.0


def test_profile_impulsive_ends_at_hit():
    prof = CouplingProfile.impulsive(2.0, 0.1)
    assert prof.t_stop == pytest.approx(2.0)
    assert prof.duration == pytest.approx(0.1)


def test_kinetic_matrix_matches_reference_stencil():
    ham = Hamiltonian(SPACE)
    np.testing.assert_allclose(
        ham.matrix_at(0.0), oracle.kinetic_matrix(GRID.n_points, GRID.dx), atol=1e-14
    )


def test_dense_exponential_matches_eigenbasis_evolution():
    ham = Hamiltonian(SPACE)
    psi = _packet()
    out = evolve(psi, Propagator("dense_exponential", 0.5, ham), 0.0, 4.0)
    ref = oracle.evolve_exact(ham.matrix_at(0.0), psi.amplitudes, 4.0)
    np.testing.assert_allclose(out.amplitudes, ref, atol=1e-10)
    assert out.representation_time == pytest.approx(4.0)


def test_both_steppers_conserve_norm():
    ham = Hamiltonian(SPACE)
    psi = _packet()
    for method in ("dense_exponential", "implicit_step"):
        out = evolve(psi, Propagator(method, 0.1, ham), 0.0, 5.0)
        assert abs(out.norm() - 1.0) < 1e-10


def test_implicit_step_second_order_in_dt():
    ham = Hamiltonian(SPACE)
    psi = _packet()
    ref = oracle.evolve_exact(ham.matrix_at(0.0), psi.amplitudes, 2.0)
    errs = []
    for dt in (0.1, 0.05):
        out = evolve(psi, Propagator("implicit_step", dt, ham), 0.0, 2.0)
        errs.append(np.linalg.norm(out.amplitudes - ref))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_absorbing_potential_decays_norm_monotonically():
    gamma = 0.4 * Region(15.0, 25.0).indicator(GRID)
    ham = Hamiltonian(SPACE, potential_imag=-0.5 * gamma)
    psi = _packet()
    prop = Propagator("implicit_step", 0.2, ham)
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
        evolve(_packet(), Propagator("dense_exponential", 0.3, ham), 0.0, 1.0)


def test_space_mismatch_rejected():
    other = Hamiltonian((position_space(Grid(12, 0.0, 11.0)),))
    with pytest.raises(StructureError):
        evolve(_packet(), Propagator("dense_exponential", 0.5, other), 0.0, 1.0)


def test_spin_coupling_only_active_in_window():
    space = (position_space(GRID), spin_space())
    sc = SpinCoupling(0.3, Region(15.0, 25.0), window=(1.0, 2.0))
    ham = Hamiltonian(space, spin_coupling=sc)
    h_outside = ham.matrix_at(0.5)
    h_inside = ham.matrix_at(1.5)
    free = Hamiltonian(space).matrix_at(0.5)
    np.testing.assert_allclose(h_outside, free)
    assert np.max(np.abs(h_inside - free)) > 0


def test_interaction_profile_switches_term_on_and_off():
    prof = CouplingProfile.rectangular(0.0, 2.0)
    term = InteractionTerm(0.5, prof, projector(Region(15.0, 25.0), GRID))
    ham = Hamiltonian(SPACE, interaction=term)
    free = Hamiltonian(SPACE)
    np.testing.assert_allclose(ham.matrix_at(3.0), free.matrix_at(3.0))
    diff = ham.matrix_at(1.0) - free.matrix_at(1.0)
    np.testing.assert_allclose(
        np.diag(diff).real, 0.25 * Region(15.0, 25.0).indicator(GRID), atol=1e-14
    )


def test_evolve_free_strips_couplings():
    prof = CouplingProfile.rectangular(0.0, 2.0)
    term = InteractionTerm(0.8, prof, projector(Region(15.0, 25.0), GRID))
    ham = Hamiltonian(SPACE, interaction=term)
    psi = _packet()
    prop = Propagator("dense_exponential", 0.5, ham)
    free = evolve_free(psi, prop, 0.0, 2.0)
    ref = evolve(psi, Propagator("dense_exponential", 0.5, Hamiltonian(SPACE)), 0.0, 2.0)
    np.testing.assert_allclose(free.amplitudes, ref.amplitudes)


def test_propagate_matrix_is_unitary_and_consistent():
    ham = Hamiltonian(SPACE)
    prop = Propagator("dense_exponential", 0.5, ham)
    u = propagate_matrix(prop, 0.0, 3.0)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(GRID.n_points), atol=1e-10)
    psi = _packet()
    out = evolve(psi, prop, 0.0, 3.0)
    np.testing.assert_allclose(u @ psi.amplitudes, out.amplitudes, atol=1e-10)


def test_heisenberg_conjugate_of_identity():
    ham = Hamiltonian(SPACE)
    prop = Propagator("dense_exponential", 0.5, ham)
    ident = projector(Region(GRID.x_min - 1.0, GRID.x_max + 1.0), GRID)
    out = heisenberg_conjugate(ident, prop, 4.0, 1.0)
    np.testing.assert_allclose(out.matrix, ident.matrix, atol=1e-10)


def test_assemble_flags_hermiticity():
    assert assemble(Hamiltonian(SPACE), 0.0).hermitian
    gamma = 0.1 * Region(15.0, 25.0).indicator(GRID)
    lossy = Hamiltonian(SPACE, potential_imag=-0.5 * gamma)
    assert not assemble(lossy, 0.0).hermitian


def test_eigensystem_requires_static_hermitian():
    gamma = 0.1 * Region(15.0, 25.0).indicator(GRID)
    lossy = Hamiltonian(SPACE, potential_imag=-0.5 * gamma)
    with pytest.raises(ParameterError):
        lossy.eigensystem()


def _catalog_or_spin_toy(name):
    if name == "spin_toy":
        return Hamiltonian((spin_space(),), kinetic=False)
    return catalog()[name].hamiltonian()


@pytest.mark.parametrize("name", [*catalog(), "spin_toy"])
def test_eigensystem_is_real_orthonormal_and_rebuilds_static_matrix(name):
    ham = _catalog_or_spin_toy(name)
    vals, vecs = ham.eigensystem()
    assert vals.dtype == np.float64 and vecs.dtype == np.float64
    static = ham._static_matrix()
    scale = np.linalg.norm(static, 2)
    rebuilt = (vecs * vals) @ vecs.T
    assert np.max(np.abs(rebuilt - static)) <= 1e-12 * scale
    assert np.max(np.abs(vecs.T @ vecs - np.eye(ham.dimension))) <= 1e-12


def test_eigensystem_rejects_two_factor_space():
    with pytest.raises(StructureError):
        Hamiltonian((position_space(GRID), spin_space())).eigensystem()


def test_evolve_eigenbasis_matches_oracle():
    ham = Hamiltonian(SPACE, potential_real=0.3 * Region(15.0, 25.0).indicator(GRID))
    psi = _packet().at_time(1.0)
    out = evolve_eigenbasis(psi, ham, 5.0)
    ref = oracle.evolve_exact(ham.matrix_at(0.0), psi.amplitudes, 4.0)
    np.testing.assert_allclose(out.amplitudes, ref, atol=1e-12)
    assert out.representation_time == 5.0


@pytest.mark.parametrize("name", [*catalog(), "spin_toy"])
def test_tridiagonal_rebuilds_static_matrix(name):
    ham = _catalog_or_spin_toy(name)
    diag, off = ham.tridiagonal()
    assert diag.dtype == np.float64 and off.dtype == np.float64
    rebuilt = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    np.testing.assert_array_equal(rebuilt, ham._static_matrix())


def test_tridiagonal_rejects_other_structures():
    gamma = 0.1 * Region(15.0, 25.0).indicator(GRID)
    spin_coupled = Hamiltonian(
        (position_space(GRID), spin_space()),
        spin_coupling=SpinCoupling(0.3, Region(15.0, 25.0)),
    )
    coupled = Hamiltonian(
        SPACE,
        interaction=InteractionTerm(
            0.1, CouplingProfile.rectangular(0.0, 1.0), projector(Region(15.0, 25.0), GRID)
        ),
    )
    two_factor = Hamiltonian((position_space(GRID), spin_space()))
    for ham in (Hamiltonian(SPACE, potential_imag=-0.5 * gamma), spin_coupled,
                coupled, two_factor):
        with pytest.raises(StructureError):
            ham.tridiagonal()
