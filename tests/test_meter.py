import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import oracle
from weaktime import dynamics, meter, scenarios
from weaktime.clocks import extrapolate_to_zero
from weaktime.dynamics import Hamiltonian, evolve_eigenbasis, evolve_shifted
from weaktime.errors import NumericalError, ParameterError, StructureError
from weaktime.hilbert import (
    Grid,
    QuantumState,
    Region,
    basis_cell_state,
    fourier_momentum_values,
    gaussian_packet,
    inner_product,
    position_space,
    spin_space,
)
from weaktime.meter import (
    CoupledSystem,
    PointerSpec,
    lambda_moment_route,
    meter_moment_readout,
    pointer_distribution,
    pointer_shift_fit,
    run_meter,
    run_moment_meter,
    survival_probability,
)
from weaktime.scenarios import (
    METER_LADDER,
    PacketSpec,
    PotentialSpec,
    Scenario,
    catalog,
    run_scenario,
)
from weaktime.sojourn import (
    CarriedFamily,
    conditional_dwell_time,
    dwell_time,
    moment,
    moment_sum,
    second_moment_position_integral,
    sojourn_matrix,
)

GRID = Grid(64, 0.0, 48.0)
SPACE = position_space(GRID)
REGION = Region(20.0, 28.0)
WINDOW = (0.0, 8.0)


@pytest.fixture(scope="module")
def crossing():
    ham = Hamiltonian(SPACE)
    psi0 = gaussian_packet(GRID, 13.0, 2.5, 1.0)
    psi_final = QuantumState(
        SPACE,
        oracle.evolve_exact(oracle.dense_hamiltonian(ham), psi0.amplitudes, WINDOW[1]),
        WINDOW[1],
    )
    op = sojourn_matrix(REGION, ham, WINDOW)
    return ham, psi0, psi_final, op


def _toy():
    space = spin_space()
    system = Hamiltonian(space)
    psi0 = QuantumState(space, np.array([1.0, 1.0]) / np.sqrt(2.0))
    return system, psi0, np.array([1.0, -1.0])  # sigma_z


# -- pointer plumbing --------------------------------------------------------


def test_pointer_spec_auto_contains_origin():
    spec = PointerSpec.auto(width=0.7, max_shift=2.0)
    assert np.min(np.abs(spec.grid.points)) < 1e-12
    phi = spec.initial_state()
    assert phi.norm() == pytest.approx(1.0, abs=1e-12)


def test_pointer_spec_rejects_bad_width():
    with pytest.raises(ParameterError):
        PointerSpec(Grid(64, -3.0, 3.0), -1.0)


def test_pointer_spec_rejects_grid_without_origin():
    with pytest.raises(ParameterError):
        PointerSpec(Grid(64, 1.0, 7.0), 0.5)


def test_pointer_spec_refuses_a_profile_cut_off_on_one_side():
    # q = 0 is on the grid, but the grid stops just left of it: the sampled
    # Gaussian keeps its right half and its mean sits far off centre
    spec = PointerSpec(Grid(64, -0.1, 10.0), 1.0)
    with pytest.warns(UserWarning, match="5 sigma"), \
            pytest.raises(ParameterError, match="off center"):
        spec.initial_state()


def test_pointer_distribution_refuses_an_unnormalized_density():
    # a NaN normalization error compares false with any budget
    grid = Grid(64, -3.0, 3.0)
    for density in (np.ones(64), np.full(64, np.nan)):
        with pytest.raises(ParameterError, match="normalization off"):
            meter.PointerDistribution(grid=grid, density=density, mean=0.0)


# -- basic runs ---------------------------------------------------------------


def test_zero_coupling_leaves_product_state(crossing):
    ham, psi0, psi_final, _ = crossing
    spec = PointerSpec.auto(width=1.0, max_shift=0.5, n_points=128)
    coupled = CoupledSystem(ham, psi0, REGION.indicator(GRID), WINDOW)
    run = run_meter(spec, coupled, 0.0)
    expected = np.outer(run.reference_system_final.amplitudes,
                        run.spec.initial_state().amplitudes)
    np.testing.assert_allclose(oracle.meter_composite(run), expected, atol=1e-12)
    # every shift is zero: the reference state, with no node block to fit
    coupled.serve(np.zeros(3))
    assert (coupled.nodes, coupled.chebyshev_terms, coupled.node_tail) == (0, 0, 0.0)
    assert coupled._coeffs is None


def test_identity_observable_translates_pointer(crossing):
    ham, psi0, _, _ = crossing
    g = 0.8
    spec = PointerSpec.auto(width=1.0, max_shift=2.0, n_points=128)
    run = run_meter(spec, CoupledSystem(ham, psi0, np.ones(GRID.n_points), WINDOW), g)
    dist = pointer_distribution(run)
    assert dist.mean == pytest.approx(g, abs=1e-9)
    assert survival_probability(run) == pytest.approx(1.0, abs=1e-10)


def test_norm_conserved_in_hermitian_run(crossing):
    ham, psi0, _, _ = crossing
    spec = PointerSpec.auto(width=1.0, max_shift=0.5, n_points=128)
    run = run_meter(spec, CoupledSystem(ham, psi0, REGION.indicator(GRID), WINDOW), 0.4)
    assert run.norm_drift < 1e-8
    final = oracle.meter_composite(run)
    assert final.shape == (GRID.n_points, spec.grid.n_points)
    norm = np.sqrt(GRID.dx * spec.grid.dx) * np.linalg.norm(final)
    assert norm == pytest.approx(1.0, abs=1e-8)


def test_run_meter_needs_no_per_mode_eigensolve(crossing, monkeypatch):
    # every kept pointer mode is interpolated from one Chebyshev node block:
    # beyond the Hamiltonian's cached free eigensystem no tridiagonal solve
    # runs
    ham, psi0, _, _ = crossing
    ham.eigensystem()
    calls = []
    solve = scipy.linalg.eigh_tridiagonal

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counting)
    spec = PointerSpec.auto(width=1.0, max_shift=0.5, n_points=128)
    run = run_meter(spec, CoupledSystem(ham, psi0, REGION.indicator(GRID), WINDOW), 0.4)
    assert run.modes_kept > 1
    assert len(calls) == 0


def test_run_meter_reports_chebyshev_terms(crossing):
    # the coupled system a run reads reports its node block: the series
    # needs at least r t terms, r the half-width of the spectra of the kept
    # modes' Hamiltonians; mode 0 (pi = 0) is H itself
    ham, psi0, _, _ = crossing
    spec = PointerSpec.auto(width=1.0, max_shift=0.5, n_points=128)
    # a cutoff at the peak keeps no mode: an empty block, no series
    coupled = CoupledSystem(ham, psi0, REGION.indicator(GRID), WINDOW)
    none_kept = run_meter(spec, coupled, 0.4, mode_cutoff=1.0)
    assert (none_kept.modes_kept, coupled.nodes, coupled.chebyshev_terms) == (0, 0, 0)
    run_meter(spec, coupled, 0.4)
    vals, _ = ham.eigensystem()
    half_width = 0.5 * (vals.max() - vals.min())
    duration = WINDOW[1] - WINDOW[0]
    assert coupled.chebyshev_terms >= half_width * duration
    assert coupled.chebyshev_terms < half_width * duration + 100
    # a run keeps no copy of that report
    assert not {"nodes", "chebyshev_terms", "node_tail"} & {
        f.name for f in dataclasses.fields(meter.MeterRun)}


def test_edge_aliasing_guard():
    system, psi0, sz = _toy()
    spec = PointerSpec.auto(width=1.0, max_shift=0.0, n_points=64)
    window = (0.0, 1.0)
    with pytest.raises(ParameterError):
        run_meter(spec, CoupledSystem(system, psi0, sz, window), 10.0)


def test_edge_guard_passes_a_pointer_just_inside_its_budget():
    # the sigma_z branches shift the pointer by +-G: at G = 2.3 the two edge
    # points on each side hold between half and all of the budget, read
    # from the run's Gram as from the dense composite; G = 2.4 is refused
    system, psi0, sz = _toy()
    spec = PointerSpec.auto(width=1.0, max_shift=0.0, n_points=64)
    coupled = CoupledSystem(system, psi0, sz, (0.0, 1.0))
    run = run_meter(spec, coupled, 2.3)
    dense = psi0.cell_weight * np.sum(np.abs(oracle.meter_composite(run)) ** 2, axis=0)
    for mass in (run.edge_mass, (np.sum(dense[:2]) + np.sum(dense[-2:])) * spec.grid.dx):
        assert 0.5 * meter.EDGE_MASS_BUDGET < mass <= meter.EDGE_MASS_BUDGET
    with pytest.raises(ParameterError, match="pointer support reaches the grid edge"):
        run_meter(spec, coupled, 2.4)


# -- factored runs: forms of B @ R, never the composite -----------------------


def _factored_cases(crossing):
    """(run, psi0, postselectors) on the crossing fixture; on a barrier
    scenario with transmitted and reflected postselection; on demo 03's
    sigma_z spin with a 0.1-wide pointer (N = 2 < K + 1), and with a pointer
    shifted to its edge-mass budget; and on moment meter runs of orders 1
    and 2."""
    ham, psi0, psi_final, op = crossing
    x = GRID.points
    sides = [QuantumState(SPACE, np.where(side, psi_final.amplitudes, 0.0), WINDOW[1])
             for side in (x >= REGION.x_hi, x < REGION.x_lo)]
    spec = PointerSpec.auto(width=1.0, max_shift=0.5, n_points=128)
    sc = _meter_barrier_n96()
    barrier = CoupledSystem(sc.hamiltonian(), sc.initial_state(),
                            sc.region.indicator(sc.grid), sc.window)
    chis = scenarios._postselectors(sc, barrier.reference_system_final)
    system, spin, sz = _toy()
    spin_spec = PointerSpec.auto(width=0.1, max_shift=1.0, n_points=512, extent_factor=14.0)
    spin_chis = [QuantumState(spin.space, amps, 1.0)
                 for amps in (np.array([1.0, 0.0]), np.array([0.6, 0.8j]))]
    return [
        (run_meter(spec, CoupledSystem(ham, psi0, REGION.indicator(GRID), WINDOW), 0.4),
         psi0, sides),
        (run_meter(scenarios.METER_POINTER, barrier, max(METER_LADDER)), sc.initial_state(),
         [chis["transmitted"], chis["reflected"]]),
        (run_meter(spin_spec, CoupledSystem(system, spin, sz, (0.0, 1.0)), 1.0),
         spin, spin_chis),
        (run_meter(PointerSpec.auto(width=1.0, max_shift=0.0, n_points=64),
                   CoupledSystem(system, spin, sz, (0.0, 1.0)), 2.3), spin, spin_chis),
        (run_moment_meter(spec, psi0, op, 1, 0.1), psi0, sides),
        (run_moment_meter(spec, psi0, op, 2, 0.01), psi0, sides),
    ]


def test_factored_readouts_match_the_dense_composite(crossing):
    # the marginal, the edge mass, the norm and every postselected density,
    # probability and mean, read off the run's Gram and its family's
    # overlaps, against the composite built densely (`oracle.meter_composite`)
    cases = _factored_cases(crossing)
    assert cases[2][0].modes_kept + 1 > cases[2][1].space.dimension
    for run, psi0, chis in cases:
        composite = oracle.meter_composite(run)
        w, q, dq = run.system_weight, run.spec.grid.points, run.spec.grid.dx
        dense = w * np.sum(np.abs(composite) ** 2, axis=0)
        total = np.sum(dense) * dq
        dist = pointer_distribution(run)
        np.testing.assert_allclose(dist.density * dist.probability, dense,
                                   rtol=0.0, atol=1e-13 * dense.max())
        assert dist.probability == pytest.approx(total, rel=1e-12)
        assert dist.mean == pytest.approx(np.sum(q * dense) * dq / total, rel=1e-12)
        edge = (np.sum(dense[:2]) + np.sum(dense[-2:])) * dq
        assert run.edge_mass == pytest.approx(edge, rel=0.0, abs=1e-12 * total)
        for chi in chis:
            dense = np.abs(w * (chi.amplitudes.conj() @ composite)) ** 2
            prob = np.sum(dense) * dq
            dist = pointer_distribution(run, chi)
            np.testing.assert_allclose(dist.density * dist.probability, dense,
                                       rtol=0.0, atol=1e-13 * dense.max())
            assert dist.probability == pytest.approx(prob, rel=1e-12)
            assert dist.mean == pytest.approx(np.sum(q * dense) * dq / prob, rel=1e-12)
        norm = np.sqrt(w * dq) * np.linalg.norm(composite)
        drift = abs(norm - psi0.norm() * run.spec.initial_state().norm())
        assert run.norm_drift == pytest.approx(drift, abs=1e-14)


def test_a_run_reads_the_fit_it_was_made_with(crossing):
    # an ascending ladder refits its family at each wider coupling, and a
    # reassigned reference state rebuilds the family's basis; neither moves
    # what an earlier run reads
    ham, psi0, psi_final, _ = crossing
    chi = QuantumState(SPACE, np.where(GRID.points >= REGION.x_hi, psi_final.amplitudes, 0.0),
                       WINDOW[1])
    spec = PointerSpec.auto(width=1.0, max_shift=0.5, n_points=128)
    coupled = CoupledSystem(ham, psi0, REGION.indicator(GRID), WINDOW)
    run = run_meter(spec, coupled, 0.1)

    def readouts():
        return [(d.probability, d.mean, d.density.tobytes())
                for d in (pointer_distribution(run), pointer_distribution(run, chi))]

    before = readouts()
    held = coupled._coeffs
    run_meter(spec, coupled, 0.4)
    assert coupled._coeffs is not held
    assert readouts() == before
    coupled.reference_system_final = QuantumState(SPACE, 1j * psi_final.amplitudes, WINDOW[1])
    run_meter(spec, coupled, 0.4)
    assert readouts() == before


def test_pointer_rows_are_cached_read_only_unit_transforms(crossing):
    ham, psi0, _, _ = crossing
    spec = PointerSpec.auto(width=1.0, max_shift=0.5, n_points=128)
    coupled = CoupledSystem(ham, psi0, REGION.indicator(GRID), WINDOW)
    first = run_meter(spec, coupled, 0.4)
    pointer = meter._pointer_modes(spec, meter.DEFAULT_MODE_CUTOFF)
    assert meter._pointer_modes(spec, meter.DEFAULT_MODE_CUTOFF) is pointer
    rows = pointer.rows
    n, q, dq = spec.grid.n_points, spec.grid.points, spec.grid.dx
    coeffs = np.fft.fft(spec.initial_state().amplitudes)
    kept = np.nonzero(np.abs(coeffs) > meter.DEFAULT_MODE_CUTOFF * np.abs(coeffs).max())[0]
    assert rows.shape == (first.modes_kept + 1, n) == (kept.size + 1, n)
    # row k is the kept coefficient c_k times a unit transform, its phases
    # reduced mod n before the exponential
    units = np.zeros((kept.size, n))
    units[np.arange(kept.size), kept] = 1.0
    scale = 1e-16 * np.abs(coeffs).max()
    np.testing.assert_allclose(rows[1:], coeffs[kept, None] * np.fft.ifft(units, axis=1),
                               rtol=0.0, atol=scale)
    kj = np.outer(kept, np.arange(n)) % n
    np.testing.assert_allclose(rows[1:], coeffs[kept, None] * np.exp(2j * np.pi * kj / n) / n,
                               rtol=0.0, atol=scale)
    np.testing.assert_array_equal(pointer.momenta, fourier_momentum_values(spec.grid)[kept])
    assert pointer.norm == spec.initial_state().norm()
    coeffs[kept] = 0.0
    np.testing.assert_allclose(rows[0], np.fft.ifft(coeffs), rtol=0.0, atol=scale)
    # the closed forms give the probability and the q-moment of an amplitude
    # o R, here summed over the grid in long double: to 1e-16 of the
    # probability for the profile shifted by 0.01 (a grid sum of the
    # q-weighted rows errs by about 1e-15 there), to 1e-14 for a random o
    rng = np.random.default_rng(3)
    shifted = np.exp(-0.01j * np.concatenate([[0.0], pointer.momenta]))
    for o, budget in ((shifted, 1e-16),
                      (rng.normal(size=kept.size + 1) + 1j * rng.normal(size=kept.size + 1),
                       1e-14)):
        amp = o.astype(np.clongdouble) @ rows.astype(np.clongdouble)
        density = amp.real**2 + amp.imag**2
        prob = (o @ pointer.prob_form @ o.conj()).real
        moment = (o @ pointer.mean_form @ o.conj()).real - abs(o @ pointer.jump) ** 2
        assert prob == pytest.approx(float(np.sum(density) * dq), rel=1e-14)
        assert moment == pytest.approx(float(np.sum(q * density) * dq), rel=0.0,
                                       abs=budget * prob)
    for a in (pointer.momenta, rows, pointer.prob_form, pointer.mean_form, pointer.jump,
              first.gram):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        first.gram[0, 0] = 0.0


def test_second_meter_run_forms_no_composite():
    # with the node block fitted and the pointer forms cached, a run holds
    # only its (K + 1, K + 1) Gram: its allocation peak stays far below one
    # (N, n) complex array, and below one (N, K + 1) block of its columns
    sc = catalog()["barrier_dwell"]
    coupled = CoupledSystem(sc.hamiltonian(), sc.initial_state(),
                            sc.region.indicator(sc.grid), sc.window)
    spec = PointerSpec.auto(width=1.0, max_shift=max(METER_LADDER))
    first = run_meter(spec, coupled, max(METER_LADDER))
    composite_bytes = sc.grid.n_points * spec.grid.n_points * 16
    tracemalloc.start()
    try:
        run_meter(spec, coupled, min(METER_LADDER))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < composite_bytes / 2
    assert peak < sc.grid.n_points * (first.modes_kept + 1) * 16 / 2


def test_factorized_engine_rejects_unstructured_problems():
    system, psi0, _ = _toy()
    spec = PointerSpec.auto(width=1.0, max_shift=1.0, n_points=64)
    window = (0.0, 1.0)
    # the observable is the real diagonal of A: a matrix (here sigma_x), a
    # diagonal of the wrong length or a complex one is refused
    for bad in (np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(3), np.array([1.0, 1j])):
        with pytest.raises(StructureError):
            CoupledSystem(system, psi0, bad, window)
    # a two-factor system cannot even be built as a Hamiltonian
    with pytest.raises(StructureError):
        Hamiltonian((position_space(Grid(8, 0.0, 7.0)), spin_space()))


def test_composite_engine_matches_factorized():
    grid = Grid(16, 0.0, 7.5)
    space = position_space(grid)
    ham = Hamiltonian(space, potential_real=0.5 * Region(3.0, 5.0).indicator(grid))
    vals, vecs = ham.eigensystem()
    psi0 = QuantumState(space, vecs[:, :4] @ np.array([1.0, 0.6j, -0.4, 0.2])).normalized()
    spec = PointerSpec.auto(width=0.5, max_shift=0.5, n_points=64)
    window = (0.0, 2.0)
    obs = Region(3.0, 5.0).indicator(grid)
    fac = run_meter(spec, CoupledSystem(ham, psi0, obs, window), 0.3, mode_cutoff=0.0)
    com = oracle.composite_meter(
        oracle.dense_hamiltonian(ham), np.diag(obs), psi0.amplitudes,
        spec.initial_state().amplitudes, spec.grid.dx, 0.3, window[1] - window[0],
    )
    np.testing.assert_allclose(oracle.meter_composite(fac), com, atol=1e-10)


# -- coupled system: kept columns from Chebyshev nodes in the shift -----------


def _meter_barrier_n96():
    """A meter-benchmark-style tunnelling scenario on a 96-point lattice:
    the region is the barrier, the packet below its top."""
    return Scenario(
        name="meter_barrier_n96",
        grid=Grid(96, 0.0, 95.0),
        potential=PotentialSpec(kind="barrier", v0=2.88, x_lo=38.0, x_hi=39.5),
        packet=PacketSpec(x0=18.5, sigma=3.5, k0=1.2),
        window=(0.0, 21.0),
        region=Region(38.0, 39.5),
        postselection="transmitted_reflected",
    )


def _kept_shifts(spec, coupling, duration):
    """(G/T) pi_k over the pointer modes above the default cutoff."""
    coeffs = np.abs(np.fft.fft(spec.initial_state().amplitudes))
    kept = coeffs > meter.DEFAULT_MODE_CUTOFF * coeffs.max()
    return (coupling / duration) * fourier_momentum_values(spec.grid)[kept]


def _worst_column_error(coupled, shifts):
    """Largest column error of the interpolated block against the direct
    Chebyshev block, relative to ||psi0||."""
    direct, _ = evolve_shifted(coupled.system, coupled.observable, shifts,
                               coupled.psi0.amplitudes, coupled.duration)
    interpolated = oracle.columns(coupled, shifts)
    return (np.max(np.linalg.norm(interpolated - direct, axis=0))
            / np.linalg.norm(coupled.psi0.amplitudes))


@pytest.mark.parametrize("scenario", [catalog()["well_halves"], catalog()["barrier_dwell"],
                                      _meter_barrier_n96()], ids=lambda sc: sc.name)
def test_coupled_system_columns_match_the_direct_block(scenario):
    coupled = CoupledSystem(scenario.hamiltonian(), scenario.initial_state(),
                            scenario.region.indicator(scenario.grid), scenario.window)
    spec = PointerSpec.auto(width=1.0, max_shift=max(METER_LADDER))
    for g in METER_LADDER:
        shifts = _kept_shifts(spec, g, coupled.duration)
        assert _worst_column_error(coupled, shifts) <= 1e-13
    assert 0.0 < coupled.node_tail <= 1e-13


def test_coupled_system_sizes_its_nodes_for_a_narrow_pointer():
    # demo 03's sigma_z spin read by a pointer of width 0.1: its kept
    # shifts reach |s| T = 42.6, for which the a-priori bound asks 80 nodes
    system, psi0, sz = _toy()
    coupled = CoupledSystem(system, psi0, sz, (0.0, 1.0))
    spec = PointerSpec.auto(width=0.1, max_shift=1.0, n_points=512, extent_factor=14.0)
    run_meter(spec, coupled, 1.0)
    assert coupled.nodes == 80
    assert coupled.node_tail <= 1e-13
    assert _worst_column_error(coupled, _kept_shifts(spec, 1.0, 1.0)) <= 1e-13


def test_coupled_system_rebuilds_for_a_wider_request(monkeypatch):
    sc = catalog()["well_halves"]
    args = (sc.hamiltonian(), sc.initial_state(), sc.region.indicator(sc.grid), sc.window)
    spec = PointerSpec.auto(width=1.0, max_shift=max(METER_LADDER))
    narrow, wide = (_kept_shifts(spec, g, sc.duration()) for g in (0.1, 0.3))
    blocks = []
    monkeypatch.setattr(dynamics, "evolve_shifted",
                        lambda *a: blocks.append(a[2]) or evolve_shifted(*a))
    coupled = CoupledSystem(*args)
    coupled.read(narrow)
    coupled.read(narrow / 2)
    assert len(blocks) == 1
    later = oracle.columns(coupled, wide)
    assert len(blocks) == 2
    assert np.max(np.abs(blocks[1])) == pytest.approx(np.max(np.abs(wide)), rel=1e-15)
    fresh = oracle.columns(CoupledSystem(*args), wide)
    assert (np.max(np.linalg.norm(later - fresh, axis=0))
            <= 1e-13 * np.linalg.norm(sc.initial_state().amplitudes))


@pytest.mark.parametrize("name", ["well_halves", "barrier_farside"])
def test_meter_pipeline_evolves_one_node_block(monkeypatch, name):
    calls = []
    monkeypatch.setattr(dynamics, "evolve_shifted",
                        lambda *a: calls.append(a[2].size) or evolve_shifted(*a))
    bundle = run_scenario(catalog()[name], pipelines=("meter",))
    assert any(r.method == "meter" for r in bundle.records)
    assert calls == [15]


def test_coupled_system_refuses_what_run_meter_refused():
    # the constructor raises the errors, with the messages, that a meter
    # run raised before it evolved anything
    system, psi0, sz = _toy()
    with pytest.raises(StructureError, match=r"real diagonal of shape \(2,\)"):
        CoupledSystem(system, psi0, np.array([1.0, 1j]), (0.0, 1.0))
    with pytest.raises(ParameterError, match="t_start < t_stop"):
        CoupledSystem(system, psi0, sz, (0.0, 0.0))
    with pytest.raises(ParameterError, match="run start"):
        CoupledSystem(system, psi0, sz, (1.0, 2.0))


def test_coupled_system_refuses_shifts_past_the_node_cap():
    # psi(s) = exp(-i s T sigma_z) psi0 needs a degree about |s| T > 1024
    system, psi0, sz = _toy()
    coupled = CoupledSystem(system, psi0, sz, (0.0, 1.0))
    with pytest.raises(NumericalError, match="Chebyshev nodes"):
        coupled.read(np.array([2000.0]))


# -- strong regime ------------------------------------------------------------


def test_strong_two_level_peaks_and_weights():
    system, psi0, sz = _toy()
    g = 1.0
    spec = PointerSpec.auto(width=0.1, max_shift=g, n_points=256, extent_factor=8.0)
    window = (0.0, 1.0)
    run = run_meter(spec, CoupledSystem(system, psi0, sz, window), g)
    dist = pointer_distribution(run)
    assert dist.peak_count() == 2
    q = spec.grid.points
    w_plus = float(np.sum(dist.density[q > 0]) * spec.grid.dx)
    w_minus = float(np.sum(dist.density[q < 0]) * spec.grid.dx)
    assert w_plus == pytest.approx(0.5, abs=0.02)
    assert w_minus == pytest.approx(0.5, abs=0.02)
    assert survival_probability(run) == pytest.approx(0.5, abs=0.02)


def test_survival_is_one_for_observable_eigenstate():
    system, _, sz = _toy()
    up = QuantumState(spin_space(), np.array([1.0, 0.0]))
    spec = PointerSpec.auto(width=0.1, max_shift=1.0, n_points=256, extent_factor=8.0)
    window = (0.0, 1.0)
    run = run_meter(spec, CoupledSystem(system, up, sz, window), 1.0)
    assert survival_probability(run) == pytest.approx(1.0, abs=1e-8)


def test_crossover_from_two_peaks_to_one():
    system, psi0, sz = _toy()
    window = (0.0, 1.0)
    counts = []
    coupled = CoupledSystem(system, psi0, sz, window)
    for width in (0.1, 1.0, 10.0):
        spec = PointerSpec.auto(width=width, max_shift=1.0, n_points=512,
                                extent_factor=14.0)
        run = run_meter(spec, coupled, 1.0)
        counts.append(pointer_distribution(run).peak_count())
    assert counts[0] == 2
    assert counts[-1] == 1
    assert all(a >= b for a, b in zip(counts, counts[1:]))


# -- weak regime --------------------------------------------------------------


def test_weak_shift_slope_equals_weak_value(crossing):
    ham, psi0, psi_final, op = crossing
    a_w = dwell_time(op, psi_final) / op.duration
    spec = PointerSpec.auto(width=1.0, max_shift=0.5, n_points=128)
    ladder = (0.4, 0.3, 0.2, 0.1)
    coupled = CoupledSystem(ham, psi0, REGION.indicator(GRID), WINDOW)
    runs = [run_meter(spec, coupled, g) for g in ladder + tuple(-g for g in ladder)]
    slope, intercept = pointer_shift_fit(runs)
    assert slope == pytest.approx(a_w, rel=0.01)
    assert abs(intercept) < 1e-6


def test_conditional_shift_slope_matches_conditional_weak_value(crossing):
    ham, psi0, psi_final, op = crossing
    idx = int(np.argmax(np.abs(psi_final.amplitudes)))
    chi = basis_cell_state(GRID, idx, time=WINDOW[1])
    ref = conditional_dwell_time(op, psi_final, chi).value.real / op.duration
    spec = PointerSpec.auto(width=1.0, max_shift=0.5, n_points=128)
    ladder = (0.2, 0.15, 0.1, 0.05)
    coupled = CoupledSystem(ham, psi0, REGION.indicator(GRID), WINDOW)
    runs = [run_meter(spec, coupled, g) for g in ladder + tuple(-g for g in ladder)]
    slope, intercept = pointer_shift_fit(runs, chi)
    assert slope == pytest.approx(ref, rel=0.01)
    assert abs(intercept) < 1e-6


def test_negative_coupling_run_is_the_mirrored_positive_run(crossing):
    # mode k at -G is mode -k at +G, so the -G composite is the +G one with
    # the pointer axis reversed, q_j <-> q_{n-j}; q_0 has no mirror point on
    # the grid.  Hence the ladder needs no -G runs: their postselected
    # pointer means are the negated +G ones.
    ham, psi0, psi_final, _ = crossing
    spec = PointerSpec.auto(width=1.0, max_shift=0.5, n_points=128)
    x = GRID.points
    transmitted, reflected = x >= REGION.x_hi, x < REGION.x_lo
    postselectors = [
        QuantumState(SPACE, np.where(side, psi_final.amplitudes, 0.0), WINDOW[1])
        for side in (transmitted, reflected)
    ]
    coupled = CoupledSystem(ham, psi0, REGION.indicator(GRID), WINDOW)
    for g in (0.4, 0.1):
        plus = run_meter(spec, coupled, g)
        minus = run_meter(spec, coupled, -g)
        np.testing.assert_allclose(oracle.meter_composite(minus)[:, 1:],
                                   oracle.meter_composite(plus)[:, :0:-1],
                                   rtol=0.0, atol=1e-12)
        for chi in postselectors:
            mean = pointer_distribution(plus, chi).mean
            assert abs(mean) > 1e-3
            assert pointer_distribution(minus, chi).mean == pytest.approx(-mean, rel=1e-9)


def test_conditional_mean_sum_rule_exact(crossing):
    ham, psi0, _, _ = crossing
    spec = PointerSpec.auto(width=1.0, max_shift=0.5, n_points=128)
    run = run_meter(spec, CoupledSystem(ham, psi0, REGION.indicator(GRID), WINDOW), 0.4)
    family = [basis_cell_state(GRID, j, time=WINDOW[1]) for j in range(GRID.n_points)]
    acc, total = oracle.conditional_mean_sum(run, family)
    assert acc == pytest.approx(total, abs=1e-10)


def test_survival_deficit_scales_quadratically(crossing):
    ham, psi0, _, _ = crossing
    spec = PointerSpec.auto(width=1.0, max_shift=0.5, n_points=128)
    ladder = np.array([0.4, 0.2, 0.1])
    deficits = []
    coupled = CoupledSystem(ham, psi0, REGION.indicator(GRID), WINDOW)
    for g in ladder:
        run = run_meter(spec, coupled, g)
        deficits.append(1.0 - survival_probability(run))
    slope, _ = np.polyfit(np.log(ladder), np.log(deficits), 1)
    assert slope >= 1.5


# -- moment meters ------------------------------------------------------------


def test_moment_meter_engines_agree(crossing):
    ham, psi0, _, op = crossing
    spec = PointerSpec.auto(width=1.0, max_shift=1.0, n_points=128)
    exact = run_moment_meter(spec, psi0, op, 1, 0.1)
    stepped = oracle.stepped_moment_meter(
        oracle.dense_hamiltonian(ham), oracle.dense_sojourn(op), 1, psi0.amplitudes,
        spec.initial_state().amplitudes, spec.grid.dx, 0.1, op.window, 0.05,
    )
    np.testing.assert_allclose(stepped, oracle.meter_composite(exact), atol=1e-5)


def test_moment_meter_readout_matches_operator_moment(crossing):
    ham, psi0, psi_final, op = crossing
    for order, ladder in ((1, (0.1, 0.05, 0.025)), (2, (0.02, 0.01, 0.005))):
        spec = PointerSpec.auto(width=1.0, max_shift=1.0, n_points=128)
        runs = [
            run_moment_meter(spec, psi0, op, order, g)
            for g in ladder
        ]
        rec = meter_moment_readout(runs)
        ref = moment(op, psi_final, psi_final, order)
        assert rec.time == pytest.approx(ref, rel=1e-6)
        assert rec.strengths == ladder


def test_moment_meter_rejects_bad_order(crossing):
    # at 2.5 the eigenvalues of K a few ulps below zero gave NaN phases
    ham, psi0, _, op = crossing
    spec = PointerSpec.auto(width=1.0, max_shift=1.0, n_points=128)
    for order in (0, 2.5, 2.0, 5):
        with pytest.raises(ParameterError, match="integer in 1..4"):
            run_moment_meter(spec, psi0, op, order, 0.1)
        with pytest.raises(ParameterError, match="integer in 1..4"):
            CarriedFamily(op, psi0, order)


def test_carried_family_evolves_the_free_state_under_the_carried_operator(crossing):
    ham, psi0, psi_final, op = crossing
    family = CarriedFamily(op, psi0, 2)
    np.testing.assert_allclose(family.reference_system_final.amplitudes,
                               psi_final.amplitudes, atol=1e-12)
    t_op = oracle.dense_sojourn(op)
    shifts = np.array([0.0, 0.03, -0.07])
    block = np.transpose([psi_final.amplitudes] + [
        scipy.linalg.expm(-1j * s * op.duration * t_op @ t_op) @ psi_final.amplitudes
        for s in shifts])
    # the family's two reads of [psi_ref | psi(s_1) .. psi(s_K)]: its Gram
    # and a postselector's overlaps
    reading = family.read(shifts)
    np.testing.assert_allclose(reading.gram(), block.conj().T @ block, atol=1e-10)
    chi = basis_cell_state(GRID, 20, time=WINDOW[1])
    np.testing.assert_allclose(reading.overlaps(chi), chi.amplitudes.conj() @ block,
                               atol=1e-10)


def test_lambda_route_rejects_a_third_moment(crossing):
    _, psi0, psi_final, op = crossing
    with pytest.raises(ParameterError, match="orders 1 and 2"):
        lambda_moment_route(op, psi0, psi_final, 3, (0.1, 0.05, 0.025))


def test_pointer_shift_fit_needs_two_runs():
    system, psi0, a = _toy()
    spec = PointerSpec.auto(width=1.0, max_shift=0.5, n_points=64)
    run = run_meter(spec, CoupledSystem(system, psi0, a, (0.0, 1.0)), 0.1)
    with pytest.raises(ParameterError, match="at least 2 runs"):
        pointer_shift_fit([run])


def test_pointer_distribution_refuses_a_postselector_on_another_space():
    system, psi0, a = _toy()
    spec = PointerSpec.auto(width=1.0, max_shift=0.5, n_points=64)
    run = run_meter(spec, CoupledSystem(system, psi0, a, (0.0, 1.0)), 0.1)
    with pytest.raises(StructureError, match="system space"):
        pointer_distribution(run, postselect=gaussian_packet(GRID, 13.0, 2.5, 1.0))


# -- derivative identities ----------------------------------------------------


def test_derivative_identities_recover_conditional_moments(crossing):
    ham, psi0, psi_final, op = crossing
    idx = int(np.argmax(np.abs(psi_final.amplitudes)))
    chi = basis_cell_state(GRID, idx, time=WINDOW[1])
    den = inner_product(chi, psi_final)
    t_psi = oracle.dense_sojourn(op) @ psi_final.amplitudes
    t2_psi = oracle.dense_sojourn(op) @ t_psi
    w = psi_final.cell_weight
    ref = {
        1: complex(w * np.vdot(chi.amplitudes, t_psi)) / den,
        2: complex(w * np.vdot(chi.amplitudes, t2_psi)) / den,
    }
    spec = PointerSpec.auto(width=1.0, max_shift=1.0, n_points=128)

    def factory(g):
        return run_moment_meter(spec, psi0, op, 1, g)

    report = oracle.derivative_identity_check(factory, (0.05, 0.025, 0.0125), chi)
    assert abs(report.pointer_weak_value - ref[1]) < 1e-4
    assert abs(report.momentum_projected[1] - ref[1]) < 1e-6
    assert abs(report.momentum_projected[2] - ref[2]) < 1e-4


@pytest.mark.parametrize("side", ["transmitted", "reflected"])
def test_moment_routes_hold_where_the_weak_values_are_unphysical(farside_ctx, side):
    # beyond the barrier the reflected packet's conditional mean time in the
    # region is negative, and so is its conditional variance m2 - m1^2; each
    # finite-coupling route still lands within its own residual of moment()
    c = farside_ctx
    chi = c.chi_t if side == "transmitted" else c.chi_r
    ladder = (0.1, 0.05, 0.025)
    m = {order: moment(c.op, c.psi_final, chi, order) for order in (1, 2)}
    for order in (1, 2):
        value, residual = lambda_moment_route(c.op, c.psi0, chi, order, ladder)
        assert abs(value.real - m[order]) <= residual
    spec = PointerSpec.auto(1.0, 1.0, 128)
    rec = meter_moment_readout([run_moment_meter(spec, c.psi0, c.op, 1, g) for g in ladder],
                               chi)
    assert abs(rec.time - m[1]) <= rec.residual
    if side == "reflected":
        assert m[1] == pytest.approx(-0.02507, abs=1e-5)
        assert m[2] - m[1] ** 2 == pytest.approx(-8.166, abs=1e-3)


def test_lambda_route_matches_operator_moments(crossing):
    ham, psi0, psi_final, op = crossing
    chi = psi_final
    for order in (1, 2):
        value, residual = lambda_moment_route(
            op, psi0, chi, order, (0.1, 0.05, 0.025)
        )
        ref = moment(op, psi_final, chi, order)
        assert value.real == pytest.approx(ref, rel=1e-5)
        assert residual < 1e-4


def test_moment_readouts_refuse_a_zero_strength(crossing):
    # a zero strength is refused as a ParameterError before either route
    # divides by it
    ham, psi0, psi_final, op = crossing
    ladder = (0.3, 0.2, 0.0)
    with pytest.raises(ParameterError, match="strengths must be positive"):
        lambda_moment_route(op, psi0, psi_final, 1, ladder)
    spec = PointerSpec.auto(width=1.0, max_shift=0.5, n_points=128)
    coupled = CoupledSystem(ham, psi0, REGION.indicator(GRID), WINDOW)
    runs = [run_meter(spec, coupled, g) for g in ladder]
    with pytest.raises(ParameterError, match="strengths must be positive"):
        meter_moment_readout(runs)


def test_moment_readouts_refuse_an_ascending_ladder(crossing):
    # extrapolate_to_zero's residual drops the first strength as the
    # largest, so an ascending ladder is refused wherever it would reach it
    ham, psi0, psi_final, op = crossing
    ladder = (0.1, 0.2, 0.4)
    with pytest.raises(ParameterError, match="strictly decreasing"):
        extrapolate_to_zero(ladder, [1.0, 1.0, 1.0])
    with pytest.raises(ParameterError, match="strictly decreasing"):
        lambda_moment_route(op, psi0, psi_final, 1, ladder)
    spec = PointerSpec.auto(width=1.0, max_shift=0.5, n_points=128)
    coupled = CoupledSystem(ham, psi0, REGION.indicator(GRID), WINDOW)
    runs = [run_meter(spec, coupled, g) for g in ladder]
    with pytest.raises(ParameterError, match="strictly decreasing"):
        meter_moment_readout(runs)


def test_lambda_route_requires_window_end_postselector(barrier_ctx):
    # a basis cell state at t = 0, not the window end: the lambda route
    # refuses it like every sojourn readout
    idx = int(np.argmax(np.abs(barrier_ctx.psi_final.amplitudes)))
    cell = basis_cell_state(barrier_ctx.scenario.grid, idx, time=0.0)
    with pytest.raises(ParameterError, match="window end"):
        conditional_dwell_time(barrier_ctx.op, barrier_ctx.psi_final, cell)
    with pytest.raises(ParameterError, match="window end"):
        lambda_moment_route(barrier_ctx.op, barrier_ctx.psi0, cell, 1, (0.1, 0.05, 0.025))


# -- refused inputs of the production routes -----------------------------------


def _start_routes(crossing):
    """Each route that evolves a packet from the window start, on the
    crossing's Hamiltonian or operator, as a function of the packet; the
    clocks read the `CoupledSystem` built here, as `run_meter` does."""
    ham, _, psi_final, op = crossing
    spec = PointerSpec.auto(width=1.0, max_shift=0.3, n_points=64)
    return {
        "CoupledSystem": lambda s: CoupledSystem(ham, s, REGION.indicator(GRID), WINDOW),
        "run_meter": lambda s: run_meter(spec, CoupledSystem(ham, s, REGION.indicator(GRID),
                                                             WINDOW), 0.1),
        "run_moment_meter": lambda s: run_moment_meter(spec, s, op, 1, 0.1),
        "lambda_moment_route": lambda s: lambda_moment_route(op, s, psi_final, 1,
                                                             (0.3, 0.2, 0.1)),
    }


@pytest.mark.parametrize("route", ["CoupledSystem", "run_meter", "run_moment_meter",
                                   "lambda_moment_route"])
def test_run_start_routes_refuse_a_packet_at_another_time(crossing, route):
    # a packet referenced to t=3 would be evolved over the whole window and
    # its final state stamped as the window end's
    psi0 = crossing[1]
    with pytest.raises(ParameterError, match="run start"):
        _start_routes(crossing)[route](psi0.at_time(3.0))


@pytest.mark.parametrize("route", [
    "evolve_eigenbasis", "CoupledSystem", "run_meter", "run_moment_meter",
    "lambda_moment_route", "dwell_time", "conditional_dwell_time", "moment_sum",
    "second_moment_position_integral"])
def test_routes_refuse_a_packet_on_another_grid(crossing, route):
    # same number of points, another dx: the amplitudes have the right
    # length, so only the space check stops them being read on the wrong grid
    ham, _, _, op = crossing
    packet = gaussian_packet(Grid(64, 0.0, 50.0), 13.0, 2.5, 1.0)
    # the sojourn readouts take the packet referenced to the window end
    end_routes = {
        "dwell_time": lambda s: dwell_time(op, s),
        "conditional_dwell_time": lambda s: conditional_dwell_time(op, s, s),
        "moment_sum": lambda s: moment_sum(op, s, [s], 1),
        "second_moment_position_integral": lambda s: second_moment_position_integral(op, s),
    }
    routes = {
        **_start_routes(crossing),
        **end_routes,
        "evolve_eigenbasis": lambda s: evolve_eigenbasis(s, ham, WINDOW[1]),
    }
    state = packet.at_time(WINDOW[1]) if route in end_routes else packet
    with pytest.raises(StructureError, match="different spaces"):
        routes[route](state)
