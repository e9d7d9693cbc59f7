"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line
(run with `pytest -s` to see them as they go).  The criteria exercise the
public surface end to end: oracle equivalence, cross-method agreement,
meter linearity, strong statistics, sum rules, higher moments, anomalous
conditional times, survival scaling, numerical hygiene and determinism.
"""

import time

import numpy as np
import pytest

import oracle
from weaktime.dynamics import (
    Hamiltonian,
    Propagator,
    evolve,
    evolve_eigenbasis,
    evolve_shifted,
)
from weaktime.hilbert import (
    Grid,
    QuantumState,
    Region,
    basis_cell_state,
    gaussian_packet,
    inner_product,
    position_space,
    spin_space,
)
from weaktime.meter import (
    PointerSpec,
    conditional_mean_sum,
    lambda_moment_route,
    meter_moment_readout,
    pointer_distribution,
    pointer_shift_fit,
    run_meter,
    run_moment_meter,
    survival_probability,
)
from weaktime.scenarios import (
    bundle_to_csv,
    bundle_to_json,
    catalog,
    postselection_family,
    run_scenario,
)
from weaktime.sojourn import (
    conditional_dwell_time,
    dwell_time,
    moment,
    moment_sum,
    second_moment_position_integral,
    second_moment_position_postselected,
    sojourn_matrix,
)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def crossing():
    """Free 64-point crossing used by the meter criteria."""
    grid = Grid(64, 0.0, 48.0)
    space = position_space(grid)
    region = Region(20.0, 28.0)
    window = (0.0, 8.0)
    ham = Hamiltonian(space)
    psi0 = gaussian_packet(grid, 13.0, 2.5, 1.0)
    psi_final = QuantumState(
        space,
        oracle.evolve_exact(ham.dense_matrix(), psi0.amplitudes, window[1]),
        window[1],
    )
    op = sojourn_matrix(region, ham, window)
    return grid, region, window, ham, psi0, psi_final, op


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    grid = Grid(32, 0.0, 15.5)
    space = position_space(grid)
    window = (0.0, 4.0)
    region = Region(7.0, 9.0)
    ham = Hamiltonian(space, potential_real=1.0 * region.indicator(grid))
    hmat = ham.dense_matrix()
    vals, vecs = ham.eigensystem()
    psi0 = QuantumState(
        space, vecs[:, :6] @ np.array([1.0, 0.8j, -0.5, 0.3 + 0.2j, 0.1, -0.2j])
    ).normalized()
    psi_final = QuantumState(
        space, oracle.evolve_exact(hmat, psi0.amplitudes, window[1]), window[1]
    )
    op = sojourn_matrix(region, ham, window)
    t_ref = oracle.sojourn(region.indicator(grid), hmat, window)
    dx = grid.dx
    psi = psi_final.amplitudes
    idx = int(np.argmax(np.abs(psi)))
    cell = basis_cell_state(grid, idx, time=window[1])
    chi = QuantumState(space, vecs[:, 1:4] @ np.array([0.7, -0.3j, 0.4]), window[1]).normalized()

    errs = {
        "matrix": float(np.max(np.abs(op.dense() - t_ref))),
        "cond": abs(
            conditional_dwell_time(op, psi_final, chi).value
            - oracle.conditional_weak_value(t_ref, psi, chi.amplitudes, dx)
        ),
        "dwell": abs(
            dwell_time(op, psi_final) - oracle.weak_value(t_ref, psi, dx).real
        ),
        "cond_dwell": abs(
            conditional_dwell_time(op, psi_final, cell).value
            - oracle.conditional_weak_value(t_ref, psi, cell.amplitudes, dx)
        ),
        "m2_cells": abs(
            second_moment_position_integral(op, psi_final)
            - oracle.second_moment_cells(t_ref, psi, dx)
        ),
        "m2_cell_post": abs(
            second_moment_position_postselected(op, psi_final, idx).operator_form
            - oracle.conditional_moment(t_ref, psi, cell.amplitudes, 2, dx)
        ),
    }
    for order in (1, 2, 3, 4):
        errs[f"moment{order}"] = abs(
            moment(op, psi_final, chi, order)
            - oracle.conditional_moment(t_ref, psi, chi.amplitudes, order, dx)
        )
    elapsed = time.monotonic() - start
    worst = max(errs.values())
    ok = worst < 1e-8 and elapsed < 30.0
    _report(1, ok, f"oracle equivalence, worst |diff| {worst:.2e} in {elapsed:.1f}s")


def test_criterion_2_clock_method_agreement():
    bundle = run_scenario(catalog()["barrier_dwell"], pipelines=("sojourn", "clocks"))
    ref = {
        (r.postselection, r.order): r.value
        for r in bundle.records
        if r.method == "sojourn"
    }
    worst = 0.0
    checked = 0
    for r in bundle.records:
        if not r.method.startswith("clock_"):
            continue
        rv = ref.get((r.postselection, r.order), ref[("none", r.order)])
        allowed = max(0.01 * max(abs(rv), 1e-12), r.residual)
        worst = max(worst, abs(r.value - rv) / allowed)
        checked += 1
    ok = checked >= 10 and worst <= 1.0
    _report(2, ok, f"clock/sojourn agreement on {checked} readouts, "
                   f"worst deviation {worst:.3f} of allowance")


def test_criterion_3_meter_linearity(crossing):
    grid, region, window, ham, psi0, psi_final, op = crossing
    idx = int(np.argmax(np.abs(psi_final.amplitudes)))
    chi = basis_cell_state(grid, idx, time=window[1])
    ref = conditional_dwell_time(op, psi_final, chi).value.real / op.duration
    spec = PointerSpec.auto(width=1.0, max_shift=0.5, n_points=128)
    ladder = (0.2, 0.15, 0.1, 0.05)
    runs = [
        run_meter(spec, psi0, region.indicator(grid), g, window, ham)
        for g in ladder + tuple(-g for g in ladder)
    ]
    slope, intercept = pointer_shift_fit(runs, chi)
    slope_err = abs(slope - ref) / abs(ref)
    ok = slope_err < 0.01 and abs(intercept) < 1e-6
    _report(3, ok, f"pointer shift slope within {slope_err:.2e} of the weak value, "
                   f"intercept {intercept:.1e}")


def test_criterion_4_strong_measurement_statistics():
    space = spin_space()
    system = Hamiltonian(space)
    psi0 = QuantumState(space, np.array([1.0, 1.0]) / np.sqrt(2.0))
    g = 1.0
    spec = PointerSpec.auto(width=0.1, max_shift=g, n_points=256, extent_factor=8.0)
    window = (0.0, 1.0)
    run = run_meter(spec, psi0, np.array([1.0, -1.0]), g, window, system)
    dist = pointer_distribution(run)
    q = spec.grid.points
    dq = spec.grid.dx
    w_plus = float(np.sum(dist.density[q > 0]) * dq)
    w_minus = float(np.sum(dist.density[q < 0]) * dq)
    p0 = survival_probability(run)
    peak_q = abs(q[np.argmax(dist.density)])
    ok = (
        dist.peak_count() == 2
        and abs(w_plus - 0.5) < 0.02
        and abs(w_minus - 0.5) < 0.02
        and abs(p0 - 0.5) < 0.02
        and abs(peak_q - g) < 3 * dq
    )
    _report(4, ok, f"two peaks near +-{g}, weights ({w_minus:.3f}, {w_plus:.3f}), "
                   f"survival {p0:.3f}")


def test_criterion_5_sum_rules():
    worst = 0.0
    for name, sc in catalog().items():
        ham = sc.hamiltonian()
        psi0 = sc.initial_state()
        psi_final = evolve_eigenbasis(psi0, ham, sc.window[1])
        op = sojourn_matrix(sc.region, ham, sc.window)
        if sc.postselection == "transmitted_reflected":
            _, family = postselection_family(psi_final, sc.potential.interval)
        else:
            family = [
                basis_cell_state(sc.grid, j, time=sc.window[1])
                for j in range(sc.grid.n_points)
            ]
        # conditional moment decomposition at l = 1, 2
        for order in (1, 2):
            lhs = moment_sum(op, psi_final, family, order)
            rhs = moment(op, psi_final, psi_final.normalized(), order)
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
        # conditional pointer-mean decomposition at finite coupling
        spec = PointerSpec.auto(width=1.0, max_shift=0.3)
        run = run_meter(
            spec, psi0, sc.region.indicator(sc.grid), 0.3, sc.window, ham
        )
        cells = [basis_cell_state(sc.grid, j) for j in range(sc.grid.n_points)]
        acc, total = conditional_mean_sum(run, cells)
        worst = max(worst, abs(acc - total))
    ok = worst < 1e-8
    _report(5, ok, f"conditional decomposition and pointer-mean sum rules, "
                   f"worst violation {worst:.2e}")


def test_criterion_6_second_moment_four_routes(barrier_ctx):
    ctx = barrier_ctx
    sc = ctx.scenario
    chi = ctx.psi_final.normalized()
    via_operator = moment(ctx.op, ctx.psi_final, chi, 2)
    via_cells = second_moment_position_integral(ctx.op, ctx.psi_final)
    lam_val, _ = lambda_moment_route(
        ctx.op, ctx.psi0, chi, 2, (0.2, 0.1, 0.05)
    )
    spec = PointerSpec.auto(width=0.2, max_shift=1.0, n_points=256)
    runs = [
        run_moment_meter(spec, ctx.psi0, ctx.op, 2, g)
        for g in (0.02, 0.01, 0.005)
    ]
    via_meter = meter_moment_readout(runs).time
    values = [via_operator, via_cells, lam_val.real, via_meter]
    spread = (max(values) - min(values)) / abs(via_operator)
    ok = spread < 1e-3
    _report(6, ok, f"l=2 operator/position/lambda/meter routes, "
                   f"relative spread {spread:.2e}")


def test_criterion_7_negative_conditional_time(farside_ctx):
    ctx = farside_ctx
    tau = dwell_time(ctx.op, ctx.psi_final)
    refl = conditional_dwell_time(ctx.op, ctx.psi_final, ctx.chi_r)
    duration = ctx.scenario.duration()
    ok = refl.value.real < 0.0 and 0.0 <= tau <= duration
    _report(7, ok, f"reflected far-side time {refl.value.real:.4f} < 0, "
                   f"unconditioned {tau:.4f} in [0, {duration:g}]")


def test_criterion_8_survival_scaling(crossing):
    grid, region, window, ham, psi0, _, _ = crossing
    spec = PointerSpec.auto(width=1.0, max_shift=0.5, n_points=128)
    ladder = np.array([0.4, 0.2, 0.1])
    deficits = []
    for g in ladder:
        run = run_meter(spec, psi0, region.indicator(grid), g, window, ham)
        deficits.append(1.0 - survival_probability(run))
    order, _ = np.polyfit(np.log(ladder), np.log(deficits), 1)
    ok = order >= 1.5
    _report(8, ok, f"survival deficit fitted order {order:.2f} >= 1.5")


def test_criterion_9_numerical_hygiene(crossing):
    grid, region, window, ham, psi0, _, _ = crossing
    # second-order dt convergence of the implicit stepper
    ref = oracle.evolve_exact(ham.dense_matrix(), psi0.amplitudes, 2.0)
    errs = [
        np.linalg.norm(
            evolve(psi0, Propagator(dt, ham), 0.0, 2.0).amplitudes
            - ref
        )
        for dt in (0.1, 0.05)
    ]
    ratio = errs[0] / errs[1]
    # norm conservation in a hermitian clock-style run
    herm = evolve(psi0, Propagator(0.05, ham), *window)
    drift = abs(herm.norm() - 1.0)
    # monotone decay under absorption
    lossy = Hamiltonian(ham.space, potential_imag=-0.5 * 0.3 * region.indicator(grid))
    prop = Propagator(0.1, lossy)
    state, norms = psi0, [1.0]
    for j in range(20):
        state = evolve(state, prop, 0.4 * j, 0.4 * (j + 1))
        norms.append(state.norm())
    monotone = bool(np.all(np.diff(norms) < 0))
    # the clocks' Chebyshev block: real and absorbing columns against the
    # dense exponential, and absorbing norms falling with Gamma
    mask = region.indicator(grid)
    shifts = np.array([0.0, 0.05, -0.05, *(-0.5j * np.array([0.05, 0.1, 0.3]))])
    block, _ = evolve_shifted(ham, mask, shifts, psi0.amplitudes, 2.0)
    block_err = max(
        np.linalg.norm(block[:, j] - oracle.evolve_exact(
            ham.dense_matrix() + u * np.diag(mask), psi0.amplitudes, 2.0))
        / np.linalg.norm(psi0.amplitudes)
        for j, u in enumerate(shifts)
    )
    block_norms = np.linalg.norm(block[:, [0, 3, 4, 5]], axis=0)
    block_monotone = bool(np.all(np.diff(block_norms) < 0))
    ok = (3.5 <= ratio <= 4.5 and drift < 1e-8 and monotone
          and block_err <= 1e-12 and block_monotone)
    _report(9, ok, f"dt ratio {ratio:.2f}, norm drift {drift:.1e}, "
                   f"absorption monotone: {monotone}, block error {block_err:.1e}, "
                   f"block absorption monotone: {block_monotone}")


def test_criterion_10_determinism():
    sc = catalog()["barrier_dwell"]
    first = run_scenario(sc, pipelines=("sojourn", "clocks"))
    second = run_scenario(sc, pipelines=("sojourn", "clocks"))
    same_csv = bundle_to_csv(first) == bundle_to_csv(second)
    same_json = bundle_to_json(first) == bundle_to_json(second)
    ok = same_csv and same_json
    _report(10, ok, f"byte-identical reruns (csv: {same_csv}, json: {same_json})")
