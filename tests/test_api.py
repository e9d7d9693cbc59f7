"""Surface checks on the public API."""

import dataclasses
import inspect

import numpy as np
import pytest

import weaktime
from weaktime import clocks, scenarios
from weaktime.dynamics import Hamiltonian, Propagator
from weaktime.errors import ParameterError
from weaktime.hilbert import FactorSpace, Grid, QuantumState, Region, position_space, spin_space
from weaktime.meter import PointerSpec, run_meter
from weaktime.sojourn import sojourn_matrix


def _public_parameters():
    for name in weaktime.__all__:
        obj = getattr(weaktime, name)
        if not callable(obj):
            continue
        try:
            yield name, inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue


def test_public_callables_have_one_engine():
    # each physical route has exactly one production engine; independent
    # cross-checks live in tests/oracle.py, not behind a selector
    offenders = [
        f"{name}({p})"
        for name, params in _public_parameters()
        for p in ("engine", "stepper")
        if p in params
    ]
    assert offenders == []
    assert "method" not in {f.name for f in dataclasses.fields(Propagator)}


def test_one_overlap_policy_and_no_kinetic_flag():
    # the postselection-overlap floor is one package-wide definition
    # (hilbert.checked_overlap), not a per-call setting
    assert [name for name, params in _public_parameters() if "overlap_floor" in params] == []
    # kinetic energy is present exactly when the factor is a position grid
    assert "kinetic" not in {f.name for f in dataclasses.fields(Hamiltonian)}


def test_one_factor_per_state_and_no_dense_operator_layer():
    # states live on one FactorSpace, observables are real diagonals, and a
    # meter run's final state is its (system, pointer) array
    deleted = {"OperatorMatrix", "projector", "pointer_space", "integrate_heisenberg"}
    assert deleted & set(weaktime.__all__) == set()
    grid = Grid(8, 0.0, 7.0)
    assert isinstance(QuantumState(position_space(grid), np.ones(8)).space, FactorSpace)
    spin = QuantumState(spin_space(), np.ones(2) / np.sqrt(2.0))
    spec = PointerSpec.auto(width=1.0, max_shift=0.5, n_points=64)
    run = run_meter(spec, spin, np.array([1.0, -1.0]), 0.5, (0.0, 1.0),
                    Hamiltonian(spin_space()))
    assert run.final.shape == (2, spec.grid.n_points)


def test_sojourn_operator_is_stored_once():
    grid = Grid(16, 0.0, 7.5)
    ham = Hamiltonian(position_space(grid))
    op = sojourn_matrix(Region(3.0, 5.0), ham, (0.0, 2.0))
    n = grid.n_points

    def square_fields(obj):
        return {
            f.name
            for f in dataclasses.fields(obj)
            if np.shape(getattr(obj, f.name)) == (n, n)
        }

    # one operator type: M is the one N x N array it owns; V is the
    # Hamiltonian's cached eigenbasis, shared rather than copied
    assert square_fields(op) == {"eigen_matrix", "vecs"}
    assert op.vecs is ham.eigensystem()[1]
    # the region is the caller's; the operator keeps only what it reads
    assert "region" not in {f.name for f in dataclasses.fields(op)}
    # the projector's weak value is dwell_time / T, so neither the wrapped
    # operator nor a second readout of it is public, and a postselected time
    # carries only its value and anomaly flag
    deleted = {"IntegratedOperator", "weak_value", "conditional_weak_value"}
    assert deleted & set(weaktime.__all__) == set()
    assert [f.name for f in dataclasses.fields(weaktime.WeakValueResult)] == [
        "value", "anomalous"]


def test_exact_time_average_has_no_quadrature_knob():
    # the window average is the closed-form filter, hermitian by
    # construction: no slice count anywhere, and no hermiticity repair
    # whose failure would need its own error type
    assert [name for name, params in _public_parameters() if "n_slices" in params] == []
    assert "n_slices" not in {f.name for f in dataclasses.fields(weaktime.Scenario)}
    assert "ContractError" not in weaktime.__all__


def test_clock_readouts_take_a_ladder_and_a_table():
    # nothing on the clock path takes a time step; the absorbed-fraction
    # bound is a module constant and there is no per-clock config object
    readouts = {
        clocks.clock_real_potential: ["strengths", "runs", "chi"],
        clocks.clock_imaginary_potential: ["strengths", "runs", "chi"],
        clocks.clock_larmor: ["strengths", "runs", "chi"],
        clocks.absorption_survival_dwell: ["strengths", "runs"],
    }
    for fn, params in readouts.items():
        assert list(inspect.signature(fn).parameters) == params
    knobs = {"dt", "max_absorbed_fraction", "cfg"}
    assert [name for name, params in _public_parameters()
            if getattr(weaktime, name).__module__ == "weaktime.clocks"
            and knobs & set(params)] == []
    assert "ClockConfig" not in weaktime.__all__
    assert "ClockRuns" in weaktime.__all__


def test_clocks_evolve_exactly_with_no_time_step():
    # the clock states come from one Chebyshev block, so no scenario, table,
    # module constant or config key carries a Crank-Nicolson step
    assert "dt" not in {f.name for f in dataclasses.fields(weaktime.Scenario)}
    assert "dt" not in {f.name for f in dataclasses.fields(clocks.ClockRuns)}
    assert not hasattr(clocks, "DT")
    assert "numerics.dt" not in scenarios.CONFIG_KEYS
    assert list(inspect.signature(clocks.ClockRuns).parameters) == [
        "system", "psi_initial", "region", "window", "shifts"]


def test_meter_runs_over_one_window():
    # the meter couples over exactly the (t_start, t_stop) window that the
    # sojourn operator and the clock runs take: no separate coupling profile,
    # no wider run window with free flight around it
    assert "CouplingProfile" not in weaktime.__all__
    assert [name for name, params in _public_parameters() if "profile" in params] == []
    assert list(inspect.signature(run_meter).parameters) == [
        "spec", "psi0", "observable", "coupling", "window", "system", "mode_cutoff"]
    spin = QuantumState(spin_space(), np.ones(2) / np.sqrt(2.0))
    spec = PointerSpec.auto(width=1.0, max_shift=0.5, n_points=64)
    for empty in ((1.0, 1.0), (3.0, 1.0)):
        with pytest.raises(ParameterError, match="t_start < t_stop"):
            run_meter(spec, spin.at_time(empty[0]), np.array([1.0, -1.0]), 0.5,
                      empty, Hamiltonian(spin_space()))
