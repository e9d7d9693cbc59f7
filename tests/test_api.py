"""Surface checks on the public API."""

import ast
import dataclasses
import inspect
import pathlib

import numpy as np
import pytest

import oracle
import weaktime
from weaktime import clocks, dynamics, scenarios, sojourn
from weaktime.dynamics import Hamiltonian
from weaktime.errors import ParameterError
from weaktime.hilbert import FactorSpace, Grid, QuantumState, Region, position_space, spin_space
from weaktime.meter import CoupledSystem, PointerSpec, run_meter
from weaktime.sojourn import sojourn_matrix

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "weaktime"


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


def _imports_scipy_sparse(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == "scipy.sparse" or n.startswith("scipy.sparse.") for n in names):
            return True
    return False


def test_two_propagators_and_no_sparse_solver():
    # static Hamiltonians evolve in their eigenbasis and shift families as
    # one Chebyshev block: no Crank-Nicolson stepper and no sparse
    # factorization is left in the package
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if _imports_scipy_sparse(ast.parse(path.read_text()))] == []
    assert {"Propagator", "evolve"} & set(weaktime.__all__) == set()
    assert not hasattr(dynamics, "Propagator")


def test_one_overlap_policy_and_no_kinetic_flag():
    # the postselection-overlap floor is one package-wide definition
    # (hilbert.checked_overlap), not a per-call setting
    assert [name for name, params in _public_parameters() if "overlap_floor" in params] == []
    # kinetic energy is present exactly when the factor is a position grid,
    # and the Hamiltonian is hermitian: an absorber is a complex shift of a
    # CoupledSystem, not a second, imaginary potential
    assert [f.name for f in dataclasses.fields(Hamiltonian)] == [
        "space", "potential_real", "_cache"]


def test_one_factor_per_state_and_no_dense_operator_layer():
    # states live on one FactorSpace, observables are real diagonals, and a
    # meter run's final state is its (system, pointer) array, kept as factors
    deleted = {"OperatorMatrix", "projector", "pointer_space", "integrate_heisenberg"}
    assert deleted & set(weaktime.__all__) == set()
    grid = Grid(8, 0.0, 7.0)
    assert isinstance(QuantumState(position_space(grid), np.ones(8)).space, FactorSpace)
    spin = QuantumState(spin_space(), np.ones(2) / np.sqrt(2.0))
    spec = PointerSpec.auto(width=1.0, max_shift=0.5, n_points=64)
    coupled = CoupledSystem(Hamiltonian(spin_space()), spin, np.array([1.0, -1.0]), (0.0, 1.0))
    run = run_meter(spec, coupled, 0.5)
    assert oracle.meter_composite(run).shape == (2, spec.grid.n_points)


def test_sojourn_operator_shares_one_window_filter(monkeypatch):
    grid = Grid(16, 0.0, 7.5)
    ham = Hamiltonian(position_space(grid))
    op = sojourn_matrix(Region(3.0, 5.0), ham, (0.0, 2.0))
    n = grid.n_points

    def square_fields(obj):
        return {
            f.name
            for f in dataclasses.fields(obj)
            if isinstance(getattr(obj, f.name), np.ndarray)
            and getattr(obj, f.name).shape == (n, n)
        }

    # no N x N array of its own: M = D_u K D_u^dag is kept only as K's upper
    # block rows (N^2/2 + 32N real values), never a whole Gram; V is the Hamiltonian's
    # cached eigenbasis, shared rather than copied
    assert [f.name for f in dataclasses.fields(op)] == [
        "space", "window", "blocks", "vals", "vecs", "_cache"]
    assert square_fields(op) == {"vecs"}
    assert op.vecs is ham.eigensystem()[1]
    # the filter depends on the levels and the window length alone: one
    # evaluation per (Hamiltonian, length), whatever the region or window
    # start, kept in one module-level LRU and not on the Hamiltonian
    calls = []
    evaluate = sojourn._window_sinc

    def counting(phi):
        calls.append(1)
        return evaluate(phi)

    monkeypatch.setattr(sojourn, "_window_sinc", counting)
    sojourn_matrix(Region(1.0, 6.0), ham, (1.0, 3.0))
    assert calls == []
    assert sojourn._filter_blocks(ham, 2.0) is sojourn._filter_blocks(ham, 2.0)
    assert sojourn._filter_blocks.cache_info().maxsize == 8
    assert set(ham._cache) == {"eig"}
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
    # the window average is the closed-form filter, its midpoint form K
    # symmetric by construction: no slice count anywhere, and no hermiticity repair
    # whose failure would need its own error type
    assert [name for name, params in _public_parameters() if "n_slices" in params] == []
    assert "n_slices" not in {f.name for f in dataclasses.fields(weaktime.Scenario)}
    assert "ContractError" not in weaktime.__all__


def test_clock_readouts_take_a_ladder_and_a_table():
    # the clocks read the coupled family straight off the scenario's
    # CoupledSystem, the meter's, with no table of their own in between;
    # nothing on the clock path takes a time step; the absorbed-fraction
    # bound is a module constant and there is no per-clock config object;
    # the postselected readouts take one shape, a label -> state map
    readouts = {
        clocks.clock_real_potential: ["strengths", "coupled", "chis"],
        clocks.clock_imaginary_potential: ["strengths", "coupled", "chis"],
        clocks.clock_larmor: ["strengths", "coupled", "chis"],
        clocks.absorption_survival_dwell: ["strengths", "coupled"],
    }
    for fn, params in readouts.items():
        assert list(inspect.signature(fn).parameters) == params
    knobs = {"dt", "max_absorbed_fraction", "cfg"}
    assert [name for name, params in _public_parameters()
            if getattr(weaktime, name).__module__ == "weaktime.clocks"
            and knobs & set(params)] == []
    assert "ClockConfig" not in weaktime.__all__
    assert "ClockRuns" not in weaktime.__all__ and not hasattr(clocks, "ClockRuns")
    assert not hasattr(clocks, "_chi_items") and not hasattr(clocks, "_unwrap")


def test_clock_table_fills_once_and_records_keep_what_is_emitted():
    # the coupled family is filled once, as one node block, and every
    # reader takes its one `read`: no table of keys, no block of columns;
    # the report on that block lives on the coupled system only
    grid = Grid(16, 0.0, 7.5)
    psi0 = QuantumState(position_space(grid), np.ones(16)).normalized()
    coupled = CoupledSystem(Hamiltonian(position_space(grid)), psi0,
                            Region(3.0, 5.0).indicator(grid), (0.0, 1.0))
    assert [name for name, member in vars(CoupledSystem).items()
            if inspect.isfunction(member) and not name.startswith("_")] == ["serve", "read"]
    assert not any(hasattr(coupled, name) for name in ("cover", "columns", "_table"))
    assert coupled.read([0.0, 0.1]).gram().shape == (3, 3)
    held = coupled._coeffs
    assert coupled.read([0.05]).gram().shape == (2, 2) and coupled._coeffs is held
    assert coupled.nodes > 0 and coupled.chebyshev_terms > 0
    # a meter run holds its Gram, its pointer, and the family and the read
    # of it the Gram came from; no (N, K + 1) block of that family's columns
    # and no copy of the node-block report
    assert [f.name for f in dataclasses.fields(weaktime.MeterRun)] == [
        "spec", "coupling", "pointer", "family", "reading", "gram",
        "reference_system_final", "norm_drift", "edge_mass", "modes_kept"]
    # a sweep record carries only what the emitted sweep payload reads
    assert [f.name for f in dataclasses.fields(clocks.SweepRecord)] == [
        "strengths", "readouts", "value", "order", "residual", "flagged"]


def test_clocks_evolve_exactly_with_no_time_step():
    # the clock states come from one Chebyshev node block, so no scenario,
    # table, module constant or config key carries a Crank-Nicolson step
    assert "dt" not in {f.name for f in dataclasses.fields(weaktime.Scenario)}
    assert not hasattr(clocks, "DT")
    assert "numerics.dt" not in scenarios.CONFIG_KEYS
    assert list(inspect.signature(CoupledSystem).parameters) == [
        "system", "psi0", "observable", "window"]


def test_meter_runs_over_one_window():
    # the meter couples over exactly the (t_start, t_stop) window that the
    # sojourn operator and the clock runs take (the clocks read the same
    # CoupledSystem): no separate coupling profile, no wider run window with
    # free flight around it
    assert "CouplingProfile" not in weaktime.__all__
    assert [name for name, params in _public_parameters() if "profile" in params] == []
    assert list(inspect.signature(CoupledSystem).parameters) == [
        "system", "psi0", "observable", "window"]
    assert list(inspect.signature(run_meter).parameters) == [
        "spec", "coupled", "coupling", "mode_cutoff"]
    spin = QuantumState(spin_space(), np.ones(2) / np.sqrt(2.0))
    grid = Grid(16, 0.0, 7.5)
    free, region = Hamiltonian(position_space(grid)), Region(3.0, 5.0)
    packet = QuantumState(position_space(grid), np.ones(16)).normalized()
    for empty in ((1.0, 1.0), (3.0, 1.0)):
        with pytest.raises(ParameterError, match="t_start < t_stop"):
            CoupledSystem(Hamiltonian(spin_space()), spin.at_time(empty[0]),
                          np.array([1.0, -1.0]), empty)
        with pytest.raises(ParameterError, match="t_start < t_stop"):
            CoupledSystem(free, packet.at_time(empty[0]), region.indicator(grid), empty)
        with pytest.raises(ParameterError, match="t_start < t_stop"):
            sojourn_matrix(region, free, empty)


def _public_definitions():
    """(module, name) of every public module-level function, class and
    constant of the package, and of every public method of its classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
                if isinstance(node, ast.ClassDef):
                    names += [sub.name for sub in node.body
                              if isinstance(sub, ast.FunctionDef)]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            yield from ((path.stem, n) for n in names if not n.startswith("_"))


def test_every_public_definition_is_used_outside_the_tests():
    # cross-checks live in tests/oracle.py: whatever the package defines is
    # read by the package itself, a demo or the benchmark, as a name, an
    # attribute or (for the benchmark's patches) a string.  __init__ only
    # re-exports, which is no use.  Matching is by name, so a definition is
    # also counted as used where another of the same name is read.
    used = set()
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
               *(ROOT / "perfbench").glob("*.py")]
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    unused = [f"{module}.{name}" for module, name in _public_definitions()
              if name not in used]
    assert unused == []


def _unused_imports(path: pathlib.Path):
    """(line, name) of each name a module imports and never reads, by its
    AST; an import line marked `# noqa: F401` is kept on purpose."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # the package, its tests and its demos; a package __init__ imports only
    # to re-export, through its computed __all__
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for folder in ("src", "tests", "demos")
              for path in sorted((ROOT / folder).rglob("*.py"))
              if path.name != "__init__.py"
              for line, name in _unused_imports(path)]
    assert unused == []
