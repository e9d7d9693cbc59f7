"""The benchmark's trace hooks still find the entry points they wrap.

`perfbench/tracing.py` patches named functions of the package from
outside; a renamed or moved entry point would only show as a KeyError in a
traced benchmark run.  These tests enter its patches on a clocks-only, a
meter-only and two sojourn-only scenarios: every clock layer has a span
and the hook on the placeholder `clocks.evolve` never fires, every meter
run is one span per coupling of the ladder and the meter's node block is
evolved inside one of them, and scenarios that share a Hamiltonian share
its eigensystem.
"""

import importlib.util
from pathlib import Path

import pytest

from weaktime import dynamics, meter, scenarios
from weaktime.dynamics import evolve_shifted
from weaktime.scenarios import catalog

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_see_every_clock_and_no_stepped_evolution():
    # the clocks read one Chebyshev block, so the hook on the placeholder
    # `clocks.evolve` still installs but never fires
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracer.installed():
        scenarios.run_scenario(catalog()["well_halves"], pipelines=("clocks",))
    names = {s["name"] for s in tracer.spans}
    assert "dynamics.evolve" not in names
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["dynamics.evolve.calls"] == 0
    for clock in tracing.CLOCK_LAYERS:
        assert f"clocks.{clock}" in names
        assert metrics[f"clocks.{clock}.busy_s"] > 0.0
        assert metrics[f"clocks.{clock}.evolutions"] == 0


def test_trace_hooks_see_one_meter_run_per_coupling():
    tracing = _tracing()
    tracer = tracing.Tracer()
    runs = []
    open_spans = []

    def recording_run_meter(*args, **kwargs):
        runs.append(meter.run_meter(*args, **kwargs))
        return runs[-1]

    def recording_evolve_shifted(*args, **kwargs):
        # the node block is evolved when run_scenario fits the coupled
        # system, before the first run
        open_spans.append([tracer.spans[i]["name"] for i in tracer._stack])
        return evolve_shifted(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "run_meter", recording_run_meter)
        mp.setattr(dynamics, "evolve_shifted", recording_evolve_shifted)
        with tracer.installed():
            scenarios.run_scenario(catalog()["well_halves"], pipelines=("meter",))
    spans = [s for s in tracer.spans if s["name"] == "meter.run_meter"]
    assert len(spans) == len(runs) == len(scenarios.METER_LADDER)
    for span, run in zip(spans, runs):
        assert tracer.spans[span["parent"]]["name"] == "scenarios.run_scenario"
        assert span["modes_kept_computed"] == run.modes_kept
    assert tracing.layer_metrics(tracer, 1)["meter.run_meter.calls"] == len(runs)
    # so meter.run_meter.busy_s leaves the block out
    assert open_spans == [["scenarios.run_scenario"]]


def test_trace_hooks_see_sojourn_spans_and_one_shared_eigensystem():
    # two sweep-style scenarios on barrier_dwell's grid and potential ask
    # for two Hamiltonians between them: the free one validates, the
    # barrier one runs both
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracer.installed():
        for name in ("barrier_dwell", "barrier_farside"):
            scenarios.run_scenario(catalog()[name], pipelines=("sojourn",))
    names = {s["name"] for s in tracer.spans}
    assert {"sojourn.sojourn_matrix", "sojourn.readout"} <= names
    assert tracer.distinct_hamiltonians <= 2
    assert tracing.layer_metrics(tracer, 1)["sojourn.sojourn_matrix.calls"] == 2
