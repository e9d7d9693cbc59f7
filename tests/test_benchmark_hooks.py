"""The benchmark's trace hooks still find the entry points they wrap.

`perfbench/tracing.py` patches named functions of the package from
outside; a renamed or moved entry point would only show as a KeyError in a
traced benchmark run.  These tests enter its patches on a clocks-only and a
meter-only scenario: every clock layer has a span and no clock steps with
Crank-Nicolson, and every meter run is one span per coupling of the ladder.
"""

import importlib.util
from pathlib import Path

import pytest

from weaktime import meter, scenarios
from weaktime.scenarios import catalog

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_see_every_clock_and_no_stepped_evolution():
    # the clocks read one Chebyshev block, so the Crank-Nicolson hook on
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

    def recording_run_meter(*args, **kwargs):
        runs.append(meter.run_meter(*args, **kwargs))
        return runs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "run_meter", recording_run_meter)
        with tracer.installed():
            scenarios.run_scenario(catalog()["well_halves"], pipelines=("meter",))
    spans = [s for s in tracer.spans if s["name"] == "meter.run_meter"]
    assert len(spans) == len(runs) == len(scenarios.METER_LADDER)
    for span, run in zip(spans, runs):
        assert tracer.spans[span["parent"]]["name"] == "scenarios.run_scenario"
        assert span["modes_kept_computed"] == run.modes_kept
    assert tracing.layer_metrics(tracer, 1)["meter.run_meter.calls"] == len(runs)
