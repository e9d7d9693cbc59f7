"""The benchmark's trace hooks still find the entry points they wrap.

`perfbench/tracing.py` patches named functions of the package from
outside; a renamed or moved entry point would only show as a KeyError in a
traced benchmark run.  These tests enter its patches on a clocks-only and a
meter-only scenario: every Crank-Nicolson evolution is attributed to a
clock, and every meter run is one span per coupling of the ladder.
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


def test_trace_hooks_attribute_every_evolution_to_a_clock():
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracer.installed():
        scenarios.run_scenario(catalog()["well_halves"], pipelines=("clocks",))
    evolutions = [s for s in tracer.spans if s["name"] == "dynamics.evolve"]
    assert evolutions
    for span in evolutions:
        owners = []
        while span["parent"] is not None:
            span = tracer.spans[span["parent"]]
            owners.append(span["name"])
        assert any(name.startswith("clocks.") for name in owners), owners
    metrics = tracing.layer_metrics(tracer, 1)
    per_clock = sum(metrics[f"clocks.{c}.evolutions"] for c in tracing.CLOCK_LAYERS)
    assert per_clock == metrics["dynamics.evolve.calls"] == len(evolutions)


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
