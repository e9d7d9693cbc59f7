"""Spans around the layers' public entry points, recorded from outside.

The modules import each other by name, so a layer is wrapped where its
caller looks it up: `weaktime.scenarios.run_meter`, not
`weaktime.meter.run_meter`, which `run_scenario` never reads again.  The
patches are installed only for traced passes and removed afterwards, so
untraced passes run the unmodified program.
"""

from __future__ import annotations

import functools
import os
import time
import weakref
from contextlib import contextmanager

import numpy as np

from weaktime import clocks, dynamics, meter
from weaktime import scenarios as S


def _steps(args, kwargs, result):
    _, prop, t_from, t_to = args[:4]
    return {"steps": int(round((t_to - t_from) / prop.dt))}


def _modes_kept(args, kwargs, result):
    # computed from the pointer profile and the cutoff the call used, the
    # way run_meter selects modes; run_meter does not report the count
    spec = args[0]
    cutoff = kwargs.get("mode_cutoff", meter.DEFAULT_MODE_CUTOFF)
    coeffs = np.abs(np.fft.fft(spec.initial_state().amplitudes))
    return {
        "modes_kept_computed": int(np.count_nonzero(coeffs > cutoff * coeffs.max())),
        "norm_drift": float(result.norm_drift),
    }


def _emitted_bytes(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


# (owner, attribute, layer, attributes read from the call)
PATCHES = (
    (S, "run_scenario", "scenarios.run_scenario", None),
    (S, "validate_scenario", "scenarios.validate_scenario", None),
    (S, "emit", "scenarios.emit", _emitted_bytes),
    (S, "sojourn_matrix", "sojourn.sojourn_matrix", None),
    (S, "dwell_time", "sojourn.readout", None),
    (S, "conditional_dwell_time", "sojourn.readout", None),
    (S, "moment", "sojourn.readout", None),
    (S, "moment_sum", "sojourn.readout", None),
    (S, "clock_real_potential", "clocks.real_potential", None),
    (S, "clock_imaginary_potential", "clocks.imaginary_potential", None),
    (S, "clock_larmor", "clocks.larmor", None),
    (S, "absorption_survival_dwell", "clocks.absorption_norm", None),
    (S, "run_meter", "meter.run_meter", _modes_kept),
    (S, "pointer_distribution", "meter.pointer_distribution", None),
    (clocks, "evolve", "dynamics.evolve", _steps),
    (dynamics.Hamiltonian, "eigensystem", "dynamics.eigensystem", None),
)

CLOCK_LAYERS = ("real_potential", "imaginary_potential", "larmor", "absorption_norm")


class Tracer:
    """In-memory span recorder.  Each span is a dict with id, name, parent,
    request (the scenario run it belongs to), start, end and attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.request = None
        self._asked: weakref.WeakSet = weakref.WeakSet()
        self.distinct_hamiltonians = 0

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, attrs_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "dynamics.eigensystem" and args[0] not in tracer._asked:
                tracer._asked.add(args[0])
                tracer.distinct_hamiltonians += 1
            with tracer.span(name) as rec:
                result = fn(*args, **kwargs)
            if attrs_fn is not None:
                rec.update(attrs_fn(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry point in PATCHES for the duration of the block."""
        originals = []
        try:
            for owner, attr, name, attrs_fn in PATCHES:
                fn = owner.__dict__[attr]
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, attrs_fn))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)


def _busy(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass layer totals from the spans of `passes` traced passes."""
    spans = tracer.spans
    by_name: dict[str, list[dict]] = {}
    children: dict[int, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def self_time(name):
        return sum(
            (s["end"] - s["start"]) - _busy(children.get(s["id"], [])) for s in named(name)
        )

    def clock_of(s):
        while s["parent"] is not None:
            s = spans[s["parent"]]
            if s["name"].startswith("clocks."):
                return s["name"]
        return None

    evolutions: dict[str, int] = {}
    for s in named("dynamics.evolve"):
        owner = clock_of(s)
        evolutions[owner] = evolutions.get(owner, 0) + 1

    meter_runs = named("meter.run_meter")
    totals = {
        "dynamics.evolve.calls": len(named("dynamics.evolve")),
        "dynamics.evolve.steps": sum(s["steps"] for s in named("dynamics.evolve")),
        "dynamics.evolve.busy_s": _busy(named("dynamics.evolve")),
        "dynamics.eigensystem.calls": len(named("dynamics.eigensystem")),
        "dynamics.eigensystem.distinct": tracer.distinct_hamiltonians,
        "dynamics.eigensystem.busy_s": _busy(named("dynamics.eigensystem")),
        "sojourn.sojourn_matrix.calls": len(named("sojourn.sojourn_matrix")),
        "sojourn.sojourn_matrix.self_s": self_time("sojourn.sojourn_matrix"),
        "sojourn.readout.calls": len(named("sojourn.readout")),
        "sojourn.readout.busy_s": _busy(named("sojourn.readout")),
        "meter.run_meter.calls": len(meter_runs),
        "meter.run_meter.busy_s": _busy(meter_runs),
        "meter.run_meter.modes_kept_computed": sum(s["modes_kept_computed"] for s in meter_runs),
        "meter.pointer_distribution.calls": len(named("meter.pointer_distribution")),
        "meter.pointer_distribution.busy_s": _busy(named("meter.pointer_distribution")),
        "scenarios.validate_scenario.busy_s": _busy(named("scenarios.validate_scenario")),
        "scenarios.run_scenario.self_s": self_time("scenarios.run_scenario"),
        "scenarios.emit.busy_s": _busy(named("scenarios.emit")),
        "scenarios.emit.bytes": sum(s["bytes"] for s in named("scenarios.emit")),
    }
    for clock in CLOCK_LAYERS:
        name = f"clocks.{clock}"
        totals[f"{name}.busy_s"] = _busy(named(name))
        totals[f"{name}.evolutions"] = evolutions.get(name, 0)
    out = {k: v / passes for k, v in totals.items()}
    # a maximum, not a per-pass total
    out["meter.run_meter.norm_drift_max"] = max(
        (s["norm_drift"] for s in meter_runs), default=0.0
    )
    return out
