"""Correctness gate applied to every scenario the benchmark runs.

A scenario fails when it raises, when a bundle lacks the records of a
pipeline it asked for, when a sum rule is flagged `violated`, when a clock
or meter value lies outside max(0.01 |ref|, residual) of its sojourn
reference (the `weaktime compare` rule, extended to the meter), when a
catalog scenario with a closed-form dwell time misses it by more than
1e-8, or when its emitted bytes differ between passes (checked by the
caller).  Flags such as `negative` or `anomalous` are documented
outcomes, not failures.
"""

from __future__ import annotations

ROUTE_TOLERANCE = 0.01
EXACT_TOLERANCE = 1e-8
PIPELINE_METHODS = {"sojourn": "sojourn", "clocks": "clock_", "meter": "meter"}


def exact_dwell(name: str, duration: float):
    """Closed-form unconditioned dwell time of a catalog scenario, or None."""
    return {"free_box": duration, "well_halves": 0.5 * duration}.get(name)


def check_bundle(scenario, pipelines, bundle) -> tuple[list[str], float]:
    """Failures found in `bundle`, and the worst route deviation as a share
    of its allowance (diagnostic, not gated)."""
    failures = []
    records = bundle.records
    for pipeline in pipelines:
        prefix = PIPELINE_METHODS[pipeline]
        if not any(r.method.startswith(prefix) for r in records):
            failures.append(f"no {pipeline} records")
    reference = {
        (r.postselection, r.order): r.value for r in records if r.method == "sojourn"
    }
    worst = 0.0
    for r in records:
        if r.method == "sum_rule" and "violated" in r.flags.split(";"):
            failures.append(f"sum rule l={r.order} violated by {r.value:.3e}")
        if not (r.method.startswith("clock_") or r.method == "meter"):
            continue
        ref = reference.get((r.postselection, r.order), reference.get(("none", r.order)))
        if ref is None:
            failures.append(f"{r.method}/{r.postselection} has no sojourn reference")
            continue
        allowed = max(ROUTE_TOLERANCE * max(abs(ref), 1e-12), r.residual)
        ratio = abs(r.value - ref) / allowed
        worst = max(worst, ratio)
        if ratio > 1.0:
            failures.append(
                f"{r.method}/{r.postselection} = {r.value:.10g} vs sojourn {ref:.10g}"
            )
    exact = exact_dwell(scenario.name, scenario.duration())
    if exact is not None:
        tau = reference.get(("none", 1))
        if tau is None or abs(tau - exact) > EXACT_TOLERANCE:
            failures.append(f"dwell time {tau!r} differs from {exact!r}")
    return failures, worst
