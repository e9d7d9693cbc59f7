"""Command-line front end.

Verbs:
  validate  check a scenario configuration, print warnings
  run       execute the configured pipelines and emit results
  sweep     run the clock sweeps only and emit the sweep data as JSON
  compare   run all three pipelines and report the clocks' and the meter's
            agreement with sojourn
  emit      re-emit a previously written JSON bundle in another format

Exit codes: 0 success, 1 validation failure, 2 numerical failure, 3 IO.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import NumericalError, ValidationError, WeaktimeError
from .scenarios import (
    bundle_from_dict,
    emit,
    parse_config,
    run_scenario,
    scenario_from_config,
    validate_scenario,
    write_text,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weaktime",
        description="Traversal-time laboratory: weak values, clocks and meters.",
    )
    parser.add_argument("verb", choices=["validate", "run", "sweep", "compare", "emit"])
    parser.add_argument("--config", required=True,
                        help="scenario config file (or bundle JSON for 'emit')")
    parser.add_argument("--out-dir", default=".", help="output directory")
    parser.add_argument("--format", default="csv", choices=["csv", "json", "both"])
    return parser


def _load_scenario(path: str):
    with open(path) as fh:
        return scenario_from_config(parse_config(fh.read()))


def _cmd_validate(args) -> int:
    scenario = _load_scenario(args.config)
    notes = validate_scenario(scenario)
    print(f"{scenario.name}: valid")
    for note in notes:
        print(f"  warning: {note}")
    return EXIT_OK


def _cmd_run(args) -> int:
    scenario = _load_scenario(args.config)
    bundle = run_scenario(scenario)
    for path in emit(bundle, fmt=args.format, out_dir=args.out_dir):
        print(path)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    scenario = _load_scenario(args.config)
    bundle = run_scenario(scenario, pipelines=("clocks",))
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, f"{bundle.scenario}_sweeps.json")
    write_text(path, json.dumps(bundle.sweeps, sort_keys=True) + "\n")
    print(path)
    return EXIT_OK


def _cmd_compare(args) -> int:
    scenario = _load_scenario(args.config)
    bundle = run_scenario(scenario, pipelines=("sojourn", "clocks", "meter"))
    reference = {
        (r.postselection, r.order): r.value
        for r in bundle.records
        if r.method == "sojourn"
    }
    worst, where = 0.0, ""
    ok = True
    print("method,postselection,value,reference,deviation,allowed")
    for r in bundle.records:
        if not (r.method.startswith("clock_") or r.method == "meter"):
            continue
        key = (r.postselection, r.order)
        ref = reference.get(("none", r.order) if key not in reference else key)
        if ref is None:
            continue
        # the residual first: max keeps its first argument when the other
        # is NaN, so a NaN residual allows nothing and its record fails
        allowed = max(r.residual, r.tolerance * max(abs(ref), 1e-12))
        dev = abs(r.value - ref)
        ratio = dev / allowed if allowed else 0.0
        # a NaN ratio is worse than any other, and the first one stays
        if not math.isnan(worst) and not ratio <= worst:
            worst, where = ratio, f" at {r.method},{r.postselection},{r.order}"
        if not dev <= allowed:
            ok = False
        print(f"{r.method},{r.postselection},{r.value:.10g},{ref:.10g},"
              f"{dev:.3e},{allowed:.3e}")
    named = where if math.isnan(worst) else ""
    print(f"agreement: {'ok' if ok else 'FAILED'} (worst ratio {worst:.3f}{named})")
    return EXIT_OK if ok else EXIT_NUMERICAL


def _cmd_emit(args) -> int:
    with open(args.config) as fh:
        bundle = bundle_from_dict(json.load(fh))
    for path in emit(bundle, fmt=args.format, out_dir=args.out_dir):
        print(path)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "compare": _cmd_compare,
        "emit": _cmd_emit,
    }
    try:
        return handlers[args.verb](args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except WeaktimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
