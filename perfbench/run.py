"""weaktime benchmark: time to a validated result bundle.

    python3 perfbench/run.py --workload {catalog,meter,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/`.  One client runs the workload's scenario list in a closed loop,
pass after pass, until starting another pass would overrun `--seconds`
(at least two passes, so that emitted bytes can be compared between
passes).  Every bundle is emitted as CSV and JSON and checked by the gate
in `gate.py`.  With `--trace 0` the passes run the unmodified program and
the end-to-end metrics are reported; with `--trace 1` untraced and traced
passes alternate and the per-layer metrics of the traced ones are
reported, with the tracing overhead.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  Emitted files and
span traces go to `perfbench/out/`.

BLAS threads are pinned to one before numpy is imported: on a 2-core
machine the default two OpenBLAS threads made a 128-point meter scenario
three times slower.
"""

import os
import sys
import time

SETUP_START = time.perf_counter()
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# keep the checkout free of bytecode files and import cost the same every run
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
if not os.path.isfile(os.path.join(SRC, "weaktime", "__init__.py")):
    sys.exit(f"error: no weaktime package under {SRC}; run from a source checkout")
sys.path.insert(0, SRC)

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from weaktime import scenarios as S  # noqa: E402

MIN_PASSES = 2
SETUP_PROBES = 4  # extra fresh-process set-ups; setup_s is the median with this run's own
PROBE_TIMEOUT_S = 120
WARMUP = "free_box"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up only and print the set-up time")
    return p.parse_args(argv)


def setup(workload: str, seed: int):
    """Generate the inputs and run one warm-up scenario.  Returns the
    scenario list and the set-up time from process start, imports included."""
    items = workloads.build(workload, seed)
    S.run_scenario(S.catalog()[WARMUP])
    return items, time.perf_counter() - SETUP_START


def probe_setups(args) -> list[float]:
    """Set-up times of SETUP_PROBES fresh processes, run one after another."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def environment() -> dict:
    def blas(mod):
        deps = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: deps.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
    }


def tail(samples) -> tuple[float, int]:
    """90th percentile of the scenario times, and how many samples lie
    beyond it.

    A run holds 6 to 60 samples, a fixed mix of scenario types.  The
    highest percentile with ten samples beyond it would fall on a different
    type whenever one more pass fits into the run, so the level is fixed.
    """
    value = statistics.quantiles(samples, n=10, method="inclusive")[-1]
    return value, sum(1 for s in samples if s > value)


class Client:
    """Runs scenarios, emits and gates them, and keeps the tallies."""

    def __init__(self, items, out_dir, tracer):
        self.items = items
        self.out_dir = out_dir
        self.tracer = tracer
        self.first_bytes = {}
        self.attempted = 0
        self.failures = []
        self.route_ratio_max = 0.0

    def run_pass(self, traced: bool) -> list[float]:
        times = []
        patched = self.tracer.installed() if traced else nullcontext()
        with patched:
            for idx, (sc, pipelines) in enumerate(self.items):
                start = time.perf_counter()
                self.tracer.request = f"{self.attempted}:{sc.name}"
                root = self.tracer.span("bench.scenario") if traced else nullcontext()
                try:
                    with root:
                        bundle = S.run_scenario(sc, pipelines=pipelines)
                        paths = S.emit(bundle, fmt="both", out_dir=self.out_dir)
                    emitted = b""
                    for path in paths:
                        with open(path, "rb") as fh:
                            emitted += fh.read()
                    problems, ratio = gate.check_bundle(sc, pipelines, bundle)
                    self.route_ratio_max = max(self.route_ratio_max, ratio)
                    if self.first_bytes.setdefault(idx, emitted) != emitted:
                        problems.append("emitted bytes differ from the first pass")
                except Exception as exc:  # a raising scenario is a counted failure
                    problems = [f"raised {type(exc).__name__}: {exc}"]
                times.append(time.perf_counter() - start)
                self.attempted += 1
                if problems:
                    self.failures.append(f"{sc.name}: {'; '.join(problems)}")
        return times


def main(argv=None) -> int:
    args = _parse(argv)
    items, own_setup = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    setups = [own_setup] + probe_setups(args)
    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    tracer = tracing.Tracer()
    client = Client(items, out_dir, tracer)
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    while True:
        use_trace = bool(args.trace) and len(plain) > len(traced)
        t0 = time.perf_counter()
        times = client.run_pass(use_trace)
        (traced if use_trace else plain).append(time.perf_counter() - t0)
        if not use_trace:
            per_pass.append(times)
        passes = len(plain) + len(traced)
        estimate = statistics.median(plain + traced)
        if passes >= MIN_PASSES and time.perf_counter() - start + estimate > args.seconds:
            break

    failed = len(client.failures)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "pass_s": {"untraced": plain, "traced": traced},
        "fail_frac": failed / client.attempted,
        "failures": client.failures[:10],
        "environment": environment(),
    }
    if args.trace:
        metrics = tracing.layer_metrics(tracer, len(traced))
        metrics["check.route_ratio_max"] = client.route_ratio_max
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"detail": detail, "spans": tracer.spans}, fh)
        detail["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        samples = [t for times in per_pass for t in times]
        tail_value, beyond = tail(samples)
        metrics = {
            "wall_s": statistics.median(plain),
            "scenario_s.p50": statistics.median(samples),
            "scenario_s.tail": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups),
        }
        detail["scenario_s.tail"] = {"percentile": 90, "samples": len(samples),
                                     "beyond": beyond}
        detail["setup_s.samples"] = setups
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        sys.exit(f"error: measured metrics {sorted(metrics)} differ from "
                 f"BENCHMARK.json {sorted(units)}")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


if __name__ == "__main__":
    sys.exit(main())
