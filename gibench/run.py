"""Benchmark of graphbind's isomorphism decision and audit suite.

Run from the repository root:

    python3 gibench/run.py --workload decide-random --seed 1 --seconds 30 --trace 0

One single-threaded process per run.  With --trace 0 it times whole
operations for up to --seconds seconds (at least one) after an untimed
warm-up and prints the end-to-end metrics; with --trace 1 it runs an
untraced and a traced copy of each operation and prints the per-layer
metrics.  The last line of standard output is one JSON object; details go to
gibench/results/.  See gibench/README.md.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Single-threaded BLAS, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Every run compiles the same sources instead of reading a cache that only
# later runs in a checkout would find.
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
RESULTS = HERE / "results"

import tracing  # noqa: E402  (imports no graphbind module itself)

# Per-layer metrics printed on stdout, as listed in BENCHMARK.json.  Self
# times are printed only for layers that every workload runs, so that no time
# reads zero on every run of a workload; the trace file in results/ holds
# every layer's self time, and the call counts below cover the rest.
SHARED_TIMED = [
    "refine.sas_step",
    "refine.fixpoint",
    "refine.seed",
    "binding.wing_graph",
    "binding.binding_graph",
    "decide.gi_decide",
    "partition.vertex_partition",
]
COUNTED = SHARED_TIMED + [
    "refine.wl_step",
    "partition.is_equitable",
    "partition.is_strongly_equitable",
    "descgraph.gamma",
    "descgraph.spectral",
    "descgraph.adjoint",
    "core.equivalent_variable_substitution",
    "oracle.automorphism_orbits",
    "oracle.is_isomorphic_bruteforce",
]
PEAK_LAYERS = ["refine.sas_step", "refine.wl_step"]
PER_LAYER = (
    [f"{layer}.self_s" for layer in SHARED_TIMED]
    + [f"{layer}.calls" for layer in COUNTED]
    + [f"{layer}.peak_mb" for layer in PEAK_LAYERS]
    + ["refine.stable_dim", "trace.overhead_s"]
)
MB = 1024 * 1024


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import graphbind from this checkout's src/, never from elsewhere."""
    if not (SRC / "graphbind" / "__init__.py").is_file():
        raise SystemExit(f"graphbind sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphbind

    if Path(graphbind.__file__).resolve().parent != SRC / "graphbind":
        raise SystemExit(f"imported graphbind from {graphbind.__file__}, not {SRC}")


class Outcomes:
    """Attempted and failed operations; a wrong output also clears `correct`."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def attempt(self, workload, i: int, inp, call):
        """Run call(inp), time it and check its output; returns (seconds, output or None)."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            out = call(inp)
        except Exception as exc:  # an operation the program failed counts, the run goes on
            self.failed += 1
            self.problems.append(f"op {i}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - started, None
        elapsed = time.perf_counter() - started
        problems = workload.check(inp, out)
        if problems:
            self.failed += 1
            self.correct = False
            self.problems.extend(f"op {i}: {p}" for p in problems)
        return elapsed, out


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cores": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def another_round(phase_start: float, rounds: int, seconds: float) -> bool:
    """Whether one more whole round, at the mean round time so far, ends
    within `seconds` of the start of the phase."""
    elapsed = time.perf_counter() - phase_start
    return elapsed + elapsed / rounds <= seconds


def run_timed(workload, seconds: float, outcomes: Outcomes) -> dict:
    times = []
    i = 1
    phase_start = time.perf_counter()
    while True:
        inp = workload.inputs(i)
        elapsed, out = outcomes.attempt(workload, i, inp, workload.run)
        if out is not None:
            times.append(elapsed)
        if not another_round(phase_start, i, seconds):
            break
        i += 1
    return {"op_seconds": times}


def run_traced(workload, seconds: float, outcomes: Outcomes) -> dict:
    plain, traced, per_op = [], [], []
    i = 1
    phase_start = time.perf_counter()
    while True:
        inp = workload.inputs(i)
        t_plain, out_plain = outcomes.attempt(workload, i, inp, workload.run)
        tracer = tracing.Tracer()
        with tracing.rebound(tracer.wrapper, checks=True):
            t_traced, out_traced = outcomes.attempt(
                workload, i, inp, lambda x: tracer.call(tracing.ROOT, workload.run, x)
            )
        if out_plain is not None and out_traced is not None:
            if workload.fingerprint(out_plain) != workload.fingerprint(out_traced):
                outcomes.correct = False
                outcomes.problems.append(f"op {i}: traced output differs from untraced output")
            plain.append(t_plain)
            traced.append(t_traced)
            summary = tracer.summary()
            summary["op_s"] = t_traced
            per_op.append(summary)
        i += 1
        if not another_round(phase_start, i - 1, seconds):
            break

    recorder = tracing.PeakRecorder()
    with recorder.tracing():
        outcomes.attempt(workload, i, workload.inputs(i), workload.run)
    return {
        "untraced_op_seconds": plain,
        "traced_op_seconds": traced,
        "per_op": per_op,
        "peak_mb": {k: v / MB for k, v in recorder.peak_bytes.items()},
    }


def layer_metrics(detail: dict) -> dict:
    """Every per-layer metric, as a mean per traced op; zero for layers the
    workload does not run."""
    per_op = detail["per_op"]

    def mean(key, layer):
        return sum(op[key].get(layer, 0) for op in per_op) / len(per_op)

    layers = list(dict.fromkeys(layer for layer, *_ in tracing.LAYERS))
    metrics = {}
    for layer in layers:
        metrics[f"{layer}.self_s"] = {"value": mean("self_s", layer), "unit": "s"}
        metrics[f"{layer}.calls"] = {"value": mean("calls", layer), "unit": "count"}
    for check in sys.modules["graphbind.validate"].CHECKS:
        metrics[f"validate.{check}.s"] = {"value": mean("total_s", f"validate.{check}"), "unit": "s"}
    for layer in PEAK_LAYERS:
        metrics[f"{layer}.peak_mb"] = {"value": detail["peak_mb"].get(layer, 0.0), "unit": "MB"}
    dims = [d for op in per_op for d in op["stable_dims"]]
    metrics["refine.stable_dim"] = {"value": sum(dims) / len(dims), "unit": "count"}
    overhead = statistics.median(detail["traced_op_seconds"]) - statistics.median(
        detail["untraced_op_seconds"]
    )
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def span_coverage(detail: dict) -> dict:
    """How the library spans' self times add up against the op's wall time.

    The root span's self time is what no library span covers; the untraced
    ratio compares the same sum with the untraced copy of the op.
    """
    per_op = detail["per_op"]
    library = [op["op_s"] - op["self_s"][tracing.ROOT] for op in per_op]
    return {
        "max_uncovered_share": max(op["self_s"][tracing.ROOT] / op["op_s"] for op in per_op),
        "library_self_over_untraced_op": [
            s / t for s, t in zip(library, detail["untraced_op_seconds"])
        ],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    imported = time.perf_counter()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    warm_inputs = workload.inputs(0)
    generated = time.perf_counter()
    warm = Outcomes()  # the warm-up is set-up, not a timed operation
    warm.attempt(workload, 0, warm_inputs, workload.run)
    setup_done = time.perf_counter()
    setup = {
        "setup_s": setup_done - STARTED,
        "import_s": imported - STARTED,
        "inputs_s": generated - imported,
        "warmup_s": setup_done - generated,
    }
    outcomes = Outcomes()

    if args.trace:
        detail = run_traced(workload, args.seconds, outcomes)
        detail["all_layer_metrics"] = layer_metrics(detail)
        detail["span_coverage"] = span_coverage(detail)
        metrics = {name: detail["all_layer_metrics"][name] for name in PER_LAYER}
    else:
        detail = run_timed(workload, args.seconds, outcomes)
        times = detail["op_seconds"]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup": setup,
        "problems": warm.problems + outcomes.problems,
        "metrics": metrics,
        "detail": detail,
    }
    name = f"{args.workload}-seed{args.seed}-{'trace' if args.trace else 'timed'}.json"
    with open(RESULTS / name, "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in record["problems"]:
        print(problem, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": outcomes.correct and warm.failed == 0,
                "attempted": outcomes.attempted,
                "failed": outcomes.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
