"""CPU seconds and minor page faults per benchmark operation, in one process.

    python3 tools/op_control.py SRC WORKLOAD SEED OPS

SRC is the `src/` directory of any checkout; graphbind is imported from
there alone, and the workloads from `gibench/workloads.py` next to this
script, as `tools/identity_digests.py` does.  Operation 0 of WORKLOAD at
SEED runs first as an untimed warm-up, as in the benchmark; then operations
1..OPS run one after another, each checked by the workload.  One line per
operation gives its wall seconds, its CPU seconds (user plus system) and its
minor page faults (`ru_minflt`); a last line gives their medians.

Wall-time medians of a short benchmark run can move by several percent with
heap layout and machine load alone.  CPU seconds follow the work done and
minor faults follow allocation, so two trees' lines on the same operations
tell a change in work from a change in layout.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import time
from pathlib import Path

# Sets single-threaded BLAS before numpy is imported.
from identity_digests import import_graphbind


def usage() -> tuple[float, int]:
    """CPU seconds and minor faults of this process so far."""
    used = resource.getrusage(resource.RUSAGE_SELF)
    return used.ru_utime + used.ru_stime, used.ru_minflt


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", type=Path, help="src/ directory holding graphbind")
    parser.add_argument("workload", help="a gibench workload name")
    parser.add_argument("seed", type=int)
    parser.add_argument("ops", type=int, help="timed operations after the warm-up")
    args = parser.parse_args(argv)
    _, workloads = import_graphbind(args.src.resolve())
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.ops < 1:
        raise SystemExit("OPS must be at least 1")
    workload = workloads.WORKLOADS[args.workload](args.seed)

    rows = []
    for i in range(args.ops + 1):
        inp = workload.inputs(i)
        cpu, faults = usage()
        started = time.perf_counter()
        out = workload.run(inp)
        wall = time.perf_counter() - started
        cpu_after, faults_after = usage()
        problems = workload.check(inp, out)
        if problems:
            raise SystemExit(f"op {i}: " + "; ".join(problems))
        if i == 0:
            continue
        rows.append((wall, cpu_after - cpu, faults_after - faults))
        print(f"op {i:3d}  wall_s={wall:.3f}  cpu_s={rows[-1][1]:.3f}  minflt={rows[-1][2]}", flush=True)
    wall, cpu, faults = (statistics.median(column) for column in zip(*rows))
    print(f"median  wall_s={wall:.3f}  cpu_s={cpu:.3f}  minflt={faults:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
