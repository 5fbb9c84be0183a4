"""Run one workload of the widebeam benchmark and print its metrics.

    python3 perfbench/run.py --workload designed_eval --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: the library is imported from
src/.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metrics are the end-to-end ones
with --trace 0 and the per-layer ones with --trace 1.  Without --workload,
every workload runs in turn, each in a process of its own, so that each
reports its own peak memory.  Each run also leaves
its environment, checks and, when traced, its spans in perfbench/results/.
perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="the workload to run; all of them when omitted")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="time budget of the timed passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "widebeam").is_dir():
        print(f"error: no widebeam sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy loads: at most two threads,
    # never more than the cores this process may use
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload is None:
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = [subprocess.run([sys.executable, __file__, "--workload", name, *rest]).returncode
                 for name in harness.WORKLOADS]
        return max(codes)
    if args.workload not in harness.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(harness.WORKLOADS)}")
    harness.main(harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
