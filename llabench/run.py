"""Run one benchmark workload and print its report.

Usage, from the root of a checkout::

    python3 llabench/run.py --workload solve --seed 7 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The line before it holds the run's host diagnostics.
Traced runs also write their spans to ``.llabench/``.  The program under
test is imported from ``src/`` next to this directory; without it the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

# Pin numpy/BLAS thread pools before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = ".llabench"


def calibration_s(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a host-speed diagnostic
    recorded beside the metrics, never used to rescale them."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve", "nonlinear", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum measured time (serve: sizes the "
                             "churn script)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to benchmark: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    wall0 = time.perf_counter()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    calib_before = calibration_s()

    from llabench.workloads import run_workload

    outcome, tracer = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        os.path.join(os.getcwd(), OUT_DIR),
    )
    if tracer is not None:
        tracer.write(os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))

    calib_after = calibration_s()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    wall = time.perf_counter() - wall0
    cpu = (usage.ru_utime - usage0.ru_utime) + (usage.ru_stime - usage0.ru_stime)
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    print(json.dumps({"diagnostics": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "wall_s": wall, "cpu_wall_ratio": cpu / wall if wall > 0 else 0.0,
        "involuntary_ctx_switches": usage.ru_nivcsw - usage0.ru_nivcsw,
        "calibration_before_s": calib_before,
        "calibration_after_s": calib_after,
    }}))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
