"""Benchmark command: one run of one workload, printed as one JSON line.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload sync_small --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` measures the per-layer metrics with timers around each layer's
entry points.  The last line of standard output is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before it is
a report with the figures behind the metrics.  Correctness problems are
listed on standard error.  The command exits with status 2, printing no
result, when the program's source (``src/repro``) is not next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("sync_small", "batched_writes", "open_loop_reads", "transformed_app")


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Dual-clock benchmark of the repro middleware.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True, help="wall seconds of timed windows"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"perfbench: program source not found under {SOURCE}", file=sys.stderr)
        return 2
    sys.path[:0] = [SOURCE, ROOT]
    from perfbench import runner

    if args.trace:
        metrics, run, report = runner.measure_per_layer(args.workload, args.seed, args.seconds)
        units = runner.PER_LAYER
    else:
        metrics, run, report = runner.measure_end_to_end(args.workload, args.seed, args.seconds)
        units = {name: unit for name, (unit, _) in runner.END_TO_END.items()}
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    report["problems"] = len(run.problems)
    print(json.dumps({"report": report}))
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
