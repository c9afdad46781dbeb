"""Check that a fixed seed reproduces every simulated end-to-end metric exactly.

Runs the benchmark command twice per workload at the same seed, in separate
processes and with different window budgets, and compares the simulated
metrics bit for bit.  Wall-clock metrics are expected to differ and are not
compared.  Run from the root of a checkout::

    python3 perfbench/check_seed.py --seed 7

Exits 0 when every simulated metric repeats and every run was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("sync_small", "batched_writes", "open_loop_reads", "transformed_app")
SIMULATED = (
    "sim_calls_per_s",
    "sim_ms_p50",
    "sim_ms_p99",
    "max_rate_at_slo",
    "success_rate",
    "exec_per_ack",
)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    mismatches = 0
    for workload in args.workload or WORKLOADS:
        first, second = run_once(workload, args.seed, 1), run_once(workload, args.seed, 2)
        for result in (first, second):
            if not result["correct"]:
                print(f"{workload}: run reported incorrect results")
                mismatches += 1
        for name in SIMULATED:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            verdict = "same" if a == b else "DIFFERS"
            mismatches += a != b
            print(f"{workload:16s} {name:16s} {a!r:>24} {b!r:>24} {verdict}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
