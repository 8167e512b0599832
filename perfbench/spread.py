"""Run the benchmark once per seed and print each metric's median and spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload rush [--seeds 1-10] [--seconds 20] [--trace 0]

Runs ``perfbench/run.py`` for each seed in turn and prints, per metric,
the median and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median: the
spread the benchmark's bounds are set against. Each run's result line is
printed with the wall time the run took.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", default="0")
    args = p.parse_args()

    results = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=240)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed} ({time.perf_counter() - t0:.1f} s): {json.dumps(result)}",
              flush=True)
        results.append(result)

    print(f"{'metric':40s} {'unit':>6s} {'median':>14s} {'IQR/median':>11s}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        share = 0.0
        if len(values) > 1 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
        print(f"{name:40s} {first['unit']:>6s} {median:14.6g} {share:11.4f}")
    print("attempted", [r["attempted"] for r in results],
          "failed", [r["failed"] for r in results],
          "correct", all(r["correct"] for r in results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
