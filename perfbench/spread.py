#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload train-reddit-process \\
        --seeds 1 2 3 4 5 6 7 8 9 10 [--trace 0] [--seconds 30]

For every metric it prints the median of the per-seed values and the
spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound from ``BENCHMARK.json``.  Runs are sequential; the
raw result lines are appended to ``--log`` when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--log")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict = {}
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload,
                                 "--seed", str(seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        line = proc.stdout.strip().splitlines()[-1]
        result = json.loads(line)
        if args.log:
            with open(args.log, "a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                     "wall_s": wall, "result": result})
                         + "\n")
        print(f"seed {seed}: {wall:.1f} s wall, correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':32s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / abs(med):8.3f}"
        else:
            spread = f"{'-':>8s}"
        bound = bounds.get(name)
        print(f"{name:32s} {med:12.5g} {spread} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
