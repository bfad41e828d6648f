#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs the command of BENCHMARK.json ten times per workload, each time with
another --seed, and prints for every end-to-end metric the distance between
the first and third quartile of its ten values as a share of their median,
next to the metric's bound. Exits non-zero when a spread (other than
setup_s's) exceeds its bound, or an operation failed.

    python3 benchmark/spread.py [--runs 10] [--first-seed 101] [--workload NAME]...

Run from the repository root. CARGO_TARGET_DIR is honoured, so the build is
reused between runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out", help="also write every run's result line to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = open(args.out, "a") if args.out else None

    bad = False
    for w in workloads:
        values = {name: [] for name in bounds}
        started = time.time()
        for i in range(args.runs):
            cmd = spec["command"] + [
                "--workload", w,
                "--seed", str(args.first_seed + i),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "0",
            ]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
            line = out.strip().splitlines()[-1]
            if log:
                log.write(json.dumps({"workload": w, "seed": args.first_seed + i}) + " " + line + "\n")
                log.flush()
            result = json.loads(line)
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {args.first_seed + i}: {result['failed']} failed operations")
                bad = True
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        per_run = (time.time() - started) / args.runs
        print(f"{w}  ({per_run:.1f} s per run)")
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if name != "setup_s" and spread > bounds[name]:
                flag = "  <-- beyond bound"
                bad = True
            elif spread > bounds[name] / 3:
                flag = "  (above a third of the bound)"
            print(f"  {name:<14} median {med:>14.6f}  spread {100 * spread:6.2f}%  bound {100 * bounds[name]:5.1f}%{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
