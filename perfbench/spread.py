#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload serve-uniform --runs 10 --seconds 20

Runs the benchmark once per seed 1..runs, then prints
for each end-to-end metric its median, quartiles and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json, the
median share of CPU time the hypervisor withheld from the runs (steal), and
the median host slowdown the probe read (see probe.hpp).
Quartiles are Python's statistics.quantiles(values, n=4).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    steal, slowdown = [], []
    for seed in range(1, args.runs + 1):
        r = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                            "--workload", args.workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"],
                           cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if r.returncode != 0:
            print(f"seed {seed}: run failed with {r.returncode}", file=sys.stderr)
            return 1
        metrics = json.loads(r.stdout.strip().split("\n")[-1])["metrics"]
        for name in values:
            values[name].append(metrics[name]["value"])
        record = os.path.join(ROOT, ".bench_results", f"{args.workload}-seed{seed}-trace0.json")
        with open(record) as f:
            record = json.load(f)
        steal.append(record["host_steal_share"])
        slowdown.append(record["facts"]["host_slowdown"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items())
              + f", steal={steal[-1]:.3f}, slowdown={slowdown[-1]:.2f}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, "
          f"median steal share {statistics.median(steal):.3f}, "
          f"median host slowdown {statistics.median(slowdown):.2f}")
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print(f"{m['name']:<14}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
              f"{(q3 - q1) / med:>9.3f}{m['bound']:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
