#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs every workload (or the ones named) N times, each with its own
--seed, and prints for each end-to-end metric the median, the first and
third quartiles and the spread (Q3 - Q1) / median beside the metric's
bound, plus the share of failed operations. Run from the checkout root:

    python3 perfbench/steady.py --runs 10 [--first-seed 1] [--workloads discover,milk]
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for wl in names:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.exit(f"{wl} seed {seed}: exit {p.returncode}")
            res = json.loads(lines[-1])
            if not res["correct"]:
                sys.exit(f"{wl} seed {seed}: output check failed")
            results.append(res)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()))
            print(f"{wl} seed {seed}: {vals}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{wl}: failed share {sorted(shares)}")
        print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
            print(f"{name:<18}{med:>12.4g}{q1:>12.4g}{q3:>12.4g}{spread:>9.3f}{bound:>8.2f}{flag}")
        print(flush=True)


if __name__ == "__main__":
    main()
