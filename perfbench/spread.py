#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and spread.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--seconds S] [workload ...]

Run from the repository root.  The spread is the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median; each is compared with the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def spread(values):
    """(median, interquartile distance / median) of a list of numbers."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def run_once(workload, seed, seconds):
    t0 = time.monotonic()
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else "{}"
    return r.returncode, json.loads(last), time.monotonic() - t0


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for w in args.workloads:
        values = {m: [] for m in bounds}
        for i in range(args.runs):
            code, res, elapsed = run_once(w, args.first_seed + i, args.seconds)
            if code != 0 or not res.get("correct"):
                print("%s seed %d: failed (exit %d)" % (w, args.first_seed + i, code))
                sys.exit(1)
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            print("%-13s seed %-4d %3.0fs %s" % (w, args.first_seed + i, elapsed, " ".join(
                "%s=%.4g" % (m, values[m][-1]) for m in bounds)))
            sys.stdout.flush()
        for m, vs in values.items():
            med, sp = spread(vs)
            share = sp / bounds[m]
            if m != "setup_s":
                worst = max(worst, share)
            print("%-13s %-26s median %12.6g  spread %6.3f  bound %.2f  (%.0f%% of bound)"
                  % (w, m, med, sp, bounds[m], 100 * share))
        sys.stdout.flush()
    print("largest spread (setup_s aside): %.0f%% of its bound" % (100 * worst))


if __name__ == "__main__":
    main()
