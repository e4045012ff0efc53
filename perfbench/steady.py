#!/usr/bin/env python3
"""Steadiness check: how much each end-to-end metric moves between runs.

    python3 perfbench/steady.py [--workloads a,b] [--sets 1]

Runs every workload (default: all in BENCHMARK.json) ten times through
run.py, with seeds 1 to 10, and prints for each end-to-end metric
the median, the quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median and the largest deviation from the median, set against
the metric's bound from BENCHMARK.json. A spread below a third of the
bound is marked "ok". Each run's line also shows the share of the
machine's CPU time the host took while it ran (steal, from /proc/stat),
which is what moves the timings most on a shared host. setup_s is exempt
from the spread rule; its bound limits how far the median of a second set
may move. With --sets 2 a second set of runs follows the first (same
seeds), and the table adds the second set's spread and how far each median
moved, which must stay within the bound. The share of failed operations is printed per set; it
must be identical between sets.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit("steady.py: %s seed %d exited %d" % (workload, seed, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_set(workload, seeds, seconds):
    results = []
    for seed in seeds:
        steal0, total0 = cpu_ticks()
        r = one_run(workload, seed, seconds)
        steal1, total1 = cpu_ticks()
        results.append(r)
        steal = (steal1 - steal0) / max(1, total1 - total0)
        print("  %s seed %d (host steal %.1f%%): %s" % (workload, seed, 100 * steal, ", ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in r["metrics"].items())), flush=True)
    return results


def summary(results, metric):
    xs = [r["metrics"][metric]["value"] for r in results]
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return med, q1, q3, (q3 - q1) / med, max(abs(x - med) for x in xs) / med


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", help="comma-separated; default all")
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (a.workloads.split(",") if a.workloads
                 else [w["name"] for w in spec["workloads"]])
    for w in workloads:
        sets = [run_set(w, SEEDS, spec["run_seconds"]) for _ in range(a.sets)]
        print("\n%s (%d runs per set, seeds %d..%d)" % (w, len(SEEDS), SEEDS[0], SEEDS[-1]))
        for i, results in enumerate(sets):
            att = sum(r["attempted"] for r in results)
            fail = sum(r["failed"] for r in results)
            print("  set %d: failed %d of %d attempted (share %.6g)" % (i + 1, fail, att, fail / att))
        print("  %-18s %12s %12s %12s %8s %8s %6s %8s %8s %s" % (
            "metric", "median", "q1", "q3", "spread", "maxdev", "bound", "spread2",
            "drift", "verdict"))
        for m in spec["end_to_end"]:
            med, q1, q3, spread, maxdev = summary(sets[0], m["name"])
            spread2 = drift = ""
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            if len(sets) == 2:
                med2, _, _, s2, _ = summary(sets[1], m["name"])
                worse = (med2 - med) / med if m["better"] == "lower" else (med - med2) / med
                spread2 = "%.4f" % s2
                drift = "%+.4f" % worse
                ok = ok and (m["name"] == "setup_s" or s2 < m["bound"] / 3)
                ok = ok and worse <= m["bound"]
            print("  %-18s %12.6g %12.6g %12.6g %8.4f %8.4f %6.3g %8s %8s %s" % (
                m["name"], med, q1, q3, spread, maxdev, m["bound"], spread2, drift,
                "ok" if ok else "TOO WIDE"))


if __name__ == "__main__":
    main()
