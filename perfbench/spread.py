#!/usr/bin/env python3
"""Runs the benchmark on several seeds and summarises each metric.

Usage, from the repository root:
  python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds 10]
                              [--trace 0|1]

For every workload and metric it prints the median, the first and third
quartile (statistics.quantiles(values, n=4)), and the spread: the
distance between the quartiles as a share of the median. It also prints
the share of failed operations of every run. Runs go one after another,
never in parallel, so they do not disturb each other's timings.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=900)
    if out.returncode != 0:
        raise SystemExit("%s seed %d exited %d" % (workload, seed, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        results = [run(workload, s, args.seconds, args.trace)
                   for s in seeds_of(args.seeds)]
        rows = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else None,
                          "unit": results[0]["metrics"][name]["unit"]}
        summary[workload] = {
            "correct": all(r["correct"] for r in results),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
            "metrics": rows,
        }
        for name, row in rows.items():
            spread = "-" if row["spread"] is None else "%.4f" % row["spread"]
            print("%-13s %-34s median %-12.6g q1 %-12.6g q3 %-12.6g spread %s %s"
                  % (workload, name, row["median"], row["q1"], row["q3"],
                     spread, row["unit"]), flush=True)
        print("%-13s correct %s failed share %s" % (
            workload, summary[workload]["correct"],
            summary[workload]["failed_share"]), flush=True)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
