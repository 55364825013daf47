#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and record a baseline.

From the repository root:

    python3 cmd/ambench/spread.py --runs 10 --sets 2 --out cmd/ambench/baseline.json

Runs BENCHMARK.json's command (--trace 0) on each workload --runs times per
set, each run with another seed, then prints for every end-to-end metric
each set's median, quartiles and spread (interquartile range over the
median), the metric's bound, and the change between the first and the last
set's medians, worse-direction positive. Quartiles are those of
statistics.quantiles(values, n=4). A spread above a third of the bound, or
a change above the bound, is flagged. --out writes the same numbers as
JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

BENCHMARK = "BENCHMARK.json"


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    return {name: m["value"] for name, m in res["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--sets", type=int, default=2, help="independent sets of runs")
    ap.add_argument("--workload", action="append", help="limit to these workloads")
    ap.add_argument("--out", help="write the summary as JSON to this file")
    args = ap.parse_args()

    with open(BENCHMARK) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    summary = {}
    flagged = 0
    started, nruns = time.monotonic(), 0
    for w in workloads:
        sets = []
        for s in range(args.sets):
            runs = [run_once(bench["command"], w, s * args.runs + i + 1, bench["run_seconds"])
                    for i in range(args.runs)]
            sets.append({m["name"]: summarize([r[m["name"]] for r in runs]) for m in metrics})
            nruns += len(runs)
        summary[w] = {}
        print(f"{w}:")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            per_set = [st[name] for st in sets]
            first, last = per_set[0]["median"], per_set[-1]["median"]
            change = (last - first) / first
            if m["better"] == "higher":
                change = -change
            spreads = [p["spread"] for p in per_set]
            bad = change > bound or (name != "setup_s" and max(spreads) > bound / 3)
            flagged += bad
            summary[w][name] = {"bound": bound, "change": change, "sets": per_set}
            cells = "  ".join(f"{p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] spread {p['spread']:.3f}"
                              for p in per_set)
            print(f"  {name:14} {cells}  change {change:+.3f} bound {bound}{'  <-- check' if bad else ''}")
    print(f"{nruns} runs, {(time.monotonic() - started) / nruns:.1f} s per run including build checks")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
