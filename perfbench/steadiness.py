#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly and reports every
end-to-end metric's median, quartiles and spread against its bound.

    python3 perfbench/steadiness.py [--runs 10] [--sets 1] [--json OUT]

Every workload in BENCHMARK.json runs --runs times per set, run i with seed
1 + i. The spread is (q3 - q1) / median, with the quartiles of
statistics.quantiles(values, n=4). Every metric's spread must stay within its
bound in BENCHMARK.json, and a spread at or above a third of the bound is
flagged. With --sets 2 each set is run in turn, and the second set's median
must not be worse than the first's by more than the bound. The exit code is 0
only when every check holds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d reported incorrect outputs" % (workload, seed))
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative = better)."""
    delta = (second - first) if better == "lower" else (first - second)
    return delta / first if first else float("inf")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--json", default="")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    ok = True
    archive = {}
    for workload in names:
        sets = []
        for s in range(args.sets):
            runs = [run_once(workload, 1 + i, spec["run_seconds"])
                    for i in range(args.runs)]
            sets.append({m["name"]: summarize([r[m["name"]] for r in runs]) for m in metrics})
        archive[workload] = sets
        print("%s (%d runs x %d set(s), seeds 1..%d)" % (
            workload, args.runs, args.sets, args.runs))
        print("  %-16s %12s %12s %12s %8s %7s  %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            for i, per_metric in enumerate(sets):
                summary = per_metric[name]
                verdict = "ok"
                if summary["spread"] >= bound:
                    verdict, ok = "SPREAD ABOVE BOUND", False
                elif summary["spread"] >= bound / 3:
                    verdict = "within bound, above a third of it"
                if i == 1:
                    shift = worse_by(sets[0][name]["median"], summary["median"], m["better"])
                    verdict += ", second median worse by %.4f" % shift
                    if shift > bound:
                        verdict += " ABOVE BOUND"
                        ok = False
                print("  %-16s %12.6g %12.6g %12.6g %8.4f %7.3f  %s" % (
                    name, summary["median"], summary["q1"], summary["q3"], summary["spread"],
                    bound, verdict))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(archive, f, indent=1)
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
