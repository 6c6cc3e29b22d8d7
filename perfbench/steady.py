#!/usr/bin/env python3
"""Steadiness report: run two sets of ten seeded runs of the same code and compare.

    python3 perfbench/steady.py --out results.jsonl
    python3 perfbench/steady.py --load results.jsonl

Each set runs every workload once per seed (set 0 uses seeds 1..10, set 1
seeds 11..20), untraced, for BENCHMARK.json's run_seconds. For every
workload x end-to-end metric it prints each set's median and quartiles,
the spread (interquartile distance over the median) and the set-to-set
change of the median in the metric's worse direction, both against the
metric's bound. Any metric outside its bound is named at the end, and the
exit code is 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # seeds per set
SETS = 2


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit("steady.py: %s seed %d failed (exit %d)" % (workload, seed, p.returncode))
    return json.loads(lines[-1])


def report(bench, rows):
    sets = sorted({r["set"] for r in rows})
    problems = []
    for w in [w["name"] for w in bench["workloads"]]:
        wrows = [r for r in rows if r["workload"] == w]
        if not wrows:
            continue
        failed = sum(r["result"]["failed"] for r in wrows)
        attempted = sum(r["result"]["attempted"] for r in wrows)
        print("\n%s  (%d runs, %d ops attempted, %d failed)" % (w, len(wrows), attempted, failed))
        if failed or not all(r["result"]["correct"] for r in wrows):
            problems.append("%s: failed ops or incorrect output" % w)
        print("  %-14s %-4s %12s %12s %12s %8s %8s %9s" %
              ("metric", "set", "q1", "median", "q3", "spread", "bound", "change"))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in sets:
                vals = [r["result"]["metrics"][name]["value"] for r in wrows if r["set"] == s]
                if len(vals) < 2:
                    continue
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                flag = ""
                if spread > bound:
                    flag = "  SPREAD OUTSIDE BOUND"
                    problems.append("%s %s set %d: spread %.3f > bound %.3f" % (w, name, s, spread, bound))
                change = ""
                if medians:
                    base = medians[0]
                    worse = (q2 - base) / base if m["better"] == "lower" else (base - q2) / base
                    change = "%+.3f" % worse
                    if worse > bound:
                        flag += "  CHANGE OUTSIDE BOUND"
                        problems.append("%s %s: set %d median worse by %.3f > bound %.3f" % (w, name, s, worse, bound))
                medians.append(q2)
                print(("  %-14s %-4d %12.6g %12.6g %12.6g %8.3f %8.3f %9s%s" %
                       (name, s, q1, q2, q3, spread, bound, change, flag)).rstrip())
    print()
    if problems:
        print("OUTSIDE BOUNDS:")
        for p in problems:
            print("  " + p)
        return 1
    print("every end-to-end metric of every workload is within its bound")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="append every run's result to this JSON-lines file")
    ap.add_argument("--load", help="report on a JSON-lines file instead of running")
    args = ap.parse_args()
    bench = load_bench()

    if args.load:
        with open(args.load) as f:
            rows = [json.loads(line) for line in f if line.strip()]
        return report(bench, rows)

    names = [w["name"] for w in bench["workloads"]]
    rows = []
    out = open(args.out, "a") if args.out else None
    try:
        for s in range(SETS):
            for seed in range(s * RUNS + 1, (s + 1) * RUNS + 1):
                for w in names:
                    res = run_one(w, seed, bench["run_seconds"])
                    row = {"set": s, "workload": w, "seed": seed, "result": res}
                    rows.append(row)
                    if out:
                        out.write(json.dumps(row) + "\n")
                        out.flush()
                    print("set %d seed %d %s: %s" % (s, seed, w, json.dumps(res["metrics"])), flush=True)
    finally:
        if out:
            out.close()
    return report(bench, rows)


if __name__ == "__main__":
    sys.exit(main())
