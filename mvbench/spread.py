#!/usr/bin/env python3
"""Spread and comparison of mvbench results.

repeat: runs every workload of BENCHMARK.json N times with seeds
  seed0, seed0+1, ..., saves every result line to --out, and prints per
  workload and end-to-end metric the median, the quartiles and the spread
  (quartile distance over median) against the metric's bound, plus the
  share of failed operations.

    python3 mvbench/spread.py repeat --runs 10 --out results.json

compare: takes two saved result sets (A = before, B = after) and reports
  each workload x metric as better, worse or unresolved by the bound: B's
  median is better or worse than A's by more than the bound, or neither.
  A metric whose own spread exceeds its bound is unresolved unless every
  run of one side beats every run of the other.

    python3 mvbench/spread.py compare before.json after.json

Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: [] for w in workloads}
    for w in workloads:
        for i in range(args.runs):
            seed = args.seed0 + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0 or not proc.stdout.strip():
                print("%s seed %d: run failed (exit %d)" % (w, seed, proc.returncode))
                return 1
            lines = proc.stdout.strip().splitlines()
            line = json.loads(lines[-1])
            line["seed"] = seed
            for extra in lines:  # every metric, printed-only ones included
                if extra.startswith("all metrics: "):
                    line["all_metrics"] = json.loads(extra[len("all metrics: "):])
            results[w].append(line)
            print("%s seed %d: %s" % (w, seed, json.dumps(
                {k: round(v["value"], 4) for k, v in line["metrics"].items()})),
                flush=True)
    with open(args.out, "w") as f:
        json.dump(results, f, indent=1)
    report(spec, results)
    return 0


def report(spec, results):
    ok = True
    for w, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print("\n%s: %d runs, correct=%s, failed share %s" % (
            w, len(runs), correct, sorted(shares)))
        ok = ok and correct
        print("  %-28s %12s %12s %12s %8s %6s" % (
            "metric", "q1", "median", "q3", "spread", "bound"))
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            mark = ""
            if spread > m["bound"]:
                mark, ok = "OVER", False
            elif spread > m["bound"] / 3:
                mark = "over 1/3"
            print("  %-28s %12.6g %12.6g %12.6g %8.4f %6.3f %s" % (
                m["name"], q1, med, q3, spread, m["bound"], mark))
    print("\nall spreads within bounds" if ok else "\nSOME SPREADS EXCEED THEIR BOUNDS")


def compare(args):
    spec = load_spec()
    with open(args.before) as f:
        a_all = json.load(f)
    with open(args.after) as f:
        b_all = json.load(f)
    print("%-14s %-28s %12s %12s %8s  %s" % (
        "workload", "metric", "before", "after", "change", "verdict"))
    for w in a_all:
        if w not in b_all:
            continue
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in a_all[w]]
            b = [r["metrics"][m["name"]]["value"] for r in b_all[w]]
            sign = 1 if m["better"] == "higher" else -1
            qa, qb = quartiles(a), quartiles(b)
            change = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            spread = max((qa[2] - qa[0]) / qa[1] if qa[1] else 0,
                         (qb[2] - qb[0]) / qb[1] if qb[1] else 0)
            worst_b = min(sign * v for v in b)
            best_b = max(sign * v for v in b)
            if worst_b > max(sign * v for v in a):
                verdict = "better (every run)"
            elif best_b < min(sign * v for v in a):
                verdict = "worse (every run)"
            elif spread > m["bound"]:
                verdict = "unresolved (spread %.3f > bound)" % spread
            elif change > m["bound"]:
                verdict = "better"
            elif change < -m["bound"]:
                verdict = "worse"
            else:
                verdict = "unresolved (within bound)"
            print("%-14s %-28s %12.6g %12.6g %+7.1f%%  %s" % (
                w, m["name"], qa[1], qb[1], 100 * change, verdict))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("repeat")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("before")
    c.add_argument("after")
    args = p.parse_args()
    return repeat(args) if args.mode == "repeat" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
