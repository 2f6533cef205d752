#!/usr/bin/env python3
"""End-to-end benchmark of the multiversion store at default options.

Builds mvbench (Release) from this directory into the build directory,
runs one workload and prints, as the last line of standard output, one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end_to_end metrics BENCHMARK.json names;
with --trace 1 they are its per_layer metrics, taken from a traced run
that follows an untraced run of the same seed (the pair gives the
tracing overhead and shows the tracing hooks left the paths unchanged).

    python3 mvbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0
    python3 mvbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR (if set)
or .bench_build, under mvbench/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "history_reads", "sharded_mixed")
# The throughput each workload's tracing overhead is measured on.
OVERHEAD_METRIC = {
    "ingest": "commit_rate",
    "history_reads": "read_rate",
    "sharded_mixed": "read_rate",
}
RUN_TIMEOUT_S = 170


def fail(msg):
    print("mvbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "mvbench")


def build():
    """Configures (once) and builds the Release binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "db", "multiversion_db.h")):
        fail("library sources (src/) not found next to " + HERE)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(out, "mvbench")


def run_binary(binary, workload, seed, seconds, trace, wrong_model=False,
               rounds=None):
    """Runs one workload; returns the parsed MVBENCH_RESULT object."""
    run_dir = os.path.join(build_dir(), "run-%s-%d" % (workload, os.getpid()))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--dir", run_dir]
    if wrong_model:
        cmd.append("--wrong-model")
    if rounds:
        cmd += ["--rounds", ",".join(str(int(n)) for n in rounds)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(run_dir, ignore_errors=True)
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail("%s exited with code %d" % (workload, proc.returncode))
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("MVBENCH_RESULT "):
            return json.loads(line[len("MVBENCH_RESULT "):])
    fail("%s printed no result" % workload)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def rel_drift(a, b):
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0 else abs(a - b) / scale


# Counters the library keeps itself, compared between an untraced run and
# a traced run that repeats its rounds: a difference comes from the paths
# taken (or from thread interleaving), not from the tracing's arithmetic.
HOOK_COUNTERS = ("pool.hit_ratio", "pool.misses_per_get", "pool.evictions",
                 "hist.cache_hit_ratio", "hist.blob_reads_per_get",
                 "tsb.data_key_splits", "tsb.data_time_splits",
                 "tsb.hist_data_nodes", "tsb.records_migrated")


def hook_drift(untraced, traced):
    """Largest relative difference of HOOK_COUNTERS between two runs."""
    a = {k: untraced["layers"][k]["value"] for k in HOOK_COUNTERS}
    b = {k: traced["layers"][k]["value"] for k in HOOK_COUNTERS}
    return max(rel_drift(a[k], b[k]) for k in a), a, b


def select(values, names, workload):
    out = {}
    for name in names:
        if name not in values:
            fail("%s reports no metric %s" % (workload, name))
        out[name] = {"value": values[name]["value"], "unit": values[name]["unit"]}
    return out


def run(args):
    spec = load_spec()
    binary = build()
    if not args.trace:
        r = run_binary(binary, args.workload, args.seed, args.seconds, False)
        runs = [r]
        metrics = select(r["metrics"], [m["name"] for m in spec["end_to_end"]],
                         args.workload)
    else:
        base = run_binary(binary, args.workload, args.seed, args.seconds, False)
        r = run_binary(binary, args.workload, args.seed, args.seconds, True,
                       rounds=base["rounds"])
        # The traced result speaks for both runs: the untraced one's checks
        # and operations count too.
        runs = [base, r]
        layers = dict(r["layers"])
        key = OVERHEAD_METRIC[args.workload]
        plain, traced = base["metrics"][key]["value"], r["metrics"][key]["value"]
        overhead = 100.0 * (plain / traced - 1.0) if traced > 0 else 0.0
        drift, plain_ratios, traced_ratios = hook_drift(base, r)
        layers["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        layers["trace.counter_drift_pct"] = {"value": 100.0 * drift, "unit": "%"}
        print("tracing: %s untraced %.6g, traced %.6g" % (key, plain, traced))
        print("counter ratios untraced: " + json.dumps(plain_ratios))
        print("counter ratios traced:   " + json.dumps(traced_ratios))
        metrics = select(layers, [m["name"] for m in spec["per_layer"]],
                         args.workload)
    print("host: " + json.dumps(r["host"]))
    print("checks: " + json.dumps(r["checks"]))
    for line in [f for x in runs for f in x["failures"]]:
        print("check failure: " + line)
    print("all metrics: " + json.dumps(r["metrics"]))
    print("all layers: " + json.dumps(r["layers"]))
    print(json.dumps({"correct": all(bool(x["correct"]) for x in runs),
                      "attempted": sum(int(x["attempted"]) for x in runs),
                      "failed": sum(int(x["failed"]) for x in runs),
                      "metrics": metrics}))


def selftest(args):
    """Each workload must pass every check with the right model, and every
    check must fail with a deliberately wrong one."""
    binary = build()
    ok = True
    for w in WORKLOADS:
        good = run_binary(binary, w, args.seed, args.seconds, False)
        bad = run_binary(binary, w, args.seed, args.seconds, False, wrong_model=True)
        for name in sorted(set(good["checks"]) | set(bad["checks"])):
            gp, gf = good["checks"].get(name, [0, 0])
            bp, bf = bad["checks"].get(name, [0, 0])
            right = gp > 0 and gf == 0
            wrong = bf > 0
            ok = ok and right and wrong
            print("%-14s %-28s right model %9d pass %7d fail | wrong model %9d fail  %s"
                  % (w, name, gp, gf, bf, "ok" if right and wrong else "BROKEN"))
        ok = ok and good["correct"] and not bad["correct"]
    print("selftest: " + ("every check passes on the model and fails on a wrong one"
                          if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="check that a wrong model makes every check fail")
    args = p.parse_args()
    if args.selftest:
        return selftest(args)
    if args.workload is None:
        p.error("--workload is required")
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
