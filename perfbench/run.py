#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

One workload, as the command in BENCHMARK.json runs it (prints every
metric by name with its unit; the last line is the JSON result):

    python3 perfbench/run.py --workload g500_square --seed 1 --seconds 10 --trace 0

--trace 1 reports the per-layer metrics instead. Every other op of that
run is traced; trace.overhead_pct compares the traced ops' median latency
with the untraced ones'. Spans go to .bench_build/traces/.

Every workload, each in a fresh process, the order rotating from seed to
seed, records appended to a JSON-lines file:

    python3 perfbench/run.py --suite --seeds 1,2,3 --seconds 10 --out runs.jsonl

Compare two such files (refuses when hosts or exact counts differ):

    python3 perfbench/run.py --compare old.jsonl new.jsonl

Check that an unseen seed repeats its exact counts and gives sane metrics:

    python3 perfbench/run.py --check-seed

Run from the root of the repository. Build outputs and the Go build cache
go to .bench_build/ there.
"""

import argparse
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")
WORKLOADS = ["g500_square", "graph_apps", "serve_replay"]
# One invocation must end within 180 s; children get what is left of this.
BUDGET_S = 170.0


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def go_env():
    """Keep the toolchain's caches and settings inside .bench_build."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    go = shutil.which("go") or os.path.join(os.environ.get("GOROOT", ""), "bin", "go")
    try:
        p = subprocess.run([go, "build", "-o", BIN, "."], cwd=HERE, env=go_env(),
                           timeout=850, stdout=sys.stderr, stderr=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0:
        fail("build failed (exit %d)" % p.returncode)


def run_child(args, deadline):
    """Run the benchmark program once; return (record, result, exit code).

    record or result is None when the program printed none."""
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time before running %s" % " ".join(args))
    try:
        p = subprocess.run([BIN] + args, cwd=ROOT, timeout=left,
                           stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    except subprocess.TimeoutExpired:
        fail("timed out: %s" % " ".join(args))
    record = result = None
    for line in p.stdout.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "record" in obj:
            record = obj["record"]
        elif "metrics" in obj:
            result = obj
    return record, result, p.returncode


def run_workload(workload, seed, seconds, trace, deadline):
    """Run one workload in a fresh process; return (record, result, code)."""
    args = ["-workload", workload, "-seed", str(seed), "-seconds", repr(seconds)]
    if trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        args += ["-trace", "-trace-out", os.path.join(BUILD, "traces", "%s-seed%d.json" % (workload, seed))]
    return run_child(args, deadline)


def print_metrics(result):
    for name in sorted(result["metrics"]):
        m = result["metrics"][name]
        print("%-26s %16.6f %s" % (name, m["value"], m["unit"]))


def append_record(path, record):
    with open(path, "a") as f:
        f.write(json.dumps(record) + "\n")


def suite(args):
    seeds = [int(s) for s in args.seeds.split(",")]
    code = 0
    for i, seed in enumerate(seeds):
        # Each workload runs in a fresh process; the order rotates with the
        # seed index so no workload always runs first or last.
        order = WORKLOADS[i % len(WORKLOADS):] + WORKLOADS[:i % len(WORKLOADS)]
        for pos, wl in enumerate(order):
            deadline = time.monotonic() + BUDGET_S
            rec, res, c = run_workload(wl, seed, args.seconds, args.trace == 1, deadline)
            code = code or c
            if rec is None or res is None:
                print("%s seed %d: no result (exit %d)" % (wl, seed, c))
                code = code or 1
                continue
            rec["suite_order"] = order
            rec["suite_position"] = pos
            if args.out:
                append_record(args.out, rec)
            summary = ", ".join("%s=%.4g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))
            print("%s seed %d (position %d of %s): correct=%s %s" % (wl, seed, pos, order, res["correct"], summary))
    return code


def check_seed(args):
    """Run every workload twice on one seed: exact counts must repeat and
    every end-to-end metric must be finite and positive, with no failed op."""
    seed = args.seed if args.seed_given else random.SystemRandom().randrange(1 << 30, 1 << 31)
    print("checking seed %d" % seed)
    ok = True
    for wl in WORKLOADS:
        counts = []
        for rep in range(2):
            rec, res, c = run_workload(wl, seed, args.seconds, False, time.monotonic() + BUDGET_S)
            if rec is None or res is None or c != 0 or not res["correct"]:
                print("%s: run %d failed (exit %d)" % (wl, rep, c))
                ok = False
                break
            bad = [k for k, v in res["metrics"].items() if not (math.isfinite(v["value"]) and v["value"] > 0)]
            if bad:
                print("%s: run %d has non-positive metrics %s" % (wl, rep, bad))
                ok = False
            counts.append(rec["fingerprint"]["counts"])
        if len(counts) == 2:
            same = counts[0] == counts[1]
            ok = ok and same
            print("%s: counts %s %s" % (wl, json.dumps(counts[0], sort_keys=True),
                                        "repeat exactly" if same else "DIFFER: %s" % json.dumps(counts[1], sort_keys=True)))
    print("seed check %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="append each run's full record to this JSON-lines file")
    ap.add_argument("--suite", action="store_true", help="run every workload for each of --seeds")
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--check-seed", action="store_true")
    args = ap.parse_args()
    args.seed_given = args.seed is not None
    if args.seed is None:
        args.seed = 1
    if not args.seconds > 0:
        fail("--seconds must be positive")

    build()
    if args.compare:
        files = [os.path.abspath(f) for f in args.compare]
        p = subprocess.run([BIN, "-compare", "-bench", os.path.join(ROOT, "BENCHMARK.json")] + files, cwd=ROOT)
        return p.returncode
    if args.suite:
        return suite(args)
    if args.check_seed:
        return check_seed(args)
    if not args.workload:
        fail("--workload is required")

    # A first build may take most of a first run's time; the run itself
    # gets BUDGET_S from here.
    rec, res, code = run_workload(args.workload, args.seed, args.seconds, args.trace == 1,
                                  time.monotonic() + BUDGET_S)
    if rec is None or res is None:
        fail("%s produced no result (exit %d)" % (args.workload, code), code or 1)
    if args.out:
        append_record(args.out, rec)
    print_metrics(res)
    print(json.dumps(res))
    return code


if __name__ == "__main__":
    sys.exit(main())
