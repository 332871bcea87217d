#!/usr/bin/env python3
"""Build and run the tapestry end-to-end benchmark (see README.md).

    python3 e2e_bench/run.py --workload lookup_mix --seed 1 --seconds 20 --trace 0
    python3 e2e_bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Builds the benchmark from the checkout's sources into .bench_build/ on
first use (cmake, Release), runs the e2e_bench binary, and prints its
metric table followed by one JSON line:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics.  The binary's full report (every
metric it measured) is saved as .bench_out/<workload>_seed<N>_trace<T>.json
and, in traced runs, the spans as .bench_out/spans_<workload>_seed<N>.csv.
A wrong answer or a violated invariant exits non-zero without a result.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "e2e_bench")
WORKLOADS = ("lookup_mix", "churn_event", "repair_threaded")
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        die("no tapestry sources next to %s; nothing to benchmark" % HERE)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "e2e_bench", "-j", jobs],
        stdout=sys.stderr,
        check=True,
    )


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(args, workload):
    """Runs one workload; returns the contract result dict."""
    os.makedirs(OUT, exist_ok=True)
    cmd = [
        BINARY,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        "--out", OUT,
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 4)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        die("%s failed (exit %d)" % (workload, proc.returncode), proc.returncode)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    report = json.loads(lines[-1])
    path = os.path.join(OUT, "%s_seed%d_trace%d.json"
                        % (workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    metrics = {}
    for m in declared_metrics(args.trace):
        got = report["metrics"].get(m["name"])
        if got is None:
            die("%s did not report %s" % (workload, m["name"]), 5)
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            die("%s reported %s as %r" % (workload, m["name"], got), 5)
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    if report["attempted"] < 1:
        die("%s attempted no operation" % workload, 5)
    return {
        "correct": True,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small overlays for the benchmark's own tests")
    args = p.parse_args()

    build()
    if args.workload != "all":
        print(json.dumps(run_workload(args, args.workload)))
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        r = run_workload(args, w)
        print("%s: %s" % (w, json.dumps(r)))
        combined["attempted"] += r["attempted"]
        combined["failed"] += r["failed"]
        for name, m in r["metrics"].items():
            combined["metrics"]["%s.%s" % (w, name)] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
