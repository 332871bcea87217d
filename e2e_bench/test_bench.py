#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself, on tiny overlays.

    python3 e2e_bench/test_bench.py

Builds the benchmark if needed (through run.py), then checks that every
workload prints each metric BENCHMARK.json names, with its unit, in both
modes; that two runs with one seed print identical deterministic metrics;
and that the benchmark refuses to run without the library's sources.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("lookup_mix", "churn_event", "repair_threaded")

# The paper-cost metrics of the deterministic window.
DETERMINISTIC = ("hops_mean", "stretch_mean", "messages_per_op", "fail_ratio",
                 "det.ops", "det.locates")
# Threaded waves converge to the same membership and slot occupancy for a
# seed, not to the same neighbor choices, so repair_threaded repeats only
# the counts that contract fixes.
REPAIR_EXACT = ("fail_ratio", "det.ops", "det.locates")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


class BenchmarkTest(unittest.TestCase):
    def run_ok(self, workload, seed, trace):
        proc = run(workload, seed, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        with open(os.path.join(OUT, "%s_seed%d_trace%d.json"
                               % (workload, seed, trace))) as f:
            report = json.load(f)
        return proc.stdout, result, report

    def test_every_declared_metric_is_printed_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    out, result, _ = self.run_ok(w, 3, trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = spec()[key]
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in declared})
                    for m in declared:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        line = r"^\s+%s\s+\S+\s+%s$" % (
                            re.escape(m["name"]), re.escape(m["unit"]))
                        self.assertRegex(out, re.compile(line, re.M))
                    if trace:
                        self.assertTrue(os.path.isfile(os.path.join(
                            OUT, "spans_%s_seed3.csv" % w)))

    def test_same_seed_prints_identical_deterministic_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, _, first = self.run_ok(w, 5, 0)
                _, _, second = self.run_ok(w, 5, 0)
                names = REPAIR_EXACT if w == "repair_threaded" else (
                    DETERMINISTIC + tuple(
                        n for n in first["metrics"]
                        if n.startswith("transport.kind.")))
                for n in names:
                    self.assertEqual(first["metrics"][n],
                                     second["metrics"][n], n)
                self.assertEqual(first["seed"], 5)

    def test_refuses_to_run_without_the_library_sources(self):
        alone = os.path.join(OUT, "benchmark_only")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(HERE, os.path.join(alone, "e2e_bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "e2e_bench/run.py", "--workload", "lookup_mix",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=alone, capture_output=True, text=True, timeout=180)
        shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
