#!/usr/bin/env python3
"""Smoke tests of the scenario benchmark.

    python3 scenbench/smoke_test.py

Runs every workload cut to a few flows (run.py --smoke) in both modes and
checks that every metric BENCHMARK.json names is printed with its unit, that
the output checks pass, and that each workload loads the layers it was chosen
for. Also checks that the benchmark fails cleanly without the simulator
sources. Builds the driver first if needed.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "scenbench", "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "0",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload, trace):
    out = run(workload, trace)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{out.returncode}:\n{out.stderr[-2000:]}")
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def check_mode(self, trace, specs):
        """Per workload: the output checks passed and every metric in
        `specs` is printed with its unit. Returns {workload: metrics}."""
        results = {}
        for w in SPEC["workloads"]:
            stdout, r = result(w["name"], trace)
            self.assertEqual(set(r), {"correct", "attempted", "failed",
                                      "metrics"})
            self.assertTrue(r["correct"], stdout)
            self.assertGreaterEqual(r["attempted"], 1)
            self.assertEqual(r["failed"], 0)
            self.assertNotIn("FAILED", stdout)
            got = r["metrics"]
            self.assertEqual(set(got), {m["name"] for m in specs})
            for m in specs:
                self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
                self.assertIsInstance(got[m["name"]]["value"], (int, float))
            results[w["name"]] = {k: v["value"] for k, v in got.items()}
        return results

    def test_end_to_end_metrics(self):
        for value in self.check_mode(0, SPEC["end_to_end"]).values():
            for name, v in value.items():
                self.assertGreater(v, 0, name)

    def test_per_layer_metrics(self):
        for name, value in self.check_mode(1, SPEC["per_layer"]).items():
            self.assertEqual(value["trace.overwritten"], 0)
            self.assertEqual(value["workload.failed_flows"], 0)
            # Each workload loads the layers it was chosen for.
            self.assertEqual(value["tcpu.hook_execs"] > 0, name == "sketch_k8")
            self.assertEqual(value["host.probes_sent"] > 0,
                             name != "sketch_k8")
            if name == "incast_tpp_k8":
                self.assertGreater(value["asic.drops"], 0)
            if name == "sketch_k8":
                self.assertGreater(value["monitor.checks"], 0)

    def test_fails_without_sources(self):
        # A checkout holding only the benchmark must fail, without a result.
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "scenbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            out = run("incast_tpp_k8", 0, cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
