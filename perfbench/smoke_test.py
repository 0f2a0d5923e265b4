"""Smoke test of the benchmark harness itself (not of the library).

Runs every workload at toy size, untraced and traced, and checks that
each metric BENCHMARK.json names is printed with its unit, that
`fast_ratio` has its base (`rows`) beside it, that the workload
self-checks hold, and that tracing leaves every model fingerprint
unchanged.  Takes about a minute:

    python3 perfbench/smoke_test.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stacked_3x480", "saturating_1x480", "reload_3x384",
             "sweep_tiny")
SEED = 3


def _run(cwd, workload, trace, seed=SEED):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--toy"], cwd=cwd, capture_output=True, text=True, timeout=180)


def _details(workload, trace, seed=SEED):
    path = os.path.join(ROOT, ".perfbench",
                        "%s-s%d-t%d-toy.json" % (workload, seed, trace))
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class HarnessSmokeTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            cls.bench = json.load(fh)
        cls.results = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                done = _run(ROOT, workload, trace)
                cls.results[workload, trace] = done

    def result(self, workload, trace):
        done = self.results[workload, trace]
        self.assertEqual(done.returncode, 0, done.stderr)
        out = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        return out

    def test_every_metric_is_printed_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.bench[section]}
            for workload in WORKLOADS:
                got = self.result(workload, trace)["metrics"]
                self.assertEqual(set(got), set(want), (workload, trace))
                for name, unit in want.items():
                    self.assertEqual(got[name]["unit"], unit, name)
                    self.assertIsInstance(got[name]["value"], (int, float),
                                          (workload, name))

    def test_fast_ratio_has_its_base_beside_it(self):
        for workload in WORKLOADS:
            got = self.result(workload, 1)["metrics"]
            rows = got["qformat.mac_run.rows"]["value"]
            sat = got["qformat.mac_run.saturated_rows"]["value"]
            self.assertGreater(rows, 0)
            self.assertAlmostEqual(got["qformat.mac_run.fast_ratio"]["value"],
                                   1.0 - sat / rows)

    def test_workload_self_checks(self):
        fast = self.result("stacked_3x480", 1)["metrics"]
        self.assertEqual(fast["qformat.mac_run.fast_ratio"]["value"], 1.0)
        sat = self.result("saturating_1x480", 1)["metrics"]
        self.assertLess(sat["qformat.mac_run.fast_ratio"]["value"], 0.7)
        self.assertGreater(_details("saturating_1x480", 0)
                           ["saturated_share_warmup"], 0.3)

    def test_tracing_does_not_perturb_the_model(self):
        for workload in WORKLOADS:
            self.result(workload, 0)
            self.result(workload, 1)
            plain, traced = _details(workload, 0), _details(workload, 1)
            self.assertEqual(plain["instance_fingerprints"],
                             traced["instance_fingerprints"], workload)
            self.assertEqual(plain["model_us_per_step"],
                             traced["model_us_per_step"])

    def test_without_the_library_it_fails_and_prints_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = _run(tmp, "sweep_tiny", 0)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
