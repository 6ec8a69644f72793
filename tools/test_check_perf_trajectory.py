#!/usr/bin/env python3
"""Unit tests for check_perf_trajectory.py, focused on the --pair plumbing
the CI perf-trajectory step depends on: a missing PRIOR artifact must be a
clean skip (first run on a branch), a missing CURRENT artifact must fail
loudly (the bench that should have produced it never ran), regressions
must be flagged (and only fail under --strict), and the R4 update and
loadgen mixed series must be picked up from the bench JSON.

Run directly (python3 tools/test_check_perf_trajectory.py) or via ctest.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "check_perf_trajectory.py")


def registry_doc(sweep_ops, update_ops):
    return {
        "bench": "bench_registry",
        "sweep": {"mechanisms": [
            {"name": "tree-hld", "ok": True, "ops_per_sec": sweep_ops},
        ]},
        "throughput": {"mechanisms": [
            {"name": "tree-hld", "batch_ops_per_sec": 2.0 * sweep_ops,
             "sharded_ops_per_sec": 3.0 * sweep_ops},
        ]},
        "updates": {"name": "tree-hld", "epochs": [
            {"drift": "uniform", "dirty_fraction": 0.01,
             "deltas_per_sec": update_ops},
        ]},
    }


def server_doc(net_ops, mixed_ops):
    return {
        "bench": "bench_server_loadgen",
        "mechanisms": [
            {"name": "tree-hld", "ops_per_sec": net_ops,
             "direct_ops_per_sec": 2.0 * net_ops},
        ],
        "mixed": {"name": "tree-hld", "ops_per_sec": mixed_ops},
    }


class CheckPerfTrajectoryTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def path(self, name, doc=None):
        p = os.path.join(self.dir.name, name)
        if doc is not None:
            os.makedirs(os.path.dirname(p), exist_ok=True)
            with open(p, "w") as f:
                json.dump(doc, f)
        return p

    def run_tool(self, *args):
        return subprocess.run([sys.executable, TOOL, *args],
                              capture_output=True, text=True)

    def test_missing_prior_is_a_clean_skip(self):
        current = self.path("BENCH_registry.json",
                            registry_doc(1000.0, 500.0))
        result = self.run_tool("--pair", self.path("prior/nope.json"),
                               current)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("skipping", result.stdout)
        self.assertIn("nothing to compare", result.stdout)

    def test_missing_current_fails_loudly(self):
        prior = self.path("prior/BENCH_registry.json",
                          registry_doc(1000.0, 500.0))
        result = self.run_tool("--pair", prior,
                               self.path("never_produced.json"))
        self.assertEqual(result.returncode, 2, result.stdout)
        self.assertIn("::error::", result.stdout)

    def test_regression_warns_but_passes_without_strict(self):
        prior = self.path("prior/BENCH_registry.json",
                          registry_doc(1000.0, 500.0))
        current = self.path("BENCH_registry.json",
                            registry_doc(1000.0, 100.0))  # update -80%
        result = self.run_tool("--pair", prior, current)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("::warning::", result.stdout)
        self.assertIn("update", result.stdout)

    def test_regression_fails_under_strict(self):
        prior = self.path("prior/BENCH_registry.json",
                          registry_doc(1000.0, 500.0))
        current = self.path("BENCH_registry.json",
                            registry_doc(100.0, 500.0))  # sweep -90%
        result = self.run_tool("--pair", prior, current, "--strict")
        self.assertEqual(result.returncode, 1, result.stdout)

    def test_update_and_mixed_series_are_compared(self):
        prior_r = self.path("prior/BENCH_registry.json",
                            registry_doc(1000.0, 500.0))
        current_r = self.path("BENCH_registry.json",
                              registry_doc(1000.0, 505.0))
        prior_s = self.path("prior/BENCH_server.json",
                            server_doc(900.0, 800.0))
        current_s = self.path("BENCH_server.json", server_doc(910.0, 790.0))
        result = self.run_tool("--pair", prior_r, current_r,
                               "--pair", prior_s, current_s)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("tree-hld@uniform-0.01", result.stdout)
        self.assertIn("mixed", result.stdout)
        self.assertIn("no ops/sec regressions", result.stdout)

    def test_positional_pair_still_works(self):
        prior = self.path("prior/BENCH_server.json", server_doc(900.0, 800.0))
        current = self.path("BENCH_server.json", server_doc(900.0, 800.0))
        result = self.run_tool(prior, current)
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_mixed_missing_and_present_pairs_compose(self):
        # One pair skipped (no prior), one compared: exit 0 and the
        # compared pair's table is printed.
        current_r = self.path("BENCH_registry.json",
                              registry_doc(1000.0, 500.0))
        prior_s = self.path("prior/BENCH_server.json",
                            server_doc(900.0, 800.0))
        current_s = self.path("BENCH_server.json", server_doc(905.0, 805.0))
        result = self.run_tool("--pair", self.path("prior/absent.json"),
                               current_r, "--pair", prior_s, current_s)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("skipping", result.stdout)
        self.assertIn("net", result.stdout)


if __name__ == "__main__":
    unittest.main()
