"""The benchmark's own tests. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They build the benchmark (as run.py does) and make short runs, so they take
about a minute.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")]
                          + list(args), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, result


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class NamesTest(unittest.TestCase):
    def test_workloads_and_metrics_match_benchmark_json(self):
        spec = load_benchmark_json()
        listed = [w["name"] for w in spec["workloads"]]
        self.assertEqual(listed, ["wide-4t", "cluster-3r"])
        # skewed-4t stays runnable by name but is not judged (README.md).
        self.assertEqual(set(run.WORKLOADS) - set(listed), {"skewed-4t"})
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])


class RunTest(unittest.TestCase):
    def check_output(self, result, units):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"}, name)
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_untraced_run_reports_every_end_to_end_metric(self):
        code, result = bench("--workload", "skewed-4t", "--seed", "7",
                             "--seconds", "2", "--trace", "0")
        self.assertEqual(code, 0)
        self.check_output(result, run.END_TO_END)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_traced_run_reports_every_per_layer_metric(self):
        code, result = bench("--workload", "skewed-4t", "--seed", "7",
                             "--seconds", "2", "--trace", "1")
        self.assertEqual(code, 0)
        self.check_output(result, run.PER_LAYER)
        self.assertTrue(result["correct"])
        out = os.path.join(run.BUILD, "run", "skewed-4t-s7")
        with open(os.path.join(out, "trace.json")) as f:
            names = {e["name"] for e in json.load(f)["traceEvents"]}
        for span in ("LoadEdgeList", "KCoreMask", "EgoBuilder::BuildEgo",
                     "RecursiveMine", "FilterMaximal", "ResultSetDigest",
                     "qcm_pack", "ParallelMiner::Run", "serial_replay"):
            self.assertIn(span, names)
        # Engine events from the traced solve sit next to the bench spans.
        self.assertIn("compute", names)

    def test_traced_cluster_run_reports_every_per_layer_metric(self):
        code, result = bench("--workload", "cluster-3r", "--seed", "7",
                             "--seconds", "1", "--trace", "1")
        self.assertEqual(code, 0)
        self.check_output(result, run.PER_LAYER)
        self.assertTrue(result["correct"])
        metrics = result["metrics"]
        for name in ("net.pull_rounds", "net.flushes", "graph.page_ins",
                     "graph.page_evictions", "quick.filter_in"):
            self.assertGreater(metrics[name]["value"], 0, name)

    def test_wrong_reference_digest_is_a_failure(self):
        code, result = bench("--workload", "skewed-4t", "--seed", "7",
                             "--seconds", "1", "--trace", "0",
                             "--expect-digest", "0123456789abcdef")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


class DriverTest(unittest.TestCase):
    def test_subtasks_derived_from_outside_match_the_engine(self):
        """sched.subtasks = tasks_completed - spawned roots is how the cluster
        workload counts decomposition; in-process the engine also reports the
        count directly, and the two must agree."""
        run.build()
        out = os.path.join(run.BUILD, "run", "driver-test")
        os.makedirs(out, exist_ok=True)
        w = run.WORKLOADS["skewed-4t"]
        proc = subprocess.run(
            [os.path.join(run.BUILD, "perfbench_driver"), "run",
             "--mode", "inproc", "--spec", w["spec"], "--seed", "3",
             "--relabel-per-solve", "1", "--gamma", str(w["gamma"]),
             "--min-size", str(w["min_size"]), "--seconds", "1",
             "--trace", "1", "--out-dir", out],
            check=True, stdout=subprocess.PIPE, text=True)
        raw = json.loads(proc.stdout)
        # Every labeling's result, renamed back, matched the reference.
        self.assertEqual(raw["failed"], 0)
        self.assertGreaterEqual(len(raw["solves"]), 3)
        for solve in raw["solves"]:
            self.assertEqual(
                solve["subtasks"],
                solve["report"]["counters"]["tasks_completed"]
                - raw["spawn_roots"])
        for replay in raw["replays"]:
            parts = sum(replay[k] for k in ("kcore_s", "ego_s", "mine_s",
                                            "filter_s", "digest_s",
                                            "unattributed_s"))
            self.assertAlmostEqual(parts, replay["wall"], places=6)
            self.assertGreaterEqual(replay["unattributed_s"], 0)

    def test_serial_solves_per_round(self):
        """--serial-per-round N runs N checked serial solves after every
        warm solve of the system (cluster-3r uses this)."""
        run.build()
        out = os.path.join(run.BUILD, "run", "driver-test-serial")
        os.makedirs(out, exist_ok=True)
        w = run.WORKLOADS["skewed-4t"]
        proc = subprocess.run(
            [os.path.join(run.BUILD, "perfbench_driver"), "run",
             "--mode", "inproc", "--spec", w["spec"], "--seed", "4",
             "--serial-per-round", "2", "--gamma", str(w["gamma"]),
             "--min-size", str(w["min_size"]), "--seconds", "1",
             "--trace", "0", "--out-dir", out],
            check=True, stdout=subprocess.PIPE, text=True)
        raw = json.loads(proc.stdout)
        self.assertEqual(raw["failed"], 0)
        self.assertEqual(len(raw["serial"]), 2 * (len(raw["solves"]) - 1))
        self.assertEqual(raw["attempted"],
                         len(raw["solves"]) + len(raw["serial"]))


if __name__ == "__main__":
    unittest.main()
