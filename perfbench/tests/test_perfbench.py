"""Self-tests of the benchmark harness. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The input-dump and metric-name tests build the harness and run every workload
for one second each, so the whole suite takes a few minutes.
"""

import argparse
import contextlib
import filecmp
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

SPEC = run.load_json(os.path.join(ROOT, "BENCHMARK.json"))
WORKLOADS = run.load_json(os.path.join(BENCH, "workloads.json"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_benchmark(workload, seed, seconds, trace, env=None):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, env=env, timeout=300)


class BenchmarkJsonTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertRegex(m["unit"], UNIT)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def test_workloads_match_and_rates_are_absolute(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))
        for name, w in WORKLOADS.items():
            self.assertEqual(set(w["gated"]) - {m["name"] for m in SPEC["end_to_end"]}, set())
            self.assertIn(w["params"]["transport"], ("sim", "tcp"), name)
            if w["kind"] == "pool":
                self.assertGreater(w["params"]["rate_qps"], 1.0, name)


class AccountingTest(unittest.TestCase):
    def test_fail_share_counts_drops_failures_and_refused_inserts(self):
        counts = {"submitted": 200, "failed": 1, "dropped": 2, "refused_inserts": 3}
        self.assertEqual(run.fail_counts(counts), (200, 6))

    def test_every_ratio_is_printed_with_its_base(self):
        per_layer = {m["name"] for m in SPEC["per_layer"]}
        for name in per_layer:
            if name.startswith("base.") or name in run.TOTALS:
                continue
            self.assertIn(name, run.RATIO_BASES, name)
            self.assertIn(run.RATIO_BASES[name], per_layer, name)
        raw = {name: [1.5, "count"] for name in per_layer}
        raw["base.search_queries"] = [1234, "count"]
        line = run.layer_line("rdma.round_trips_per_search", raw)
        self.assertIn("per base.search_queries = 1234", line)


def fake_report(workload):
    """A harness report of `workload` in which every output is right."""
    gated = WORKLOADS[workload]["gated"]
    end_to_end = {gated.get(m["name"], m["name"]): [1.5, m["unit"]] for m in SPEC["end_to_end"]}
    end_to_end["recall_at_10"] = [0.9, "share"]
    return {"end_to_end": end_to_end, "layers": {}, "pool_layers": {}, "env": {},
            "counts": {"submitted": 100, "failed": 0, "dropped": 0, "refused_inserts": 0},
            "violations": []}


class ResultLineTest(unittest.TestCase):
    def finish(self, workload, raw):
        args = argparse.Namespace(workload=workload, seed=1, seconds=1, trace=0)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.finish(args, raw, WORKLOADS[workload], SPEC)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        return code, result

    def test_correct_report_gives_every_gated_metric(self):
        code, result = self.finish("mixed_tcp", fake_report("mixed_tcp"))
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(list(result["metrics"]), [m["name"] for m in SPEC["end_to_end"]])

    def test_violation_still_prints_a_result_line(self):
        raw = fake_report("mixed_tcp")
        raw["violations"] = ["3 of 600 acked inserts not returned by a self-query after compaction"]
        del raw["end_to_end"]["setup_s"]
        code, result = self.finish("mixed_tcp", raw)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertNotIn("setup_s", result["metrics"])
        self.assertIn("latency_p50_ms", result["metrics"])

    def test_workload_that_never_submitted_counts_as_one_failed_attempt(self):
        raw = fake_report("serve_zipf")
        raw["violations"] = ["DhnswEngine::Build failed"]
        raw["end_to_end"] = {}
        raw["counts"]["submitted"] = 0
        code, result = self.finish("serve_zipf", raw)
        self.assertEqual((code, result["correct"]), (1, False))
        self.assertEqual((result["attempted"], result["failed"]), (1, 1))

    def test_recall_below_the_floor_is_incorrect(self):
        raw = fake_report("batch_sift")
        raw["end_to_end"]["recall_at_10"] = [WORKLOADS["batch_sift"]["recall_floor"] - 0.01, "share"]
        code, result = self.finish("batch_sift", raw)
        self.assertEqual((code, result["correct"]), (1, False))


class BuildDirTest(unittest.TestCase):
    def test_checkouts_sharing_a_target_dir_build_apart(self):
        shared = os.path.join(ROOT, "shared-target")
        with mock.patch.dict(os.environ, {"CARGO_TARGET_DIR": shared}):
            here = run.build_dir()
            with mock.patch.object(run, "HERE", os.path.join(ROOT, "other", "perfbench")):
                other = run.build_dir()
        self.assertEqual(os.path.dirname(here), shared)
        self.assertEqual(os.path.dirname(other), shared)
        self.assertNotEqual(here, other)


class EnvironmentTest(unittest.TestCase):
    def test_refuses_to_run_with_overriding_variables(self):
        for var in run.FORBIDDEN_ENV:
            env = dict(os.environ, **{var: "1"})
            proc = run_benchmark("batch_sift", 1, 1, 0, env=env)
            self.assertNotEqual(proc.returncode, 0, var)
            self.assertNotIn("{", proc.stdout, var)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def dump(self, workload, seed, path):
        flags = run.harness_flags(workload, WORKLOADS[workload], seed, 1, 0)
        subprocess.run([self.binary] + flags + ["--dump_inputs=" + path], check=True)

    def test_same_seed_gives_identical_inputs_and_another_seed_differs(self):
        os.makedirs(run.build_dir(), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            for workload in WORKLOADS:
                first, again, other = (os.path.join(tmp, "%s.%d" % (workload, i)) for i in range(3))
                self.dump(workload, 7, first)
                self.dump(workload, 7, again)
                self.dump(workload, 8, other)
                self.assertTrue(filecmp.cmp(first, again, shallow=False), workload)
                self.assertFalse(filecmp.cmp(first, other, shallow=False), workload)

    def test_printed_metric_names_match_benchmark_json(self):
        for workload in WORKLOADS:
            for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                proc = run_benchmark(workload, 1, 1, trace)
                self.assertEqual(proc.returncode, 0, (workload, trace))
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], (workload, trace))
                self.assertEqual(result["failed"], 0, (workload, trace))
                self.assertEqual(list(result["metrics"]), [m["name"] for m in listed])
                for m in listed:
                    self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                if trace and workload == "mixed_tcp":
                    self.assertEqual(result["metrics"]["replication.acks_per_insert"]["value"], 2)


if __name__ == "__main__":
    unittest.main()
