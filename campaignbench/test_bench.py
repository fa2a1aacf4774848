#!/usr/bin/env python3
"""The benchmark's own test: every workload at `WorldScale::Tiny` through
`run.py`, as in the real runs.

    python3 campaignbench/test_bench.py

Checks that each workload passes its output checks, that the printed
metric names and units are exactly those of BENCHMARK.json, and that the
traced run's spans are well formed: self times are non-negative and a
parent's children never exceed it.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("paper-roster", "small-durable", "small-feeds")


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "42", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr[-3000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


class CampaignBenchTest(unittest.TestCase):
    def check_result(self, result, section):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, declared(section))

    def test_timed_run_of_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload, 0)
                self.check_result(result, "end_to_end")
                self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_traced_run_of_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload), tempfile.TemporaryDirectory() as tmp:
                spans_path = os.path.join(tmp, "spans.jsonl")
                self.check_result(bench(workload, 1, "--spans-out", spans_path), "per_layer")
                with open(spans_path) as f:
                    spans = [json.loads(line) for line in f]
                self.check_spans(spans)

    def check_spans(self, spans):
        names = {s["name"] for s in spans}
        self.assertTrue({"run", "setup", "world_build", "step_round", "finish", "export"} <= names)
        children = {}
        for s in spans:
            self.assertGreaterEqual(s["end_ns"], s["start_ns"])
            self.assertGreaterEqual(s["self_ns"], 0, s)
            if s["parent"] is not None:
                parent = spans[s["parent"]]
                self.assertLessEqual(parent["start_ns"], s["start_ns"])
                self.assertLessEqual(s["end_ns"], parent["end_ns"])
                children.setdefault(s["parent"], []).append(s)
        for idx, kids in children.items():
            parent = spans[idx]
            covered = sum(k["end_ns"] - k["start_ns"] for k in kids)
            self.assertLessEqual(covered, parent["end_ns"] - parent["start_ns"])
        rounds = [s["round"] for s in spans if s["name"] == "step_round"]
        self.assertEqual(rounds, list(range(len(rounds))))


if __name__ == "__main__":
    unittest.main()
