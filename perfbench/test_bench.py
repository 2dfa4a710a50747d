#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of the repository:

    python3 perfbench/test_bench.py

Each workload runs at its tiny size, so the whole file takes about a
minute.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# the name each workload prints its work_per_s under
WORK_METRIC = {
    "table3-aso": "sim_instrs_per_s",
    "fig6-faults": "sim_instrs_per_s",
    "fabric-small": "checks_per_s",
}
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")


def bench(workload, trace, reference=None, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    if reference:
        cmd += ["--reference", reference]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def printed_metrics(proc):
    """{name: unit} of the 'metric <name> <value> <unit>' lines."""
    out = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            float(parts[2])
            out[parts[1]] = parts[3]
    return out


class TinyWorkloads(unittest.TestCase):
    def check(self, workload, trace, metrics):
        proc = bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        r = result(proc)
        self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(r["correct"], proc.stdout)
        self.assertEqual(r["failed"], 0)
        self.assertGreaterEqual(r["attempted"], 1)
        want = {m["name"]: m["unit"] for m in metrics}
        got = {k: v["unit"] for k, v in r["metrics"].items()}
        self.assertEqual(got, want)
        printed = printed_metrics(proc)
        for name, unit in want.items():
            self.assertEqual(printed.get(name), unit, name)
        return proc, r

    def test_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc, r = self.check(w, 0, SPEC["end_to_end"])
                printed = printed_metrics(proc)
                self.assertEqual(printed.get(WORK_METRIC[w]), "1/s")
                self.assertEqual(printed.get("failed_frac"), "frac")
                self.assertIn(f"digest {w} tiny ", proc.stdout)
                self.assertIn("reference=match", proc.stdout)
                self.assertIn("calibration_ms start=", proc.stdout)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(r["metrics"][m["name"]]["value"], 0, m["name"])

    def test_per_layer(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, r = self.check(w, 1, SPEC["per_layer"])
                if w == "table3-aso":
                    runs = r["metrics"]["aso.runs_per_sizing"]["value"]
                    self.assertGreaterEqual(runs, 8)
                    self.assertEqual(r["metrics"]["os.invocations"]["value"], 0)
                if w == "fabric-small":
                    # cold misses every shard, warm hits every shard
                    self.assertEqual(r["metrics"]["store.hit_frac"]["value"], 0.5)


class Reference(unittest.TestCase):
    def test_tampered_reference_fails(self):
        os.makedirs(SCRATCH, exist_ok=True)
        tampered = os.path.join(SCRATCH, "tampered-reference.txt")
        with open(os.path.join(ROOT, "perfbench", "reference.txt")) as f:
            lines = f.read().splitlines()
        with open(tampered, "w") as f:
            for line in lines:
                parts = line.split()
                if parts[:3] == ["table3-aso", "tiny", "1"]:
                    digest = parts[3]
                    parts[3] = ("0" if digest[0] != "0" else "1") + digest[1:]
                f.write(" ".join(parts) + "\n")
        proc = bench("table3-aso", 0, reference=tampered)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        r = result(proc)
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)
        self.assertIn("reference=MISMATCH", proc.stdout)


class OutsideCheckout(unittest.TestCase):
    def test_fails_without_sources(self):
        os.makedirs(SCRATCH, exist_ok=True)
        d = tempfile.mkdtemp(dir=SCRATCH)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("fig6-faults", 0, cwd=d)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(d)


if __name__ == "__main__":
    unittest.main(verbosity=2)
