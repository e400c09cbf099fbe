#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the benchmark (as perfbench/run.py does), then runs short-horizon
("--smoke") batches of every workload and checks that each one emits every
metric BENCHMARK.json names, with its unit, passes its output checks, and
repeats its digest and virtual metrics exactly across two runs of one seed.
Deliberately broken outputs must be caught by the checks, and the command
must fail without a result when the library sources are absent.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (perfbench/run.py)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BINARY = None


def smoke(workload, seed=7, trace=0, fault=None):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    if fault:
        cmd += ["--fault", fault]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def virtual_lines(lines):
    """The digest line and every virtual-time metric row of the report."""
    keep = [l for l in lines if l.startswith("digest=")]
    keep += [l for l in lines if len(l.split()) >= 2 and l.split()[1] == "virtual"]
    return keep


class Workloads(unittest.TestCase):
    def check_metrics(self, result, catalog):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in catalog})
        for m in catalog:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_each_workload_reports_and_repeats(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                rc, lines, result = smoke(w["name"])
                self.assertEqual(rc, 0, "\n".join(lines))
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.check_metrics(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)
                rc2, lines2, _ = smoke(w["name"])
                self.assertEqual(rc2, 0)
                self.assertEqual(virtual_lines(lines), virtual_lines(lines2))

    def test_traced_run_reports_every_layer(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                rc, lines, result = smoke(w["name"], trace=1)
                self.assertEqual(rc, 0, "\n".join(lines))
                self.check_metrics(result, SPEC["per_layer"])
                self.assertGreater(result["metrics"]["trace.pkts_per_s_traced"]["value"], 0)

    def test_clos_digest_matches_sequential_engine(self):
        rc, lines, _ = smoke("clos_fabric")
        self.assertEqual(rc, 0)
        digest = [l for l in lines if l.startswith("digest=")][0].split()
        self.assertEqual(digest[0].split("=")[1], digest[1].split("=")[1])

    def test_seed_changes_the_inputs(self):
        _, a, _ = smoke("dos_reaction", seed=1)
        _, b, _ = smoke("dos_reaction", seed=2)
        self.assertNotEqual(virtual_lines(a), virtual_lines(b))


class BrokenOutputs(unittest.TestCase):
    def assert_caught(self, workload, fault, message):
        rc, lines, result = smoke(workload, fault=fault)
        self.assertEqual(rc, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertTrue(any(message in l for l in lines if l.startswith("CHECK FAILED")),
                        "\n".join(lines))

    def test_withheld_block_rule_is_caught(self):
        self.assert_caught("dos_reaction", "withhold_block", "not blocked")

    def test_corrupted_acl_is_caught(self):
        self.assert_caught("acl_churn", "corrupt_acl", "!= the reaction's model")


class Command(unittest.TestCase):
    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(HERE.parent / "BENCHMARK.json", d)
            shutil.copytree(HERE, Path(d) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                SPEC["command"] + ["--workload", "dos_reaction", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=d, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
