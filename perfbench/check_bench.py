"""
Tests of the benchmark itself, at a tiny size (a few ops per run).  From the
root of a checkout:

    python3 -m unittest discover -s perfbench -p 'check_*.py'
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT, hash_seed: str | None = None):
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    done = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
                          check=False)
    return done


def result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def digests(done) -> list[str]:
    return [line for line in done.stdout.splitlines() if "sha256" in line]


class BenchmarkTest(unittest.TestCase):
    def test_every_workload_prints_every_end_to_end_metric(self):
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         ["axioms", "signs", "roundtrip", "cli"])
        for workload in ("axioms", "signs", "roundtrip", "cli"):
            with self.subTest(workload=workload):
                doc = result(bench("--workload", workload, "--seed", "3", "--ops", "2",
                                   "--trace", "0"))
                self.assertTrue(doc["correct"])
                self.assertEqual((doc["attempted"], doc["failed"]), (2, 0))
                self.assertEqual({k: v["unit"] for k, v in doc["metrics"].items()}, expected)
                for name, metric in doc["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_digests_are_stable_across_runs_and_hash_seeds(self):
        for workload in ("signs", "cli"):
            with self.subTest(workload=workload):
                args = ("--workload", workload, "--seed", "5", "--ops", "3", "--trace", "0")
                first = digests(bench(*args, hash_seed="0"))
                second = digests(bench(*args, hash_seed="1"))
                self.assertEqual(len(first), 2)
                self.assertEqual(first, second)

    def test_traced_counts_repeat_and_cover_every_per_layer_metric(self):
        expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in ("roundtrip", "cli"):
            with self.subTest(workload=workload):
                args = ("--workload", workload, "--seed", "2", "--ops", "3", "--trace", "1")
                runs = [result(bench(*args))["metrics"] for _ in range(2)]
                self.assertEqual({k: v["unit"] for k, v in runs[0].items()}, expected)
                counts = [{k: v["value"] for k, v in m.items() if v["unit"] not in ("s", "ops/s")}
                          for m in runs]
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(counts[0]["bfgroup.multiply.calls"], 0)

    def test_refuses_to_run_without_the_sources(self):
        scratch = ROOT / ".bench_out"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("--workload", "axioms", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


class EnvelopeErrorTest(unittest.TestCase):
    """An op that meets a documented envelope error counts as failed, wherever it meets it."""

    @classmethod
    def setUpClass(cls):
        for path in (ROOT / "src", ROOT / "perfbench"):
            if str(path) not in sys.path:
                sys.path.insert(0, str(path))
        import run
        import workloads

        cls.runner, cls.workloads = run, workloads

    def test_an_error_in_the_op_or_in_its_check_fails_the_op(self):
        wl = self.workloads

        class Fake:
            def draw(self, rng, k):
                return k

            def describe(self, op):
                return op

            def run(self, op):
                if op == 1:
                    raise wl.CombingLimitError("in the op")
                return op

            def check(self, k, op, out):
                if op == 2:
                    raise wl.TruncationError("in the check")
                return b"ok"

        loop = self.runner.Loop()
        loop.run(Fake(), random.Random(0), ops=4, deadline=math.inf, tracer=None,
                 envelope_errors=wl.ENVELOPE_ERRORS)
        self.assertEqual(loop.completed, [True, False, False, True])
        self.assertEqual(loop.failed, 2)

    def test_a_cli_child_that_raised_an_envelope_error_fails_the_op(self):
        cli = self.workloads.Cli(ROOT)
        op = cli.draw(random.Random(0), 4)
        out = subprocess.CompletedProcess(op.argv, 1, "", "Traceback (most recent call last):\n"
                                          "  ...\nbfcalc.braid.CombingLimitError: too long")
        with self.assertRaises(self.workloads.CombingLimitError):
            cli.check(4, op, out)
        out.stderr = "Traceback (most recent call last):\n  ...\nValueError: other"
        with self.assertRaises(self.workloads.WrongAnswer):
            cli.check(4, op, out)


if __name__ == "__main__":
    unittest.main()
