"""Self-tests of the xswap benchmark. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The generator and schema tests are pure Python. The replay and
end-to-end tests build the benchmark's binaries under .bench_build/
(as a benchmark run does) and run small inputs through them.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402
import xgen  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small(name: str, seed: int) -> xgen.Workload:
    shape = run.SPEC["workloads"][name]["shape"]
    if shape["generator"] == "rings":
        return xgen.ring_book(seed, events=150,
                              clear_every=shape["clear_every"])
    return xgen.grouped_stream(
        seed, groups=min(40, shape["parties"] // shape["group_size"]),
        size=shape["group_size"], events=400,
        clear_every=shape["clear_every"])


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in run.SPEC["workloads"]:
            a, b = small(name, 7), small(name, 7)
            self.assertEqual(a.stream_text(), b.stream_text(), name)
            self.assertEqual(a.book_text(), b.book_text(), name)
            self.assertEqual(a.reference, b.reference, name)
            self.assertNotEqual(a.stream_text(), small(name, 8).stream_text())

    def test_stream_is_exact(self):
        """No add of a live offer, no expire of one that is not live, and
        each clear matches exactly the offers the book records for it."""
        for name in run.SPEC["workloads"]:
            wl = small(name, 3)
            matched: dict[int, list[str]] = {}
            for line in wl.book:
                a, b, chain, asset = line.split()
                point = int(a.rpartition(".")[2])
                matched.setdefault(point, []).append(
                    f"{a.rpartition('.')[0]} {b.rpartition('.')[0]} "
                    f"{chain} {asset}")
            live: set[str] = set()
            points = 0
            for line in wl.lines:
                verb, _, offer = line.partition(" ")
                if verb == "add":
                    self.assertNotIn(offer, live, line)
                    live.add(offer)
                elif verb == "expire":
                    self.assertIn(offer, live, line)
                    live.discard(offer)
                else:
                    self.assertEqual(line, "clear")
                    for offer in matched.get(points, []):
                        self.assertIn(offer, live, name)
                        live.discard(offer)
                    points += 1
            self.assertEqual(wl.lines[-1], "clear")
            self.assertEqual(points, len(wl.reference), name)
            self.assertEqual(len(live), wl.final_unmatched, name)
            flat = sorted(c for point in wl.reference for c in point)
            self.assertEqual(flat, wl.book_reference, name)
            self.assertEqual(sum(c[1] for c in flat), len(wl.book), name)

    def test_min_fvs(self):
        ring = [("a", "b"), ("b", "c"), ("c", "a")]
        self.assertEqual(xgen.min_fvs_size(["a", "b", "c"], ring), 1)
        k4 = [(u, v) for u in "abcd" for v in "abcd" if u != v]
        self.assertEqual(xgen.min_fvs_size(list("abcd"), k4), 3)

    def test_latency_tail(self):
        p50, tail, pct = run.latency_stats([float(i) for i in range(1, 101)])
        self.assertEqual((p50, tail, pct), (50.5, 90.0, 90.0))
        p50, tail, _ = run.latency_stats([3.0, 1.0, 2.0])
        self.assertEqual((p50, tail), (2.0, 2.0))


class SchemaTest(unittest.TestCase):
    def test_metric_names_and_units(self):
        metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
        names = [m["name"] for m in metrics]
        self.assertEqual(len(names), len(set(names)))
        for m in metrics:
            self.assertRegex(m["name"], NAME)
            self.assertLessEqual(len(m["name"]), 64)
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(m["better"], ("higher", "lower"))
        for m in BENCHMARK["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertIn("setup_s", names)

    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         list(run.SPEC["workloads"]))
        for w in BENCHMARK["workloads"]:
            self.assertEqual(w["why"], run.SPEC["workloads"][w["name"]]["why"])


class EndToEndTest(unittest.TestCase):
    """Small real runs; they build the benchmark on first use."""

    @classmethod
    def setUpClass(cls):
        cls.root = BENCH_DIR.parent
        cls.bins = run.build(trace=True)

    def bench(self, workload: str, trace: int) -> dict:
        r = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             workload, "--seed", "5", "--seconds", "1", "--trace",
             str(trace)], cwd=self.root, capture_output=True, text=True,
            timeout=300)
        self.assertEqual(r.returncode, 0, r.stderr[-3000:])
        result = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def check_metrics(self, result: dict, declared: list[dict]) -> None:
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_untraced_output_schema(self):
        result = self.bench("batch-rings", 0)
        self.check_metrics(result, BENCHMARK["end_to_end"])
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_traced_output_schema(self):
        result = self.bench("serve-durable", 1)
        self.check_metrics(result, BENCHMARK["per_layer"])
        self.assertGreaterEqual(
            result["metrics"]["bench.layer_coverage"]["value"], 0.95)

    def test_incremental_replay_applies_every_event(self):
        """Every event of a generated stream applies through
        IncrementalClearing, and its decomposition equals a full one."""
        work = self.root / ".bench_work" / "selftest"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        for name in run.SPEC["workloads"]:
            stream = work / f"{name}.txt"
            stream.write_text(small(name, 11).stream_text())
            subprocess.run(
                [str(self.bins["trace"]), "--mode", "serve", "--input",
                 str(stream), "--work", str(work / name), "--spans",
                 str(work / f"{name}.spans"), "--summary",
                 str(work / f"{name}.json")], check=True, timeout=120)
            summary = json.loads((work / f"{name}.json").read_text())
            self.assertEqual(summary["invalid"], 0, name)
            self.assertTrue(summary["streaming_equals_batch"], name)
            self.assertEqual(summary["events"], len(stream.read_text()
                                                    .splitlines()))

    def test_refuses_without_sources(self):
        """In a directory holding only the benchmark, it exits non-zero
        without printing a result."""
        bare = self.root / ".bench_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(self.root / "BENCHMARK.json", bare)
        r = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
             "batch-rings", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout.strip(), "")
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
