"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402


class Stats(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        v = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
        self.assertEqual(run.quartiles(v), tuple(statistics.quantiles(v, n=4)))
        self.assertEqual(run.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile([1.0] * 10))
        # 20 samples: the median has 10 beyond it, p90 only 2.
        v = [float(i) for i in range(1, 21)]
        self.assertEqual(run.tail_percentile(v), (50.0, 10.0))
        # 100 samples: p90 has exactly 10 beyond it, p99 only 1.
        v = [float(i) for i in range(1, 101)]
        self.assertEqual(run.tail_percentile(v), (90.0, 90.0))
        # 1000 samples: p99 (10 beyond) is the highest that qualifies.
        v = [float(i) for i in range(1, 1001)]
        self.assertEqual(run.tail_percentile(v), (99.0, 990.0))
        self.assertEqual(run.tail_percentile(list(reversed(v))), (99.0, 990.0))

    def test_fnv1a64_matches_the_simulators_fingerprint(self):
        self.assertEqual(run.fnv1a64(b""), 0xCBF29CE484222325)
        self.assertEqual(run.fnv1a64(b"a"), 0xAF63DC4C8601EC8C)


class OutputGate(unittest.TestCase):
    def fake_cli(self, corpus, code=0):
        def run_once(json_dir):
            for i, doc in corpus.items():
                (json_dir / f"{i}.json").write_bytes(doc)
            return code, 0.01, 5.0
        return run_once

    def corpus(self):
        ids, _ = run.WORKLOADS["pparq"]
        return {i: f'{{"id":"{i}"}}'.encode() for i in ids}

    def measure(self, run_once, expected):
        with tempfile.TemporaryDirectory() as d:
            return run.measure_cli(run_once, "pparq", 0.0, expected, Path(d) / "json")

    def test_matching_output_passes(self):
        corpus = self.corpus()
        joined = b"".join(doc + b"\n" for doc in corpus.values())
        expected = f"{run.fnv1a64(joined):016x}"
        walls, rss, failures = self.measure(self.fake_cli(corpus), expected)
        self.assertEqual(len(walls), run.MIN_CLI_RUNS)
        self.assertEqual(failures, [])

    def test_wrong_fingerprint_fails_every_run_without_raising(self):
        walls, _, failures = self.measure(self.fake_cli(self.corpus()), "0" * 16)
        self.assertEqual(len(failures), len(walls))
        self.assertIn("output fingerprint", failures[0])

    def test_nonzero_exit_and_missing_output_fail(self):
        walls, _, failures = self.measure(self.fake_cli({}, code=1), "0" * 16)
        self.assertEqual(len(failures), len(walls))
        self.assertIn("exited with 1", failures[0])
        walls, _, failures = self.measure(self.fake_cli({}), "0" * 16)
        self.assertIn("unreadable output", failures[0])

    def test_wrong_pinned_fingerprint_is_a_failure(self):
        seed = run.DEFAULT_SEED
        pinned = run.PINNED["testbed"][seed]
        self.assertEqual(run.expected_fingerprint("testbed", seed, pinned), (pinned, None))
        expected, failure = run.expected_fingerprint("testbed", seed, "f" * 16)
        self.assertEqual(expected, pinned)
        self.assertIn("!= pinned", failure)
        # Unpinned seeds trust the in-process run.
        self.assertEqual(run.expected_fingerprint("testbed", 12345, "ab" * 8), ("ab" * 8, None))

    def test_diverging_replay_raises_fail_ratio(self):
        report = {"attempted": 40, "failures": ["testbed arm 3: replay differs"],
                  "metrics": {"trace.coverage": 0.95}, "meta": {}}
        saved = run.helper
        run.helper = lambda *args, **kwargs: report
        try:
            attempted, failures, metrics, _, _ = run.per_layer("testbed", 1, 1, 0, None)
        finally:
            run.helper = saved
        self.assertEqual((attempted, len(failures)), (40, 1))
        self.assertEqual(metrics["trace.coverage"]["value"], 0.95)
        self.assertEqual(metrics["arq.sessions"]["value"], 0)


class Catalogue(unittest.TestCase):
    def test_benchmark_json_matches_the_catalogue(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         [(n, u) for n, u, _ in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(n, u) for n, u, _, _ in run.PER_LAYER])
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))

    def test_compare_flags_differing_metadata(self):
        a = {"workload": "mesh10k", "seed": 1, "trace": 0,
             "meta": {"commit": "x", "nproc": 2, "despread_kernel": "avx512"},
             "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        b = {"workload": "mesh10k", "seed": 1, "trace": 0,
             "meta": {"commit": "y", "nproc": 2, "despread_kernel": "scalar"},
             "metrics": {"wall_s": {"value": 1.1, "unit": "s"}}}
        lines = run.compare(a, b)
        self.assertTrue(lines[0].startswith("WARNING metadata differs: despread_kernel"))
        self.assertFalse(any("commit" in line for line in lines))
        self.assertTrue(any(line.startswith("wall_s") and "+10.00 %" in line for line in lines))
        self.assertEqual(run.compare(a, a)[0].split()[0], "wall_s")


if __name__ == "__main__":
    unittest.main()
