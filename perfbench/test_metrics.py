"""Self-tests for the benchmark's own arithmetic.

run.py runs these before every measurement; run them alone with
  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TailQuantile(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        values = list(range(1, 1001))           # 1..1000
        v, q = metrics.tail_quantile(values, 0.99)
        self.assertEqual(v, 990)                 # 991..1000 lie beyond it
        self.assertAlmostEqual(q, 0.99)
        self.assertEqual(sum(1 for x in values if x > v), 10)

    def test_small_sample_falls_back_to_supported_percentile(self):
        values = list(range(1, 101))             # p99 would leave 1 beyond
        v, q = metrics.tail_quantile(values, 0.99)
        self.assertEqual(v, 90)
        self.assertEqual(sum(1 for x in values if x > v), 10)
        self.assertAlmostEqual(q, 0.90)

    def test_never_below_median(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        v, q = metrics.tail_quantile(values, 0.99)
        self.assertEqual(v, 3.0)
        self.assertAlmostEqual(q, 0.6)

    def test_order_independent(self):
        values = [float(x) for x in range(2000)]
        self.assertEqual(metrics.tail_quantile(values[::-1], 0.99),
                         metrics.tail_quantile(values, 0.99))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.tail_quantile([], 0.99)


def event(name, tid, ts, dur, cat="t"):
    return {"name": name, "cat": cat, "tid": tid, "ts": ts, "dur": dur,
            "ph": "X"}


class SelfTime(unittest.TestCase):
    def setUp(self):
        # tid 1: step [0,100) holds forward [10,50) with two kernels and a
        # loader span [60,70); tid 2 overlaps in time but is its own tree.
        self.spans = metrics.build_spans([
            event("step", 1, 0, 100, "train"),
            event("forward", 1, 10, 40, "train"),
            event("gemm", 1, 12, 10, "kernel"),
            event("ln_fwd_fused", 1, 30, 5, "kernel"),
            event("next", 1, 60, 10, "loader"),
            event("gemm", 2, 5, 90, "kernel"),
            {"name": "marker", "cat": "t", "tid": 1, "ts": 3, "ph": "i"},
        ])
        self.by = {(s.tid, s.name): s for s in self.spans}

    def test_instant_events_ignored(self):
        self.assertEqual(len(self.spans), 6)

    def test_parents(self):
        self.assertIs(self.by[(1, "gemm")].parent, self.by[(1, "forward")])
        self.assertIs(self.by[(1, "forward")].parent, self.by[(1, "step")])
        self.assertIs(self.by[(1, "next")].parent, self.by[(1, "step")])
        self.assertIsNone(self.by[(2, "gemm")].parent)

    def test_self_time_subtracts_children(self):
        self.assertAlmostEqual(self.by[(1, "forward")].self_time, 25.0)
        self.assertAlmostEqual(self.by[(1, "step")].self_time, 50.0)
        self.assertAlmostEqual(self.by[(1, "gemm")].self_time, 10.0)

    def test_uncovered_time(self):
        # 100 - (10 + 5 kernel) - 10 loader
        self.assertAlmostEqual(metrics.uncovered(self.by[(1, "step")]), 75.0)
        self.assertAlmostEqual(metrics.uncovered(self.by[(1, "forward")]), 25.0)

    def test_adjacent_spans_are_siblings(self):
        spans = metrics.build_spans([event("a", 1, 0, 10), event("b", 1, 10, 5)])
        self.assertTrue(all(s.parent is None for s in spans))


class StepMix(unittest.TestCase):
    def test_stratified_by_recycles(self):
        steps = ([{"r": 1, "wall": 0.1}] * 9) + ([{"r": 2, "wall": 0.3}] * 1)
        self.assertAlmostEqual(metrics.mix_step_time(steps, (1, 2)), 0.2)

    def test_duplicate_featurizations(self):
        rows = [{"ok": True, "hit": False, "key": 1},
                {"ok": True, "hit": False, "key": 1},
                {"ok": True, "hit": True, "key": 1},
                {"ok": True, "hit": False, "key": 2}]
        self.assertEqual(metrics.duplicate_featurizations(rows), 1)


class Names(unittest.TestCase):
    def test_benchmark_names(self):
        path = os.path.join(ROOT, "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        for name in names:
            self.assertRegex(name, metrics.NAME_RE)
        self.assertEqual(len(names), len(set(names)))
        self.assertNotRegex("p99 ms", metrics.NAME_RE)

    def test_layer_map_covers_per_layer_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(ROOT, "perfbench", "layers.json")) as f:
            layers = json.load(f)
        self.assertIsNone(layers["claim"])
        self.assertEqual([e["metric"] for e in layers["layers"]],
                         [m["name"] for m in spec["per_layer"]])
        e2e = {m["name"] for m in spec["end_to_end"]}
        workloads = {w["name"] for w in spec["workloads"]}
        for e in layers["layers"]:
            self.assertTrue(e["metric"].startswith(e["layer"] + "."))
            for metric, on in e["moves"].items():
                self.assertIn(metric, e2e)
                self.assertLessEqual(set(on), workloads)


if __name__ == "__main__":
    unittest.main()
