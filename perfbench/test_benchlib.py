"""Tests of the benchmark's helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def node(name, ns, children=(), calls=1):
    return {"name": name, "ns": ns, "calls": calls,
            "children": list(children)}


def traced_tree():
    return node("sim.run", 1000, [
        node("sim.prepopulate", 300, [node("trace.fill", 100),
                                      node("pagetable.install", 50, calls=5)]),
        node("sim.phase", 600, [node("tlb.l1_hit", 40, calls=4),
                                node("scheme.miss", 300, calls=3),
                                node("dram.mem", 200, calls=2)]),
        node("sim.reset", 10)])


class TailTest(unittest.TestCase):
    def test_exactly_ten_samples_beyond(self):
        samples = list(range(100))
        value, percentile, count = benchlib.tail(samples)
        self.assertEqual(value, 89)
        self.assertEqual(sum(1 for x in samples if x > value), 10)
        self.assertAlmostEqual(percentile, 90.0)
        self.assertEqual(count, 100)

    def test_order_does_not_matter(self):
        samples = [5.0, 1.0, 9.0, 3.0] * 5
        self.assertEqual(benchlib.tail(samples),
                         benchlib.tail(sorted(samples)))

    def test_eleven_samples_is_the_minimum(self):
        value, percentile, _ = benchlib.tail(list(range(11)))
        self.assertEqual(value, 0)
        self.assertAlmostEqual(percentile, 100.0 / 11)
        with self.assertRaises(ValueError):
            benchlib.tail(list(range(10)))


class RssTest(unittest.TestCase):
    def test_reads_the_childs_own_peak(self):
        alloc = "b = bytearray(96 << 20); b[::4096] = b'x' * len(b[::4096])"
        code, rss = benchlib.run_measured([sys.executable, "-c", alloc], 60)
        self.assertEqual(code, 0)
        self.assertGreaterEqual(rss, 96)
        self.assertLess(rss, 400)
        # A small child afterwards reports its own peak, not the last.
        code, rss = benchlib.run_measured([sys.executable, "-c", "pass"], 60)
        self.assertEqual(code, 0)
        self.assertLess(rss, 64)

    def test_exit_code_and_timeout(self):
        code, _ = benchlib.run_measured(
            [sys.executable, "-c", "raise SystemExit(3)"], 60)
        self.assertEqual(code, 3)
        with self.assertRaises(TimeoutError):
            benchlib.run_measured(
                [sys.executable, "-c", "import time; time.sleep(30)"], 0.5)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_is_duration_minus_children(self):
        selfs, overlap = benchlib.self_times(traced_tree())
        self.assertEqual(overlap, 0)
        self.assertEqual(selfs["sim.run"], 1000 - 300 - 600 - 10)
        self.assertEqual(selfs["sim.prepopulate"], 150)
        self.assertEqual(selfs["sim.phase"], 60)
        self.assertEqual(selfs["scheme.miss"], 300)
        self.assertEqual(sum(selfs.values()), 1000)
        self.assertTrue(benchlib.check_self_times(traced_tree()))

    def test_repeated_names_are_summed(self):
        tree = node("sim.run", 100, [node("trace.fill", 10),
                                     node("sim.phase", 50,
                                          [node("trace.fill", 20)])])
        self.assertEqual(benchlib.self_times(tree)[0]["trace.fill"], 30)
        self.assertEqual(benchlib.span_totals(tree)["trace.fill"], (30, 2))

    def test_overlapping_children_fail_the_check(self):
        tree = node("sim.run", 100, [node("scheme.miss", 80),
                                     node("dram.mem", 40)])
        selfs, overlap = benchlib.self_times(tree)
        self.assertEqual(selfs["sim.run"], 0)
        self.assertEqual(overlap, 20)
        self.assertFalse(benchlib.check_self_times(tree))

    def test_unknown_layer_is_rejected(self):
        with self.assertRaises(ValueError):
            benchlib.layer_of("gpu.kernel")


def synthetic_raw():
    reps = [{"setup_s": 0.02 + i / 1000, "run_s": 0.2 + i / 100,
             "wall_s": 0.22 + i / 100, "refs": 1000, "jobs": 1,
             "latencies_s": [0.22 + i / 100]} for i in range(12)]
    counts = {"digest": 12345, "cycles": 10, "translation_cycles": 7,
              "page_walks": 0, "trace_records": 20, "walk_fraction": 0.0,
              "pom_served": 3, "pom_cached": 2}
    return {"reps": reps, "traced": [traced_tree(), traced_tree()],
            "counts": counts, "checks": {"attempted": 1, "failed": 0,
                                         "failures": []}}


class OutputTest(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads(BENCHMARK_JSON.read_text())

    def result(self, values, trace):
        specs = self.bench["per_layer" if trace else "end_to_end"]
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {s["name"]: {"value": values[s["name"]],
                                        "unit": s["unit"]}
                            for s in specs}}

    def test_builders_cover_every_benchmark_metric(self):
        end_to_end, latency = benchlib.end_to_end_metrics(synthetic_raw(),
                                                          50.0)
        self.assertEqual(set(end_to_end),
                         {s["name"] for s in self.bench["end_to_end"]})
        self.assertEqual(latency["latency_samples"], 12)
        self.assertAlmostEqual(latency["result_latency_tail_s"], 0.23)
        per_layer = benchlib.per_layer_metrics(synthetic_raw())
        self.assertEqual(set(per_layer),
                         {s["name"] for s in self.bench["per_layer"]})
        for trace, values in ((0, end_to_end), (1, per_layer)):
            self.assertEqual(benchlib.result_problems(
                self.result(values, trace), self.bench, trace), [])

    def test_best_of_repetitions(self):
        metrics, _ = benchlib.end_to_end_metrics(synthetic_raw(), 50.0)
        self.assertAlmostEqual(metrics["refs_per_s"], 1000 / 0.2)
        self.assertAlmostEqual(metrics["jobs_per_s"], 1 / 0.22)
        self.assertAlmostEqual(metrics["setup_s"], 0.02)

    def test_per_layer_arithmetic(self):
        metrics = benchlib.per_layer_metrics(synthetic_raw())
        self.assertAlmostEqual(metrics["share.scheme"], 0.3)
        self.assertAlmostEqual(metrics["sim.loop_self_s"], 300 / 1e9)
        self.assertAlmostEqual(metrics["scheme.miss_ns"], 100)
        self.assertAlmostEqual(metrics["trace.ns_per_record"], 5)
        self.assertAlmostEqual(metrics["tlb.hit_ratio"], 4 / 7)
        self.assertAlmostEqual(metrics["pomtlb.cache_served_ratio"], 2 / 3)
        self.assertAlmostEqual(sum(metrics[f"share.{layer}"]
                                   for layer in benchlib.LAYERS), 1.0)

    def test_missing_metric_or_wrong_unit_is_reported(self):
        values, _ = benchlib.end_to_end_metrics(synthetic_raw(), 50.0)
        result = self.result(values, 0)
        del result["metrics"]["setup_s"]
        result["metrics"]["refs_per_s"]["unit"] = "Hz"
        problems = benchlib.result_problems(result, self.bench, 0)
        self.assertEqual(len(problems), 2)
        self.assertIn("setup_s", problems[0] + problems[1])

    def test_benchmark_json_keys(self):
        self.assertEqual(set(self.bench),
                         {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"})
        setup = [m for m in self.bench["end_to_end"]
                 if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower",
                                  "bound": max(m["bound"] for m in
                                               self.bench["end_to_end"])}])


if __name__ == "__main__":
    unittest.main()
