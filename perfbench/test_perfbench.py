"""Self-tests of the benchmark's Python side: the schema of BENCHMARK.json,
the schema of the one-command result line, failure accounting in it, the
human report, and the quartile spread helper.  Run through
`python3 perfbench/run.py --self-test` (or `python3 -m unittest` from
this directory)."""

import json
import os
import re
import statistics
import unittest

import run
import spread

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_bench():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fake_doc(bench, trace, **ops):
    metrics = {m["name"]: {"value": 1.5, "unit": m["unit"], "samples": 1000}
               for m in (bench["per_layer"] if trace else bench["end_to_end"])}
    metrics["fail_frac"] = {"value": 0.0, "unit": "ratio", "samples": 1000}
    doc = {"correct": True, "attempted": 1000, "ok": 1000, "shed": 0,
           "failed": 0, "mismatched": 0, "metrics": metrics,
           "info": {"cpu_model": "x", "caches": "y", "build_type": "Release",
                    "threads_and_sizes": {"nproc": 4}}}
    doc.update(ops)
    return doc


class BenchmarkJson(unittest.TestCase):
    def test_keys_and_limits(self):
        b = load_bench()
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual(b["command"], ["python3", "perfbench/run.py"])
        self.assertIn(b["paths"], (["perfbench"],))
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        names = []
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
            names.append(w["name"])
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))

    def test_every_per_layer_metric_has_a_target(self):
        for m in load_bench()["per_layer"]:
            self.assertIn(m["name"], run.LAYER_TARGETS)

    def test_writer_rate_comes_from_benchmark_json(self):
        self.assertGreater(run.writer_rate(load_bench()), 0)


class ResultLine(unittest.TestCase):
    def test_exact_keys_and_metrics(self):
        b = load_bench()
        for trace in (False, True):
            line = run.result_line(fake_doc(b, trace), b, trace)
            self.assertEqual(set(line), {"correct", "attempted", "failed",
                                         "metrics"})
            wanted = b["per_layer"] if trace else b["end_to_end"]
            self.assertEqual(set(line["metrics"]), {m["name"] for m in wanted})
            for v in line["metrics"].values():
                self.assertEqual(set(v), {"value", "unit"})
            json.loads(json.dumps(line))

    def test_a_shed_counts_as_failed(self):
        b = load_bench()
        line = run.result_line(fake_doc(b, False, shed=3, failed=2, ok=995),
                               b, False)
        self.assertEqual(line["failed"], 5)
        self.assertTrue(line["correct"])

    def test_a_wrong_answer_is_incorrect_and_failed(self):
        b = load_bench()
        line = run.result_line(
            fake_doc(b, False, mismatched=1, ok=999, correct=False), b, False)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 1)

    def test_missing_metric_or_wrong_unit_is_refused(self):
        b = load_bench()
        name = b["end_to_end"][0]["name"]
        doc = fake_doc(b, False)
        del doc["metrics"][name]
        with self.assertRaises(ValueError):
            run.result_line(doc, b, False)
        doc = fake_doc(b, False)
        doc["metrics"][name]["unit"] = "furlong"
        with self.assertRaises(ValueError):
            run.result_line(doc, b, False)

    def test_report_names_every_metric_with_unit_and_samples(self):
        b = load_bench()

        class Args:
            workload, seed, seconds = "lookup_b1", 1, 8

        for trace in (False, True):
            doc = fake_doc(b, trace)
            text = run.report(doc, Args, trace)
            for name, m in doc["metrics"].items():
                row = [l for l in text.splitlines() if l.startswith(name + " ")]
                self.assertEqual(len(row), 1, name)
                self.assertIn(m["unit"], row[0])
                self.assertIn("1000", row[0])


class Spread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        med, share = spread.spread(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(med, statistics.median(values))
        self.assertAlmostEqual(share, (q3 - q1) / med)

    def test_seed_ranges(self):
        self.assertEqual(spread.parse_seeds("3-5"), [3, 4, 5])
        self.assertEqual(spread.parse_seeds("7"), [7])


if __name__ == "__main__":
    unittest.main()
