"""Unit tests of the compare verdicts (run by `run.py --selftest`)."""

import json
import unittest

from compare import compare, load_runs, verdict

SEEDS = range(1, 11)


def runs(values):
    return dict(zip(SEEDS, values))


class VerdictTest(unittest.TestCase):
    def test_clear_gain_is_better(self):
        parent = runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
        change = runs([80, 81, 79, 80, 82, 78, 80, 81, 79, 80])
        self.assertEqual(verdict(parent, change, "lower", 0.1), "better")
        self.assertEqual(verdict(change, parent, "higher", 0.25), "better")

    def test_regression_past_bound_is_worse(self):
        parent = runs([100] * 10)
        change = runs([115] * 10)
        self.assertEqual(verdict(parent, change, "lower", 0.1), "worse")
        self.assertEqual(verdict(parent, change, "higher", 0.1), "better")

    def test_small_move_is_same(self):
        parent = runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
        change = runs([101, 100, 100, 99, 101, 100, 102, 100, 98, 100])
        self.assertEqual(verdict(parent, change, "lower", 0.1), "same")

    def test_noisy_parent_is_unresolved(self):
        parent = runs([60, 140, 80, 120, 100, 70, 130, 90, 110, 100])
        change = runs([95, 105, 90, 110, 100, 99, 101, 97, 103, 100])
        self.assertEqual(verdict(parent, change, "lower", 0.1), "unresolved")

    def test_rows_per_workload_and_metric(self):
        metrics = [{"name": "op_ms_p50", "better": "lower", "bound": 0.25},
                   {"name": "setup_s", "better": "lower", "bound": 0.2}]
        lines = [json.dumps({
            "workload": w, "seed": seed, "trace": 0,
            "result": {"metrics": {
                "op_ms_p50": {"value": 10 + seed % 3, "unit": "ms"},
                "setup_s": {"value": 1.0, "unit": "s"}}}})
            for seed in SEEDS for w in ("row_replay", "array64")]
        lines.append(json.dumps({"workload": "row_replay", "seed": 1,
                                 "trace": 1, "result": {"metrics": {}}}))
        r = load_runs(lines)
        rows = compare(r, r, metrics)
        self.assertEqual(len(rows), 4)
        self.assertTrue(all(row[4] == "same" for row in rows))
        # The same spread judged against a tighter bound is unresolved.
        metrics[0]["bound"] = 0.1
        self.assertEqual(compare(r, r, metrics)[0][4], "unresolved")


if __name__ == "__main__":
    unittest.main()
