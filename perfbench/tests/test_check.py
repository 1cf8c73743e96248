"""The correctness gate accepts the recorded reports and rejects broken ones.

    python3 -m unittest discover -s perfbench/tests -t perfbench
"""

import copy
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from check import expectations, load_reference, negative_controls  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def output(doc) -> bytes:
    return json.dumps(doc).encode()


class Gate(unittest.TestCase):
    def test_references_cover_every_workload_and_invocation(self):
        self.assertEqual(sorted(WORKLOADS), sorted(w["name"] for w in SPEC["workloads"]))
        for name, workload in WORKLOADS.items():
            ref = load_reference(name)
            self.assertEqual([inv["argv"] for inv in ref["invocations"]],
                             [list(inv.argv) for inv in workload.invocations])

    def test_negative_controls_are_caught_for_recorded_and_other_seeds(self):
        for name in WORKLOADS:
            for seed in (0, 7, 12345):
                with self.subTest(workload=name, seed=seed):
                    self.assertEqual(negative_controls(expectations(load_reference(name), seed)),
                                     [])

    def test_durations_and_new_fields_are_ignored(self):
        (exp,) = expectations(load_reference("filler-exact"), 0)
        doc = copy.deepcopy(exp.doc)
        doc["duration_ms"] = 12.5
        for r in doc["reports"]:
            r["duration_ms"] = 3.25
            r["evaluated"] = {"structured": 0, "sampled": 100}
        self.assertEqual(exp.mismatches(0, output(doc)), 0)

    def test_exact_reports_match_field_for_field(self):
        exp = expectations(load_reference("tower-exact"), 0)[3]     # laws --level 3
        doc = copy.deepcopy(exp.doc)
        doc["reports"][0]["samples"] += 1
        self.assertEqual(exp.mismatches(0, output(doc)), 1)
        doc = copy.deepcopy(exp.doc)
        del doc["reports"][-1]
        self.assertEqual(exp.mismatches(0, output(doc)), 1)
        self.assertEqual(exp.mismatches(0, b"Traceback"), exp.size)

    def test_seed_dependent_witness_only_needs_to_exist(self):
        exp = expectations(load_reference("tower-exact"), 99)[4]    # laws --level 4
        doc = copy.deepcopy(exp.doc)
        report = next(r for r in doc["reports"] if r["law"] == "norm-multiplicativity")
        report["witness"]["lhs"] = ["other"]
        self.assertEqual(exp.mismatches(0, output(doc)), 0)
        del report["witness"]
        self.assertEqual(exp.mismatches(0, output(doc)), 1)

    def test_float_reports_keep_status_and_stay_within_tolerance(self):
        exp = expectations(load_reference("join-float"), 0)[0]
        doc = copy.deepcopy(exp.doc)
        report = doc["reports"][0]
        report["max_residual"] = report["tolerance"] / 2
        self.assertEqual(exp.mismatches(0, output(doc)), 0)
        report["max_residual"] = report["tolerance"] * 2
        self.assertEqual(exp.mismatches(0, output(doc)), 1)


if __name__ == "__main__":
    unittest.main()
