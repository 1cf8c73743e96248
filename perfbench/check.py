"""Correctness gate: compare CLI report documents with recorded references.

References are report documents recorded at the seed commit for two seeds
(the CLI default and one held-out seed), with `duration_ms` removed.  For
a seed that has its own reference, exact reports must match field for
field.  For any other seed, the reference is the recorded one with the
seed substituted, and a field counts as seed-dependent (and is then only
checked for presence) when the two recorded seeds disagree on it.

Float reports (those with a tolerance) must keep their status; a report
that holds must keep `max_residual` within its tolerance, and a failing
one must carry a witness.  Only fields the reference has are compared, so
fields added to reports later do not count as failures.  A non-zero exit
or unreadable output fails every report of the invocation.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: fields of a float report whose values may change with the arithmetic
FLOAT_FREE = ("max_residual", "witness")


def strip_durations(doc: dict) -> dict:
    """The document without its `duration_ms` fields (top level and per report)."""
    doc = {k: v for k, v in doc.items() if k != "duration_ms"}
    doc["reports"] = [{k: v for k, v in r.items() if k != "duration_ms"}
                      for r in doc["reports"]]
    return doc


def with_seed(doc: dict, seed: int) -> dict:
    doc = copy.deepcopy(doc)
    doc["config"]["seed"] = seed
    for r in doc["reports"]:
        r["seed"] = seed
    return doc


def report_keys(reports: list) -> list:
    """(instance, law, occurrence) for each report, in order."""
    seen = {}
    keys = []
    for r in reports:
        k = (r["instance"], r["law"])
        seen[k] = seen.get(k, -1) + 1
        keys.append(k + (seen[k],))
    return keys


class Expectation:
    """What one invocation must print for one seed."""

    def __init__(self, doc: dict, exit_code: int, loose: dict):
        self.doc = doc
        self.exit_code = exit_code
        self.loose = loose          # report key -> fields that vary with the seed
        self.reports = dict(zip(report_keys(doc["reports"]), doc["reports"]))

    @property
    def size(self) -> int:
        return len(self.reports)

    def mismatches(self, exit_code: int, stdout: bytes) -> int:
        """Number of reference reports that are wrong or missing in this output."""
        if exit_code != self.exit_code:
            return self.size
        try:
            got = json.loads(stdout)
            got_reports = dict(zip(report_keys(got["reports"]), got["reports"]))
        except (ValueError, KeyError, TypeError):
            return self.size
        bad = sum(1 for key, ref in self.reports.items()
                  if not _report_ok(ref, got_reports.get(key), self.loose.get(key, ())))
        if bad == 0 and got.get("overall") != self.doc["overall"]:
            bad = 1
        return bad


def _report_ok(ref: dict, got, loose) -> bool:
    if not isinstance(got, dict):
        return False
    free = set(loose)
    if ref.get("tolerance") is not None:
        free.update(FLOAT_FREE)
    for field, want in ref.items():
        if field not in free and got.get(field) != want:
            return False
    if got.get("status") == "fails":
        return isinstance(got.get("witness"), dict)
    if ref.get("tolerance") is not None:
        residual = got.get("max_residual")
        return isinstance(residual, (int, float)) and residual <= ref["tolerance"]
    return "witness" not in got


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def expectations(reference: dict, seed: int) -> list:
    """One Expectation per invocation of the workload, for this seed."""
    out = []
    for inv in reference["invocations"]:
        docs = inv["docs"]
        if str(seed) in docs:
            out.append(Expectation(docs[str(seed)], inv["exit_code"], {}))
            continue
        a, b = (with_seed(docs[str(s)], seed) for s in reference["seeds"])
        loose = {}
        for key, ra, rb in zip(report_keys(a["reports"]), a["reports"], b["reports"]):
            fields = {f for f in set(ra) | set(rb) if ra.get(f) != rb.get(f)}
            if fields:
                loose[key] = fields
        out.append(Expectation(a, inv["exit_code"], loose))
    return out


def negative_controls(expected: list) -> list:
    """Mutated outputs that the gate must reject; returns the controls it let pass.

    A flipped status, an altered witness and a non-zero exit must each
    count as a mismatch.
    """
    missed = []
    for exp in expected:
        body = json.dumps(exp.doc).encode()
        if exp.mismatches(exp.exit_code, body) != 0:
            missed.append("the reference itself does not pass")
        if exp.mismatches(exp.exit_code + 1, body) != exp.size:
            missed.append("non-zero exit")
        doc = copy.deepcopy(exp.doc)
        r = doc["reports"][0]
        r["status"] = "holds-exact" if r["status"] == "fails" else "fails"
        r.setdefault("witness", {"inputs": [], "lhs": 0, "rhs": 1})
        if exp.mismatches(exp.exit_code, json.dumps(doc).encode()) == 0:
            missed.append("flipped status")
        for i, (key, r) in enumerate(zip(report_keys(exp.doc["reports"]),
                                         exp.doc["reports"])):
            if "witness" in r and "witness" not in exp.loose.get(key, ()):
                doc = copy.deepcopy(exp.doc)
                doc["reports"][i]["witness"]["lhs"] = "altered"
                if exp.mismatches(exp.exit_code, json.dumps(doc).encode()) == 0:
                    missed.append("altered witness")
                break
    return missed
