"""Law reports and the generic check executor.

A check runs in two phases.  The structured phase scans a deterministic,
capped stream of exact inputs (small integer coefficients) and yields the
minimal witness when the law fails on one of them.  The sampling phase
evaluates `samples` random inputs indexed 0..samples-1 in order, on one
thread; each input is derived from (seed, suite id, index), so sample i is
the same whatever ran before it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Optional

from .errors import InvariantViolation
from .sampling import CounterRng
from .spheremodel import JoinPoint, SpherePoint

STATUS_HOLDS_EXACT = "holds-exact"
STATUS_HOLDS_SAMPLED = "holds-sampled"
STATUS_FAILS = "fails"


def scalar_to_json(x):
    """Rationals go to 'p/q' strings (lossless); floats and ints pass through."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def coeffs_to_json(value):
    """Coefficient sequences (tuples, lists, sphere and join points) go to lists of scalars."""
    if isinstance(value, (tuple, list, SpherePoint, JoinPoint)):
        return [coeffs_to_json(v) for v in value]
    return scalar_to_json(value)


@dataclass
class LawReport:
    law: str
    instance: str
    status: str
    samples: int
    tolerance: Optional[float]
    max_residual: float
    witness: Optional[dict]
    seed: int
    duration_ms: float
    expected: bool

    def __post_init__(self):
        if self.status == STATUS_FAILS and self.witness is None:
            raise InvariantViolation("failing report without witness")
        if self.status == STATUS_HOLDS_SAMPLED and (
                self.tolerance is None or self.samples is None):
            raise InvariantViolation("sampled report without tolerance/sample count")

    def to_dict(self) -> dict:
        d = {
            "law": self.law,
            "instance": self.instance,
            "status": self.status,
            "samples": self.samples,
            "tolerance": self.tolerance,
            "max_residual": self.max_residual,
            "seed": self.seed,
            "duration_ms": self.duration_ms,
            "expected": self.expected,
        }
        if self.witness is not None:
            d["witness"] = self.witness
        return d

    @property
    def holds(self) -> bool:
        return self.status != STATUS_FAILS


@dataclass
class ReportDocument:
    version: str
    config: dict
    reports: list
    overall: str = "pass"
    duration_ms: float = 0.0

    def finalize(self):
        self.reports.sort(key=lambda r: (r.instance, r.law))
        self.overall = "pass" if all(r.expected for r in self.reports) else "fail"
        return self

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "config": self.config,
            "reports": [r.to_dict() for r in self.reports],
            "overall": self.overall,
            "duration_ms": self.duration_ms,
        }


@dataclass
class _Violation:
    residual: object
    inputs: tuple
    lhs: object
    rhs: object


def _witness_dict(v: _Violation) -> dict:
    return {
        "inputs": [coeffs_to_json(x) for x in v.inputs],
        "lhs": coeffs_to_json(v.lhs),
        "rhs": coeffs_to_json(v.rhs),
    }


def execute_check(law: str,
                  instance: str,
                  evaluate: Callable,
                  *,
                  structured: Iterable = (),
                  sampler: Optional[Callable] = None,
                  samples: int = 0,
                  seed: int = 0,
                  mode: str = "exact",
                  tolerance: float = 1e-9,
                  expect_holds: bool = True,
                  workers: int = 1) -> LawReport:
    """Run one law check and produce its report.

    evaluate(inputs) -> (residual, lhs, rhs); the law holds on the inputs
    when the residual is zero (exact mode) or at most `tolerance` (float
    mode).  Structured inputs are always judged exactly.  sampler(index)
    builds the random inputs for the sampling phase, which stops at the
    first residual above the threshold.  `workers` is accepted and ignored:
    the scan runs on the calling thread (pure-Python arithmetic gains
    nothing from threads), and the keyword stays for callers that pass it.
    """
    t0 = time.perf_counter()
    threshold = 0 if mode == "exact" else tolerance
    violation = None
    max_residual = 0

    # structured inputs are exact; any nonzero residual is a witness
    for inputs in structured:
        residual, lhs, rhs = evaluate(inputs)
        if residual > 0:
            violation = _Violation(residual, inputs, lhs, rhs)
            break

    if violation is None and sampler is not None:
        for i in range(samples):
            inputs = sampler(i)
            residual, lhs, rhs = evaluate(inputs)
            if residual > max_residual:
                max_residual = residual
            if residual > threshold:
                violation = _Violation(residual, inputs, lhs, rhs)
                break

    if violation is not None:
        status = STATUS_FAILS
        witness = _witness_dict(violation)
        max_residual = violation.residual
    else:
        status = STATUS_HOLDS_EXACT if mode == "exact" else STATUS_HOLDS_SAMPLED
        witness = None

    duration_ms = (time.perf_counter() - t0) * 1000.0
    return LawReport(
        law=law,
        instance=instance,
        status=status,
        samples=samples,
        tolerance=None if mode == "exact" else tolerance,
        max_residual=float(max_residual),
        witness=witness,
        seed=seed,
        duration_ms=duration_ms,
        expected=(status != STATUS_FAILS) == expect_holds,
    )


def run_laws(rows,
             instance: str,
             ctx,
             *,
             draw: Callable,
             suite: Callable,
             structured: Callable = lambda shape: (),
             expect: Callable = lambda law: True,
             samples: int = 0,
             seed: int = 0,
             mode: str = "exact",
             tolerance: float = 1e-9) -> list:
    """Check a table of laws and return one report per row, in table order.

    Each row is (law, evaluate, shape).  evaluate(ctx, inputs) returns
    (residual, lhs, rhs); shape describes one input tuple (usually its
    arity) and is handed to structured(shape), which yields the exact
    inputs, and to draw(rng, shape, i), which builds sample i from
    rng = CounterRng(seed, suite(law), i).  An empty shape (arity 0) is
    judged on its structured inputs alone.  expect(law) says whether the
    law should hold.
    """
    reports = []
    for law, evaluate, shape in rows:
        suite_id = suite(law)

        def sampler(i, shape=shape, suite_id=suite_id):
            return draw(CounterRng(seed, suite_id, i), shape, i)

        reports.append(execute_check(
            law, instance, partial(evaluate, ctx), structured=structured(shape),
            sampler=sampler, samples=samples if shape else 0, seed=seed, mode=mode,
            tolerance=tolerance, expect_holds=expect(law)))
    return reports


def max_abs_diff(a: Iterable, b: Iterable):
    """Largest absolute coefficient difference; the residual used everywhere."""
    worst = 0
    for x, y in zip(a, b):
        d = x - y
        if d < 0:
            d = -d
        if d > worst:
            worst = d
    return worst


def compare(lhs, rhs) -> tuple:
    """(residual, lhs, rhs) for a law whose two sides are coefficient sequences."""
    return max_abs_diff(lhs, rhs), lhs, rhs
