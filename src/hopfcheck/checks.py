"""Law reports and the generic check executor.

A check runs in two phases.  The structured phase scans a deterministic,
capped stream of exact inputs (small integer coefficients) and yields the
minimal witness when the law fails on one of them; a suite may give a row
none, as the ladder does for a row it has proved, and the sampled phase
still runs.  The sampling phase evaluates `samples` random inputs indexed
0..samples-1 in order, on one thread; each input is derived from (seed,
suite id, index), so sample i is the same whatever ran before it.  `Lifted`
sides are compared on integers: Fractions are built only for a nonzero
residual and a witness.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Optional

from .errors import InvariantViolation, PreconditionError, UsageError
from .sampling import law_samples
from .spheremodel import JoinPoint, Lifted, SpherePoint, lifted

STATUS_HOLDS_EXACT = "holds-exact"
STATUS_HOLDS_SAMPLED = "holds-sampled"
STATUS_FAILS = "fails"


def scalar_to_json(x):
    """Rationals go to 'p/q' strings (lossless); floats and ints pass through."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def coeffs_to_json(value):
    """Coefficient sequences (tuples, lists, `Lifted` values, sphere and join points) go to
    lists of scalars; a `Lifted` builds its Fractions here."""
    if isinstance(value, (tuple, list, Lifted, SpherePoint, JoinPoint)):
        return [coeffs_to_json(v) for v in value]
    return scalar_to_json(value)


#: the report's field names, in the order JSON and CSV write them
REPORT_FIELDS = ("law", "instance", "status", "samples", "tolerance", "max_residual", "seed",
                 "duration_ms", "expected", "witness")


class LawReport:
    """One law's verdict; its fields are `REPORT_FIELDS`."""

    __slots__ = REPORT_FIELDS

    def __init__(self, law: str, instance: str, status: str, samples: int,
                 tolerance: Optional[float], max_residual: float, seed: int,
                 duration_ms: float, expected: bool, witness: Optional[dict]):
        if status == STATUS_FAILS and witness is None:
            raise InvariantViolation("failing report without witness")
        if status == STATUS_HOLDS_SAMPLED and (tolerance is None or samples is None):
            raise InvariantViolation("sampled report without tolerance/sample count")
        self.law, self.instance, self.status, self.samples = law, instance, status, samples
        self.tolerance, self.max_residual, self.seed = tolerance, max_residual, seed
        self.duration_ms, self.expected, self.witness = duration_ms, expected, witness

    def to_dict(self) -> dict:
        """The fields in `REPORT_FIELDS` order, without the witness when there is none."""
        return {name: getattr(self, name) for name in REPORT_FIELDS
                if name != "witness" or self.witness is not None}

    @property
    def holds(self) -> bool:
        return self.status != STATUS_FAILS


class ReportDocument:
    __slots__ = ("version", "config", "reports", "overall", "duration_ms")

    def __init__(self, version: str, config: dict, reports: list,
                 overall: str = "pass", duration_ms: float = 0.0):
        self.version, self.config, self.reports = version, config, reports
        self.overall, self.duration_ms = overall, duration_ms

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
    mode); any other mode raises UsageError.  Structured inputs are always
    judged exactly; an empty stream (a law its suite has proved on every
    structured input) leaves the sampled phase as it is.  sampler(index),
    called for index 0, 1, ... in order, builds the random inputs for the
    sampling phase, which stops at the first residual above the threshold.
    A NaN residual is never within the threshold, so it fails the law in
    either phase, and so does an exception from evaluate (see `_scan`) or
    from the sampler (see `_draws`).  `workers` is accepted and ignored: the
    scan runs on the calling thread (pure-Python arithmetic gains nothing
    from threads).
    """
    if mode not in ("exact", "float"):
        raise UsageError(f"unknown mode {mode!r}")
    t0 = time.perf_counter()
    threshold = 0 if mode == "exact" else tolerance
    draw_errors = []
    sampled = _draws(sampler, samples, draw_errors) if sampler is not None else ()
    # structured inputs are exact; any nonzero residual is a witness
    max_residual, failure = _scan(evaluate, ((structured, 0), (sampled, threshold)))
    if failure is not None:
        inputs, sides = failure
        witness = {"inputs": [coeffs_to_json(x) for x in inputs], **sides}
    else:   # None, or the failure of a sampler that raised
        witness = draw_errors[0] if draw_errors else None
    status = (STATUS_FAILS if witness is not None
              else STATUS_HOLDS_EXACT if mode == "exact" else STATUS_HOLDS_SAMPLED)

    duration_ms = (time.perf_counter() - t0) * 1000.0
    return LawReport(
        law=law,
        instance=instance,
        status=status,
        samples=samples,
        tolerance=None if mode == "exact" else tolerance,
        max_residual=float(max_residual),
        seed=seed,
        duration_ms=duration_ms,
        # a law that raised is never an expected failure
        expected=(status != STATUS_FAILS) == expect_holds and "error" not in (witness or ()),
        witness=witness,
    )


def _draws(sampler: Callable, samples: int, errors: list):
    """sampler(0), sampler(1), ... up to samples, or until the sampler raises on
    index i: that ends the stream and appends {"sample": i, "error":
    "<Type>: <message>"} to errors.  A PreconditionError propagates."""
    for i in range(samples):
        try:
            inputs = sampler(i)
        except PreconditionError:
            raise
        except Exception as err:    # a sampler that raises fails the law at that sample
            errors.append({"sample": i, "error": f"{type(err).__name__}: {err}"})
            return
        yield inputs


def _scan(evaluate: Callable, phases) -> tuple:
    """(max_residual, failure) over phases of (inputs, threshold), up to the first failing input.

    failure is None, or (inputs, sides) with sides {"lhs", "rhs"} for a
    residual above the threshold (then max_residual) or {"error":
    "<Type>: <message>"} when evaluate raised.  A PreconditionError
    propagates: it marks a skipped gate, not a law failing on an input.
    """
    max_residual = 0
    for inputs_seq, threshold in phases:
        for inputs in inputs_seq:
            try:
                residual, lhs, rhs = evaluate(inputs)
            except PreconditionError:
                raise
            except Exception as err:    # a law that raises fails on these inputs
                return max_residual, (inputs, {"error": f"{type(err).__name__}: {err}"})
            if residual > max_residual:
                max_residual = residual
            if not residual <= threshold:
                return residual, (inputs, {"lhs": coeffs_to_json(lhs), "rhs": coeffs_to_json(rhs)})
    return max_residual, None


def require_samples(samples: int) -> int:
    """samples, or UsageError below 1: a suite that clamps its sample count checks first."""
    if samples < 1:
        raise UsageError("samples must be >= 1")
    return samples


def run_laws(rows,
             instance: str,
             ctx,
             *,
             dim: int,
             suite: Callable,
             samples: int,
             structured: Callable = lambda law, kinds: (),
             expect: Callable = lambda law: True,
             seed: int = 0,
             mode: str = "exact",
             tolerance: float = 1e-9) -> list:
    """Check a table of laws and return one report per row, in table order.

    A row is (law, evaluate, kinds): evaluate(ctx, inputs) gives (residual, lhs,
    rhs), structured(law, kinds), called just before the row's check, its exact
    inputs (none for a row the suite has proved), and sample i is one input of each
    kind in order, in R^dim, read from the words of CounterRng(seed, suite(law), i):
    the sampler hands on the tuples of one `law_samples` stream per law, which
    computes each chunk's words when its first sample is drawn.  A row with no
    kinds, or at dim 0 (R^0 has no point), draws no sample.  expect(law) says
    whether the law should hold.
    """
    require_samples(samples)
    reports = []
    for law, evaluate, kinds in rows:
        n = samples if kinds and dim else 0
        draws = law_samples(seed, suite(law), n, kinds, dim, mode, tolerance)
        reports.append(execute_check(
            law, instance, partial(evaluate, ctx),
            structured=structured(law, kinds),
            sampler=lambda i, draws=draws: next(draws), samples=n, seed=seed, mode=mode,
            tolerance=tolerance, expect_holds=expect(law)))
    return reports


def max_abs_diff(a: Iterable, b: Iterable):
    """Largest absolute coefficient difference; the residual used everywhere.

    Equal exact coordinates are skipped without subtracting, so all-equal
    sides give int 0.  Float coordinates are always subtracted, so inf
    against inf still gives NaN.  A NaN difference is returned as soon as
    it is seen, so it cannot hide behind a larger finite one.  Sides of
    different lengths raise ValueError, which fails the law evaluating them.

    A `Lifted` side is compared with the other, lifted, on cross-multiplied
    integers; only a nonzero residual builds its Fraction, as the loop would.
    """
    a = a.flatten() if type(a) is JoinPoint else a
    b = b.flatten() if type(b) is JoinPoint else b
    if type(a) is Lifted or type(b) is Lifted:
        a, b = lifted(a), lifted(b)
        da, db = a.den, b.den
        top = max([abs(x * db - y * da) for x, y in zip(a.nums, b.nums, strict=True)], default=0)
        return Fraction(top, da * db) if top else 0
    worst = 0
    for x, y in zip(a, b, strict=True):
        if type(x) is not float and x == y:   # a float never meets Fraction.__eq__
            continue
        d = x - y
        if d < 0:
            d = -d
        if not d <= worst:
            if d != d:
                return d
            worst = d
    return worst


def worst_of(items: Iterable, residual: Callable = lambda r: r) -> tuple:
    """(residual, item) of the item with the largest residual(item).

    Items whose residual is not above 0 are passed over, so with none left
    the result is (0, None).  A NaN residual is returned with its item as
    soon as it is seen: max() and `r > worst` would both drop it.
    """
    worst, at = 0, None
    for item in items:
        r = residual(item)
        if not r <= worst:
            if r != r:
                return r, item
            worst, at = r, item
    return worst, at


def compare(lhs, rhs) -> tuple:
    """(residual, lhs, rhs) for a law whose two sides are coefficient sequences."""
    return max_abs_diff(lhs, rhs), lhs, rhs
