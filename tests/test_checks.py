"""The check executor and its residual (a NaN never reads as a pass), and the
sampler's cached suite key."""

import hashlib
import math

import pytest

from hopfcheck.checks import STATUS_FAILS, compare, execute_check, max_abs_diff
from hopfcheck.sampling import CounterRng, _suite_key

NAN = math.nan


@pytest.mark.parametrize("lhs,rhs", [
    ((NAN,), (1.0,)),
    ((5.0, NAN, 0.0), (0.0, 1.0, 0.0)),   # after a larger finite difference
    ((0.0, NAN, 9.0), (0.0, 1.0, 0.0)),   # before one
])
def test_max_abs_diff_returns_nan(lhs, rhs):
    assert math.isnan(max_abs_diff(lhs, rhs))


def test_max_abs_diff_finite():
    assert max_abs_diff((1.0, 2.0), (1.5, -1.0)) == 3.0
    assert max_abs_diff((), ()) == 0


def _nan_law(where):
    def evaluate(inputs):
        (x,) = inputs
        lhs, rhs = (x, NAN), (x, 1.0)
        if where == "residual":
            return NAN, lhs, rhs
        return compare(lhs, rhs)
    return evaluate


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("phase", ["structured", "sampled"])
@pytest.mark.parametrize("where", ["side", "residual"])
def test_nan_law_fails_with_witness(where, phase, mode):
    if phase == "structured":
        inputs = dict(structured=[(1.0,)])
    else:
        inputs = dict(sampler=lambda i: (float(i + 1),), samples=4)
    report = execute_check("nan-law", "test", _nan_law(where), mode=mode, **inputs)
    assert report.status == STATUS_FAILS
    assert not report.expected
    assert math.isnan(report.max_residual)
    assert report.witness["inputs"] == [1.0]
    assert math.isnan(report.witness["lhs"][1])


def test_suite_key_and_samples_unchanged():
    # the key is the first 8 bytes of the suite id's SHA-256; draws are pinned
    suite = "cdalg/associativity/level-3/float"
    assert _suite_key(suite) == int.from_bytes(hashlib.sha256(suite.encode()).digest()[:8], "big")
    hits = _suite_key.cache_info().hits
    _suite_key(suite)
    assert _suite_key.cache_info().hits == hits + 1
    rng = CounterRng(3, suite, 5)
    assert [rng.next_u64() for _ in range(3)] == [
        4144119804681957531, 8941811449772818689, 14897237573122354821]
