"""The check executor and its residual (a NaN or an exception never reads as
a pass), the report's field order, the residual-combining sites, the sampler's
cached suite key, how far the law runner draws words, and the modes it accepts."""

import hashlib
import itertools
import math

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfcheck import cdalg, checks, hopf, joinmul, laws, sampling
from hopfcheck.checks import (REPORT_FIELDS, STATUS_FAILS, STATUS_HOLDS_EXACT,
                              STATUS_HOLDS_SAMPLED, LawReport, compare, execute_check,
                              max_abs_diff, run_laws, worst_of)
from hopfcheck.errors import InvariantViolation, PreconditionError, UsageError
from hopfcheck.sampling import CounterRng, _suite_key
from hopfcheck.spheremodel import Lifted, lifted

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


@pytest.mark.parametrize("lhs,rhs", [((1, 2), (1,)), ((1,), (1, 2))])
def test_compare_rejects_sides_of_different_lengths(lhs, rhs):
    # the sides agree on the shorter one's prefix, which must not pass the law
    with pytest.raises(ValueError):
        compare(lhs, rhs)
    report = execute_check("short-side", "test", lambda inputs: compare(lhs, rhs),
                           structured=[()])
    assert report.status == STATUS_FAILS and not report.expected
    assert report.witness["error"].startswith("ValueError: ")


def _typed(x):
    return type(x), x


@pytest.mark.parametrize("lhs,rhs,want", [
    ((Fraction(1, 3), 2, Fraction(0)), (Fraction(1, 3), 2, Fraction(0)), 0),
    ((1.0, 0.5), (1.0, 0.5), 0),
    ((-0.0, 0.0), (0.0, -0.0), 0),                  # signed zeros are equal
    ((Fraction(1), 1.0), (1, Fraction(1)), 0),      # equal across types
    ((Fraction(1, 2), Fraction(2)), (Fraction(1, 2), Fraction(3, 4)), Fraction(5, 4)),
    ((1, 5), (1, 2), 3),
], ids=["fractions", "floats", "signed-zeros", "mixed-types", "fraction-diff", "int-diff"])
def test_max_abs_diff_equal_coordinates_keep_value_and_type(lhs, rhs, want):
    # all-equal sides give int 0, as before equal coordinates were skipped
    assert _typed(max_abs_diff(lhs, rhs)) == _typed(want)


@pytest.mark.parametrize("lhs,rhs", [
    ((1.0, NAN), (1.0, 2.0)),
    ((1.0, 2.0), (1.0, NAN)),
    ((NAN,), (NAN,)),
    ((math.inf,), (math.inf,)),    # inf - inf is NaN: float coordinates are subtracted
])
def test_max_abs_diff_nan_in_either_position(lhs, rhs):
    assert math.isnan(max_abs_diff(lhs, rhs))


# --- max_abs_diff against the body it replaced ------------------------------------

def _max_abs_diff_before(a, b):
    """max_abs_diff's body before float coordinates skipped the equality test."""
    worst = 0
    for x, y in zip(a, b):
        if x == y and type(x) is not float:
            continue
        d = x - y
        if d < 0:
            d = -d
        if not d <= worst:
            if d != d:
                return d
            worst = d
    return worst


PAIRING_SCALARS = (Fraction(1, 3), Fraction(0), Fraction(-2), Fraction(1), 0, 1, -2,
                   0.0, -0.0, 1.0, -2.0, 1 / 3, NAN, math.inf, -math.inf)


def test_max_abs_diff_matches_the_body_it_replaced():
    # every Fraction/int/float pairing, NaN and signed zeros, on one and two coordinates
    for x, y in itertools.product(PAIRING_SCALARS, repeat=2):
        assert repr(_typed(max_abs_diff((x,), (y,)))) == repr(_typed(_max_abs_diff_before((x,), (y,))))
    for a, b in itertools.product(itertools.product(PAIRING_SCALARS, repeat=2), repeat=2):
        assert repr(_typed(max_abs_diff(a, b))) == repr(_typed(_max_abs_diff_before(a, b)))


def test_worst_of():
    assert worst_of(()) == (0, None)
    assert worst_of((0, 0.0, Fraction(0))) == (0, None)
    assert worst_of((1, 3, 2, 3)) == (3, 3)
    assert worst_of(["a", "ccc", "bb", "eee"], len) == (3, "ccc")   # the first worst
    # a NaN is returned with its item at once, before or after finite residuals
    r, item = worst_of([(5.0, "x"), (NAN, "y"), (9.0, "z")], lambda pair: pair[0])
    assert math.isnan(r) and item[1] == "y"
    assert math.isnan(worst_of((0, NAN, 1))[0])


ONE = (1.0, 0.0, 0.0, 0.0)
NAN_ARC = ((ONE, (NAN, 0.0, 0.0, 0.0), 0.6, 0.8), ONE)


@pytest.mark.parametrize("site", [
    lambda: hopf._fiber_completeness(None, NAN_ARC),
    lambda: laws.corner_transport_residual(
        laws.spheroid_instance("s3"), (0.0, NAN, 0.0, 0.0), ONE, ONE, ONE),
    lambda: joinmul._worst_pair([((2.0,), (1.0,)), ((NAN,), (1.0,)), ((9.0,), (1.0,))]),
], ids=["fiber-completeness", "corner-transport", "worst-pair"])
def test_combined_residuals_keep_nan(site):
    assert math.isnan(site()[0])


def test_nicely_normed_part_i_keeps_nan():
    # the NaN sits after a zero, where max() kept the zero and passed part (i)
    residual, lhs, rhs = cdalg._eval_nicely_normed(None, ((1.0, 0.0, NAN, 0.0),))
    assert math.isnan(residual)
    assert len(lhs) == 3    # part (i) reports the non-real tail of a + a*


def test_nan_translation_fails_fiber_completeness_with_witness():
    report = execute_check(
        "fiber-completeness", "quaternionic", lambda inputs: hopf._fiber_completeness(None, inputs),
        structured=[NAN_ARC], mode="float")
    assert report.status == STATUS_FAILS
    assert math.isnan(report.max_residual)
    assert report.witness["inputs"][1] == list(ONE)
    assert all(math.isnan(c) for c in report.witness["lhs"])


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


def _raises_on_three(inputs):
    (x,) = inputs
    if x == 3:
        raise ValueError("three")
    return x / 10, (x,), (0,)


@pytest.mark.parametrize("expect_holds", [True, False])
def test_law_that_raises_fails_with_witness(expect_holds):
    report = execute_check("raising-law", "test", _raises_on_three,
                           sampler=lambda i: (i,), samples=8, mode="float", tolerance=1.0,
                           expect_holds=expect_holds)
    assert report.status == STATUS_FAILS
    assert not report.expected     # not even where the law is expected to fail
    assert report.witness == {"inputs": [3], "error": "ValueError: three"}
    assert report.max_residual == 0.2    # the largest residual before the exception
    structured = execute_check("raising-law", "test", _raises_on_three,
                               structured=[(0,), (3,), (5,)], expect_holds=expect_holds)
    assert structured.witness == {"inputs": [3], "error": "ValueError: three"}
    assert structured.max_residual == 0.0 and not structured.expected


@pytest.mark.parametrize("error", [ValueError, UsageError])
def test_skipped_gate_propagates_and_sampler_error_fails(error):
    def gated(inputs):
        raise PreconditionError("gate skipped")

    with pytest.raises(PreconditionError):
        execute_check("gated", "test", gated, structured=[()])
    with pytest.raises(PreconditionError):
        execute_check("law", "test", _raises_on_three, sampler=gated, samples=2)

    def sampler(i):
        if i == 2:
            raise error("bad draw")
        return (i,)

    for expect_holds in (True, False):
        report = execute_check("law", "test", _raises_on_three, sampler=sampler, samples=5,
                               mode="float", tolerance=1.0, expect_holds=expect_holds)
        assert report.status == STATUS_FAILS and not report.expected
        assert report.witness == {"sample": 2, "error": f"{error.__name__}: bad draw"}
        assert report.max_residual == 0.1    # the largest residual before the sampler raised


def test_report_dict_follows_the_field_order():
    keys = ["law", "instance", "status", "samples", "tolerance", "max_residual", "seed",
            "duration_ms", "expected"]
    assert REPORT_FIELDS == tuple(keys + ["witness"])
    holds = execute_check("law", "test", lambda inputs: (0, None, None), structured=[()])
    fails = execute_check("law", "test", lambda inputs: (1, (1,), (0,)), structured=[()])
    assert list(holds.to_dict()) == keys
    assert list(fails.to_dict()) == keys + ["witness"]
    assert fails.to_dict()["witness"] == {"inputs": [], "lhs": [1], "rhs": [0]}


def _report(status, tolerance=None, samples=0, witness=None):
    return LawReport("law", "test", status, samples, tolerance, 0.0, 0, 0.0, True, witness)


@pytest.mark.parametrize("status,tolerance,samples,message", [
    (STATUS_FAILS, None, 0, "failing report without witness"),
    (STATUS_HOLDS_SAMPLED, None, 5, "sampled report without tolerance/sample count"),
    (STATUS_HOLDS_SAMPLED, 1e-9, None, "sampled report without tolerance/sample count"),
])
def test_report_rejects_a_verdict_it_cannot_back(status, tolerance, samples, message):
    with pytest.raises(InvariantViolation, match=message):
        _report(status, tolerance, samples)


def test_report_takes_its_fields_in_order():
    witness = {"inputs": [], "lhs": [1], "rhs": [0]}
    fails = _report(STATUS_FAILS, witness=witness)
    assert fails.to_dict() == dict(zip(REPORT_FIELDS, (
        "law", "test", STATUS_FAILS, 0, None, 0.0, 0, 0.0, True, witness)))
    sampled = _report(STATUS_HOLDS_SAMPLED, 1e-9, 5)
    assert (sampled.tolerance, sampled.samples, sampled.holds) == (1e-9, 5, True)
    assert "witness" not in _report(STATUS_HOLDS_EXACT).to_dict()


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



def _two_word_law(monkeypatch, drawn, fails_at=None, raises_at=None, structured=()):
    """run_laws' arguments for one law of one float `point` of R^3, two words per sample,
    so LANE_WORDS // 2 samples per lane pass.  `checks.law_samples`, patched, hands on
    sample i of the real stream as (i,), appending (i, inputs) to drawn, and the real
    stream's reader raises on sample raises_at (`sampling._reader`, patched to wrap the
    compiled reader).  The law fails on sample fails_at (and on a structured input
    (fails_at, ...))."""
    original = sampling._reader

    def reader(kind, dim, mode):
        need, read = original(kind, dim, mode)

        def raising(words, pos, i, drawn):
            if i == raises_at:
                raise ArithmeticError("no draw")
            return read(words, pos, i, drawn)
        return need, raising

    def law_samples(*args):
        for i, inputs in enumerate(sampling.law_samples(*args)):
            drawn.append((i, inputs))
            yield (i,)

    def evaluate(ctx, inputs):
        return (1 if inputs[0] == fails_at else 0), inputs, inputs

    monkeypatch.setattr(sampling, "_reader", reader)
    monkeypatch.setattr(checks, "law_samples", law_samples)
    return dict(rows=(("law", evaluate, ("point",)),), instance="t", ctx=None, dim=3,
                suite=lambda law: "test/run-laws", structured=lambda law, kinds: structured,
                samples=10000, seed=4, mode="float")


def test_run_laws_draws_no_word_past_a_structured_failure(lane_passes, monkeypatch):
    drawn = []
    (report,) = run_laws(**_two_word_law(monkeypatch, drawn, fails_at=-1,
                                         structured=[(-1, ())]))
    assert report.status == STATUS_FAILS and report.witness["inputs"] == [-1, []]
    assert drawn == lane_passes == []


def test_run_laws_draws_at_most_one_chunk_past_a_failure(lane_passes, monkeypatch):
    drawn = []
    (report,) = run_laws(**_two_word_law(monkeypatch, drawn, fails_at=3000))
    assert report.status == STATUS_FAILS and report.witness["inputs"][0] == 3000
    chunk = sampling.LANE_WORDS // 2
    assert lane_passes == [(chunk, 2), (chunk, 2)]        # samples 0..2 chunks
    assert 3000 < 2 * chunk <= 3000 + chunk


def test_run_laws_fails_a_raising_draw_at_its_index(lane_passes, monkeypatch):
    (report,) = run_laws(**_two_word_law(monkeypatch, [], raises_at=77))
    assert report.status == STATUS_FAILS
    assert report.witness == {"sample": 77, "error": "ArithmeticError: no draw"}
    assert lane_passes == [(sampling.LANE_WORDS // 2, 2)]


def test_run_laws_samples_read_their_own_generators(lane_passes, monkeypatch):
    drawn = []
    run_laws(**_two_word_law(monkeypatch, drawn))
    assert len(lane_passes) == 5
    assert drawn == [(i, (sampling.point_of(CounterRng(4, "test/run-laws", i)._u64s(2), 3,
                                            "float"),)) for i in range(10000)]

def _lifted_pair(data, n):
    """Two exact n-vectors, the second equal to the first or not, each maybe scaled
    to a larger common denominator when lifted."""
    scalar = st.fractions(min_value=-5, max_value=5, max_denominator=9)
    a = data.draw(st.tuples(*(scalar,) * n))
    b = a if data.draw(st.booleans()) else data.draw(st.tuples(*(scalar,) * n))

    def lift_scaled(x):
        k = data.draw(st.integers(1, 4))
        lx = lifted(x)
        return Lifted(tuple(k * c for c in lx.nums), k * lx.den)
    return a, b, lift_scaled(a), lift_scaled(b)


@pytest.mark.parametrize("level", range(4))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lifted_residual_matches_the_coordinate_loop(level, data):
    # equal sides give int 0, unequal ones the loop's Fraction, whichever side is lifted
    a, b, la, lb = _lifted_pair(data, 1 << level)
    want = _typed(max_abs_diff(a, b))
    assert want == _typed(_max_abs_diff_before(a, b))
    for x, y in ((la, lb), (la, b), (a, lb)):
        assert repr(_typed(max_abs_diff(x, y))) == repr(want)


def test_lifted_sides_of_different_lengths_raise():
    a = Lifted((1, 0), 1)
    with pytest.raises(ValueError):
        max_abs_diff(a, a[:1])
    with pytest.raises(ValueError):
        max_abs_diff((Fraction(1),), a)


@pytest.mark.parametrize("run", [
    lambda mode: execute_check("law", "t", lambda inputs: (0, (), ()), structured=[()],
                               mode=mode),
    lambda mode: cdalg.law_suite(2, mode),
    lambda mode: laws.spheroid_check(laws.spheroid_instance("s1"), mode=mode),
    lambda mode: hopf.fiber_check(hopf.hopf_instance("complex"), samples=5, mode=mode),
    lambda mode: cdalg.zero_divisor_search(4, mode=mode),
], ids=["execute_check", "law_suite", "spheroid_check", "fiber_check", "zero_divisor_search"])
@pytest.mark.parametrize("mode", ["Exact", "exakt", "FLOAT", ""])
def test_a_misspelled_mode_is_refused(run, mode):
    # it once ran as float mode
    with pytest.raises(UsageError, match="unknown mode"):
        run(mode)


def _verified(name):
    inst = laws.imaginaroid_instance(name)
    inst.assoc_verified = True
    return inst


#: every public suite that takes a sample count, as samples -> its reports
SAMPLED_SUITES = {
    "law_suite": lambda n: cdalg.law_suite(2, samples=n),
    "spheroid_check": lambda n: laws.spheroid_check(laws.spheroid_instance("s1"), samples=n),
    "imaginaroid_check": lambda n: laws.imaginaroid_check(laws.imaginaroid_instance("empty"),
                                                          samples=n),
    "assoc_check": lambda n: [laws.assoc_check(laws.imaginaroid_instance("s0"), samples=n)],
    "corner_transport_suite": lambda n: [laws.corner_transport_suite(_verified("s0"),
                                                                     samples=n)],
    "hspace_check": lambda n: laws.hspace_check(laws.spheroid_instance("s1"), samples=n),
    "unit_law_check": lambda n: joinmul.unit_law_check(_verified("s0"), samples=n),
    "oracle_equivalence_suite": lambda n: joinmul.oracle_equivalence_suite(_verified("s0"),
                                                                           samples=n),
    "diamond_suite": lambda n: joinmul.diamond_suite(_verified("s0"), grid=4, samples=n),
    "fiber_check": lambda n: hopf.fiber_check(hopf.hopf_instance("complex"), samples=n,
                                              mode="float"),
    "fibration_report": lambda n: hopf.fibration_report(hopf.hopf_instance("real"), samples=n),
}


@pytest.mark.parametrize("samples", [0, -5])
@pytest.mark.parametrize("name", sorted(SAMPLED_SUITES))
def test_every_suite_refuses_a_sample_count_below_one(name, samples):
    # they once reported passes on zero inputs, and "samples: -5"; the suites that
    # clamp their count (diamond, oracle) check it first
    with pytest.raises(UsageError, match=r"^samples must be >= 1$"):
        SAMPLED_SUITES[name](samples)


@pytest.mark.parametrize("name", sorted(SAMPLED_SUITES))
def test_every_suite_runs_on_one_sample(name):
    assert all(r.expected for r in SAMPLED_SUITES[name](1))
