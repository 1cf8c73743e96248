"""Cayley-Dickson arithmetic against independent oracles.

The level-2 multiplication oracle below was expanded by hand from the
doubling formula (two recursion steps) and is written out longhand; the
sign convention it encodes (e1 e2 = -e3, cyclic) is what the doubling
formula literally produces.
"""

import json
import math
import random
import subprocess
import sys
import threading
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import given, settings, strategies as st

from hopfcheck import cdalg, checks, spheremodel
from hopfcheck.cdalg import (_eval_alternativity, _eval_associativity, _eval_commutativity,
                             _eval_norm_multiplicativity, _mul_recursive, _sign_table,
                             _structured_elements, _traced_kernel, basis_coords, conj_coeffs,
                             law_suite, mul_coeffs, mul_ints, norm_coeffs, structured_tuples,
                             zero_divisor_search)
from hopfcheck.checks import (STATUS_FAILS, compare, execute_check, max_abs_diff, run_laws,
                              worst_of)
from hopfcheck.errors import InvariantViolation, UsageError
from hopfcheck.sampling import CounterRng, rand_coeffs, rand_lifted
from hopfcheck.spheremodel import Lifted, lifted, neg_coeffs


def frac(n, d=1):
    return Fraction(n, d)


def element(*coeffs):
    return tuple(Fraction(c) for c in coeffs)


def basis(level, i, sign=1):
    return basis_coords(1 << level, i, Fraction(sign))


def one(level):
    return basis(level, 0)


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def scale(s, a):
    return tuple(s * x for x in a)


def ladder_row(law_body, *inputs):
    """A ladder law body's (residual, lhs, rhs) on these inputs, through its row's wrapper."""
    return cdalg._ladder_law(law_body)(len(inputs[0]), inputs)


def holds(law_body, *inputs):
    """True when a ladder law body finds no residual on these inputs."""
    return ladder_row(law_body, *inputs)[0] == 0


def mul2_oracle(a, b):
    """Independent level-2 product, expanded by hand from the doubling formula."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 - a2 * b3 + a3 * b2,
        a0 * b2 + a2 * b0 - a3 * b1 + a1 * b3,
        a0 * b3 + a3 * b0 - a1 * b2 + a2 * b1,
    )


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=8)


def coeff_lists(level):
    return st.lists(small_fractions, min_size=1 << level, max_size=1 << level)


# --- multiplication ---------------------------------------------------------

def test_level1_imaginary_unit_squares_to_minus_one():
    i = element(0, 1)
    assert mul_coeffs(i, i) == (frac(-1), frac(0))


def test_level0_is_scalar_multiplication():
    x = element(frac(3, 7))
    assert mul_coeffs(one(0), x) == x
    assert mul_coeffs(x, x) == (frac(9, 49),)


def test_level2_basis_convention():
    e1, e2 = basis(2, 1), basis(2, 2)
    assert mul_coeffs(e1, e2) == basis(2, 3, -1)
    assert mul_coeffs(e2, e1) == basis(2, 3)


@settings(max_examples=60, deadline=None)
@given(coeff_lists(2), coeff_lists(2))
def test_level2_matches_longhand_oracle(a, b):
    got = mul_coeffs(tuple(a), tuple(b))
    assert got == mul2_oracle(a, b)


@settings(max_examples=25, deadline=None)
@given(coeff_lists(3), coeff_lists(3), small_fractions, small_fractions)
def test_mul_is_bilinear(a, b, s, t):
    a, b = tuple(a), tuple(b)
    assert mul_coeffs(add(scale(s, a), scale(t, a)), b) == scale(s + t, mul_coeffs(a, b))
    assert mul_coeffs(a, scale(s, b)) == scale(s, mul_coeffs(a, b))


# --- the sign-table kernel against the recursion ----------------------------

small_ints = st.integers(min_value=-6, max_value=6)
small_floats = st.floats(min_value=-5, max_value=5, allow_nan=False)
signed_zeros = st.sampled_from((0.0, -0.0))
SCALARS = {
    "int": small_ints,
    "fraction": small_fractions,
    "mixed": st.one_of(small_ints, small_fractions),
    "float": st.one_of(small_floats, signed_zeros),
    "float-mixed": st.one_of(small_floats, signed_zeros, small_ints, small_fractions),
}


def operand_pairs(scalar):
    def pair(level):
        vec = st.tuples(*[scalar] * (1 << level))
        return st.tuples(vec, vec)
    return st.integers(min_value=0, max_value=5).flatmap(pair)


@pytest.mark.parametrize("kind", sorted(SCALARS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_matches_recursion(kind, data):
    # equal values and the same scalar type in every coordinate: repr tells
    # 0, Fraction(0), 0.0 and -0.0 apart.  The kernel a ladder row picks gives the same.
    a, b = data.draw(operand_pairs(SCALARS[kind]))
    want = repr(_mul_recursive(a, b))
    assert repr(mul_coeffs(a, b)) == want
    assert repr(ladder_row(lambda mul, inputs: mul(*inputs), a, b)) == want
    if kind == "int":   # the sign-table loop the ladder's structured scan runs at levels 4-5
        assert repr(mul_ints(a, b)) == want


def test_kernel_sparse_and_zero_operands_keep_types():
    a = (0, Fraction(0), 0, 0)
    assert mul_coeffs(a, (1, 0, 0, 0)) == (Fraction(0),) * 4
    assert all(type(c) is Fraction for c in mul_coeffs(a, (1, 0, 0, 0)))
    assert all(type(c) is int for c in mul_coeffs((0,) * 4, (0, 2, 0, 0)))
    assert all(type(c) is float for c in mul_coeffs((0,) * 4, (0.0, 0, 0, 0)))


def _basis(level, i):
    c = [0] * (1 << level)
    c[i] = 1
    return tuple(c)


@pytest.mark.parametrize("level", range(6))
def test_basis_products_are_signed_xor(level):
    # agreeing with the recursion also pins its convention e1 e2 = -e3
    n = 1 << level
    for mul in (mul_coeffs, mul_ints):
        for i in range(n):
            for j in range(n):
                got = mul(_basis(level, i), _basis(level, j))
                assert got == _mul_recursive(_basis(level, i), _basis(level, j))
                support = [k for k, c in enumerate(got) if c]
                assert support == [i ^ j] and got[i ^ j] in (1, -1)


def _doubling_rule_sign_table(n):
    """The sign table built from the half-size one by the doubling rule, as the
    library built it before reading it off the recursion: with h = n/2 the four
    blocks are e_i e_j, e_i* e_j, e_j e_i and -e_j e_i*, and e_i* = -e_i but for e_0."""
    if n == 1:
        return ((False,),)
    h = n // 2
    half = _doubling_rule_sign_table(h)
    top = tuple(row + tuple(neg != (i > 0) for neg in row) for i, row in enumerate(half))
    bottom = tuple(tuple(half[j][i] for j in range(h))
                   + tuple(half[j][i] == (i > 0) for j in range(h)) for i in range(h))
    return top + bottom


@pytest.mark.parametrize("level", range(6))
def test_sign_table_equals_the_doubling_rule_table(level):
    assert _sign_table(1 << level) == _doubling_rule_sign_table(1 << level)


def _uniform(rng, lo, hi):
    """A float in [lo, hi) from one generator word."""
    return lo + (hi - lo) * (rng._u64s(1)[0] / 2.0**64)


def _float_operands():
    rng = CounterRng(0, "test/float-kernel-threads", 0)
    return (tuple(_uniform(rng, -5, 5) for _ in range(32)),
            tuple(-0.0 if i % 5 else _uniform(rng, -5, 5) for i in range(32)))


_RAMPS = (tuple(range(1, 33)), tuple(range(32, 0, -1)))


@pytest.mark.parametrize("table,mul,operands", [
    (_sign_table, mul_ints, _RAMPS),
    (_traced_kernel, mul_coeffs, _float_operands()),
    (_traced_kernel, mul_coeffs, _RAMPS),
], ids=["sign-table", "float-kernel", "traced-kernel-ints"])
def test_lazy_tables_are_safe_across_threads(table, mul, operands):
    # threads that call the library may build the same level's table at once
    a, b = operands
    want = repr(_mul_recursive(a, b))
    results = []
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        table.cache_clear()
        threads = [threading.Thread(target=lambda: results.append(repr(mul(a, b))))
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert results == [want] * 8
    assert table.cache_info().currsize == 1     # the table the threads ran on was built


# --- the traced float kernel against the recursion -------------------------

@pytest.mark.parametrize("level", range(6))
def test_float_kernel_signed_zeros_and_operand_mixes(level):
    n = 1 << level
    rng = CounterRng(0, "test/float-kernel", level)
    floats = tuple(_uniform(rng, -5, 5) for _ in range(n))
    zeros = tuple(-0.0 if i % 3 else 0.0 for i in range(n))
    # Fraction(0) included: -Fraction(0) is +0, while -0.0 keeps its sign
    fractions = tuple(Fraction(i - n // 2, 3) for i in range(n))
    ints = tuple(range(-(n // 2), n - n // 2))
    mixed = tuple(column[i % 4] for i, column in enumerate(zip(floats, zeros, fractions, ints)))
    for a in (floats, zeros, fractions, ints, mixed):
        for b in (floats, zeros, mixed):
            assert repr(mul_coeffs(a, b)) == repr(_mul_recursive(a, b))
            assert repr(mul_coeffs(b, a)) == repr(_mul_recursive(b, a))


# --- a float suite's unit: an exact operand converted once gives the mixed bits ---

exact_scalars = st.one_of(
    st.sampled_from((0, Fraction(0))),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 30),
    st.integers(min_value=-10 ** 18, max_value=10 ** 18))
float_scalars = st.one_of(
    signed_zeros, st.sampled_from((math.inf, -math.inf, math.nan)), st.floats())
# an exact zero must stay +0 under the kernel's negations, and only an output
# coordinate whose terms are all zero shows the sign of a zero, so this pair is
# drawn mostly from zeros and units
sparse_exact = st.sampled_from((0, Fraction(0), 0, Fraction(0), 1, Fraction(-1)))
sparse_floats = st.sampled_from((0.0, -0.0, 0.0, -0.0, 1.0, -1.0))


def _as_floats(a: tuple) -> tuple:
    """The reference conversion of an exact operand: exact zeros stay int 0."""
    return tuple([float(x) if x else 0 for x in a])


@pytest.mark.parametrize("exact_first", [True, False], ids=["exact-float", "float-exact"])
@pytest.mark.parametrize("scalars", [(exact_scalars, float_scalars, 0),
                                     (sparse_exact, sparse_floats, 2)], ids=["wide", "sparse"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_exact_operand_meets_all_float_operand_as_floats(scalars, exact_first, data):
    # the kernel on the operand `_as_floats` converted gives what mul_coeffs
    # gives on the unconverted ones, mixed arithmetic
    exact_scalar, float_scalar, min_level = scalars
    n = 1 << data.draw(st.integers(min_value=min_level, max_value=5))
    exact = data.draw(st.tuples(*[exact_scalar] * n))
    floats = data.draw(st.tuples(*[float_scalar] * n))
    a, b = (exact, floats) if exact_first else (floats, exact)
    x, y = (_as_floats(a), b) if exact_first else (a, _as_floats(b))
    assert repr(_traced_kernel(n)(x, y)) == repr(mul_coeffs(a, b))


def test_exact_zero_is_not_converted_to_a_float_zero():
    # the kernel negates a1; -Fraction(0) is +0 but -0.0 is not
    a = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    b = (-0.0, 1.0, -0.0, 1.0)
    want = repr(mul_coeffs(a, b))
    assert repr(_traced_kernel(4)(_as_floats(a), b)) == want
    assert repr(_traced_kernel(4)(tuple(map(float, a)), b)) != want


def test_operands_both_holding_exact_coordinates_stay_unconverted():
    # the exact product 1/10 * 1/10 rounds once; 0.1 * 0.1 would round twice
    a = b = (Fraction(1, 10), 0.0)
    assert repr(mul_coeffs(a, b)) == repr(_traced_kernel(2)(a, b)) == "(0.01, 0.0)"
    assert repr(_traced_kernel(2)(tuple(map(float, a)), tuple(map(float, b)))) != "(0.01, 0.0)"


def test_float_kernel_is_built_on_first_use(child_env):
    # importing the package and answering --version trace no kernel
    code = ("import contextlib, io\n"
            "from hopfcheck import cdalg, cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['--version'])\n"
            "assert cdalg._traced_kernel.cache_info().currsize == 0\n"
            "cdalg.mul_coeffs((1.0, 2.0), (3.0, 4.0))\n"
            "assert cdalg._traced_kernel.cache_info().currsize == 1\n")
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env)


# --- zero-divisor census (de Marrais, "The 42 Assessors", 2000) -------------

def _two_term_sums(level):
    # (e_i +/- e_j) for i < j, lexicographic over indices, then signs
    n = 1 << level
    out = []
    for i, j in combinations(range(n), 2):
        for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            c = [0] * n
            c[i], c[j] = si, sj
            out.append(tuple(c))
    return out


def _sparse(c):
    return {k: x for k, x in enumerate(c) if x}


FIRST_WITNESS = ({1: 1, 10: 1}, {4: 1, 15: -1})      # (e1 + e10)(e4 - e15)


@pytest.mark.parametrize("level,pairs,assessors",
                         [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 1344, 42)])
def test_two_term_zero_divisor_census(level, pairs, assessors):
    # the sign-table enumeration against a scan of every product through the kernel
    sums = _two_term_sums(level)
    hits = [(a, b) for a in sums for b in sums if not any(cdalg.mul_ints(a, b))]
    assert list(cdalg.zero_pairs(level)) == hits
    assert len(hits) == pairs
    assert len({tuple(k for k, c in enumerate(a) if c) for a, _ in hits}) == assessors
    if hits:
        a, b = hits[0]
        assert (_sparse(a), _sparse(b)) == FIRST_WITNESS


def test_level5_zero_pairs_vanish_under_the_recursion():
    # 20,160 ordered pairs at level 5 (Moreno, "The zero divisors of the
    # Cayley-Dickson algebras over the real numbers", 1998).  The recursion
    # runs traced into straight-line code (`_traced_kernel`, the same
    # operations in the same order, checked against `_mul_recursive` above):
    # the literal recursion takes about 0.5 ms a product at level 5.
    hits = list(cdalg.zero_pairs(5))
    assert len(hits) == 20160
    recursion = _traced_kernel(32)
    assert all(not any(recursion(a, b)) for a, b in hits)
    assert all(not any(_mul_recursive(a, b)) for a, b in hits[::97])
    a, b = hits[0]
    assert (_sparse(a), _sparse(b)) == FIRST_WITNESS


# --- conjugation ------------------------------------------------------------

def test_conj_examples():
    assert conj_coeffs(one(0)) == (frac(1),)
    assert conj_coeffs(element(0, 1)) == (frac(0), frac(-1))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=4).flatmap(
    lambda lvl: st.tuples(coeff_lists(lvl), coeff_lists(lvl))))
def test_conj_is_involutive_antihomomorphism(pair):
    a, b = map(tuple, pair)
    assert conj_coeffs(conj_coeffs(a)) == a
    assert conj_coeffs(mul_coeffs(a, b)) == mul_coeffs(conj_coeffs(b), conj_coeffs(a))


# --- norms ------------------------------------------------------------------

def test_norm_examples():
    assert norm_coeffs(one(0)) == 1
    assert norm_coeffs(basis(2, 1)) == 1
    assert norm_coeffs(element(frac(3, 5), frac(4, 5))) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=4).flatmap(coeff_lists))
def test_norm_equals_coefficient_square_sum(coeffs):
    # a a* = a* a = |a|^2 e0 at every level through 4, zero divisors included
    a = tuple(coeffs)
    norm = sum(c * c for c in coeffs)
    assert norm_coeffs(a) == norm
    want = scale(norm, one(len(a).bit_length() - 1))
    assert mul_coeffs(a, conj_coeffs(a)) == mul_coeffs(conj_coeffs(a), a) == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(small_fractions, small_ints), min_size=1, max_size=32))
def test_lifted_norm_matches_fraction_sum(coeffs):
    # the lifted path must give the direct sum's value and scalar type
    a = tuple(coeffs)
    want = sum(c * c for c in a)
    got = norm_coeffs(a)
    assert got == want
    assert type(got) is type(want)


def test_norm_of_empty_tuple_is_int_zero():
    assert norm_coeffs(()) == 0 and type(norm_coeffs(())) is int


def test_float_norm_accumulates_left_to_right():
    # a compensated sum (Python 3.12+ sum()) would keep the small squares
    a = (1.0,) + (1e-8,) * 8
    total = 0
    for c in a:
        total += c * c
    assert norm_coeffs(a) == total == 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=4).flatmap(coeff_lists))
def test_sum_with_conjugate_is_real(coeffs):
    a = tuple(coeffs)
    assert not any(add(a, conj_coeffs(a))[1:])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=3).flatmap(
    lambda lvl: st.tuples(coeff_lists(lvl), coeff_lists(lvl))))
def test_norm_multiplicative_through_level3(pair):
    a, b = map(tuple, pair)
    assert norm_coeffs(mul_coeffs(a, b)) == norm_coeffs(a) * norm_coeffs(b)
    assert holds(_eval_norm_multiplicativity, a, b)


# --- associativity and commutativity through the ladder law bodies -----------

def test_associator_with_unit_vanishes():
    x = element(1, 2, 3, 4, 5, 6, 7, 8)
    y = element(-1, 0, 2, 0, 3, 0, 4, 0)
    assert holds(_eval_associativity, one(3), x, y)


@settings(max_examples=30, deadline=None)
@given(coeff_lists(1), coeff_lists(1))
def test_level1_commutes(a, b):
    assert holds(_eval_commutativity, tuple(a), tuple(b))


def test_level3_associator_witness_from_exhaustive_search():
    # independent oracle: scan every basis triple and record the first failure
    first = None
    for i in range(8):
        for j in range(8):
            for k in range(8):
                _, lhs, rhs = ladder_row(_eval_associativity, basis(3, i), basis(3, j), basis(3, k))
                if lhs != rhs:
                    first = (i, j, k, tuple(x - y for x, y in zip(lhs, rhs)))
                    break
            if first:
                break
        if first:
            break
    assert first is not None
    i, j, k, coeffs = first
    assert (i, j, k) == (1, 2, 4)
    assert coeffs == (0, 0, 0, 0, 0, 0, 0, 2)


@settings(max_examples=25, deadline=None)
@given(coeff_lists(2), coeff_lists(2), coeff_lists(2))
def test_level2_associates(a, b, c):
    assert holds(_eval_associativity, tuple(a), tuple(b), tuple(c))


@settings(max_examples=20, deadline=None)
@given(coeff_lists(3), coeff_lists(3))
def test_level3_alternative(a, b):
    # the law body checks (x x) y = x (x y), then (x y) y = x (y y)
    assert holds(_eval_alternativity, tuple(a), tuple(b))


def test_conjugation_properties_bulk():
    # 1000 random rational elements (and pairs) per level
    for level in range(5):
        n = 1 << level
        assert conj_coeffs(one(level)) == one(level)
        for i in range(1000):
            rng = CounterRng(77, f"test/conj-bulk/{level}", i)
            a = rand_coeffs(rng, n, "exact")
            assert conj_coeffs(conj_coeffs(a)) == a
        for i in range(1000 if level <= 2 else 300):
            rng = CounterRng(78, f"test/conj-antihom/{level}", i)
            a = rand_coeffs(rng, n, "exact")
            b = rand_coeffs(rng, n, "exact")
            assert conj_coeffs(mul_coeffs(a, b)) == mul_coeffs(conj_coeffs(b), conj_coeffs(a))


# --- law suite --------------------------------------------------------------

def _statuses(level, samples=60):
    return {r.law: r for r in law_suite(level, samples=samples, seed=7)}


def test_ladder_level0():
    reports = _statuses(0)
    assert all(r.holds for r in reports.values())
    assert all(r.expected for r in reports.values())


def test_ladder_level1_not_real():
    reports = _statuses(1)
    assert not reports["realness"].holds
    assert reports["commutativity"].holds
    assert reports["associativity"].holds
    assert all(r.expected for r in reports.values())


def test_ladder_level3():
    reports = _statuses(3)
    assert not reports["associativity"].holds
    assert reports["associativity"].witness is not None
    assert reports["alternativity"].holds
    assert reports["nicely-normed"].holds
    assert all(r.expected for r in reports.values())


def test_ladder_level4():
    reports = _statuses(4)
    assert not reports["alternativity"].holds
    assert reports["alternativity"].witness is not None
    assert not reports["norm-multiplicativity"].holds
    assert reports["nicely-normed"].holds
    assert all(r.expected for r in reports.values())


def test_law_suite_deterministic():
    a = law_suite(2, samples=40, seed=3)
    b = law_suite(2, samples=40, seed=3)
    assert [(r.law, r.status, r.max_residual) for r in a] == \
        [(r.law, r.status, r.max_residual) for r in b]


def test_law_suite_rejects_excessive_level():
    with pytest.raises(UsageError):
        law_suite(9, samples=1)


# --- the structured witness stream against the list-stack generator it replaced --

def _stacked_structured_tuples(level, arity, cap):
    """structured_tuples as list stacks trimmed to the cap, over recursive slot patterns."""
    singles, pairs = _structured_elements(level)
    pools = (singles, pairs)
    emitted = 0
    for grade in range(arity, 2 * arity + 1):
        for pattern in _compositions(arity, grade):
            stack = [()]
            for slot in pattern:
                pool = pools[slot - 1]
                stack = [t + (e,) for t in stack for e in pool]
                if len(stack) > cap - emitted:
                    stack = stack[:cap - emitted + 1]
            for tup in stack:
                yield tup
                emitted += 1
                if emitted >= cap:
                    return


def _compositions(arity, grade):
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        for c in (2, 1):
            if c <= remaining:
                rec(prefix + [c], remaining - c, slots - 1)

    rec([], grade, arity)
    return out


@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("level", range(6))
def test_structured_stream_matches_list_stacks(level, arity):
    for cap in (1, 7, 6000, 10 ** 5):
        got = list(structured_tuples(level, arity, cap))
        assert got == list(_stacked_structured_tuples(level, arity, cap))
        assert len(got) <= cap


# --- negative controls: a broken product fails nicely-normed parts (ii) and (iii) --

def _first_ignored(original):
    # a b -> 1 b: a a* = a* and a* a = a differ for a non-real a, breaking (ii)
    def mul(a, b):
        one = (1,) + (0,) * (len(a) - 1)
        return original(Lifted(one, 1) if type(a) is Lifted else one, b)
    return mul


def _negated(original):
    # -(a b): a a* = a* a still holds, but a a* is no longer positive, breaking (iii)
    return lambda a, b: neg_coeffs(original(a, b))


@pytest.mark.parametrize("level", [2, 4])
@pytest.mark.parametrize("perturb, lhs, rhs", [
    (_first_ignored, [1, -1], [1, 1]),
    (_negated, -2, "positive"),
], ids=["part-ii", "part-iii"])
def test_broken_product_fails_nicely_normed_with_witness(perturb, lhs, rhs, level, monkeypatch):
    # int inputs take the traced kernel through dimension 8 and `mul_ints` above,
    # for every product of the evaluation
    if level == 2:
        traced = cdalg._traced_kernel
        monkeypatch.setattr(cdalg, "_traced_kernel", lambda n: perturb(traced(n)))
    else:
        monkeypatch.setattr(cdalg, "mul_ints", perturb(cdalg.mul_ints))
    n = 1 << level
    a = (1, 1) + (0,) * (n - 2)

    def padded(side):     # a coordinate list runs on in zeros
        return side + [0] * (n - 2) if type(side) is list else side

    report = execute_check("nicely-normed", f"level-{level}",
                           lambda inputs: ladder_row(cdalg._eval_nicely_normed, *inputs),
                           structured=[(a,)])
    assert report.status == STATUS_FAILS
    assert report.witness == {"inputs": [list(a)], "lhs": padded(lhs), "rhs": padded(rhs)}


# --- zero divisors ----------------------------------------------------------

def test_no_zero_divisors_through_level3():
    for level in (0, 1, 2, 3):
        assert zero_divisor_search(level) is None


def test_level4_zero_divisor_witness():
    found = zero_divisor_search(4)
    assert found is not None
    a, b = found
    assert any(a) and any(b)
    assert not any(mul_coeffs(a, b))
    # first hit in lexicographic order: (e1 + e10)(e4 - e15)
    want_a = [0] * 16
    want_a[1] = want_a[10] = 1
    want_b = [0] * 16
    want_b[4], want_b[15] = 1, -1
    assert list(a) == want_a
    assert list(b) == want_b


def test_every_single_sign_table_flip_fails_the_confirmation(monkeypatch):
    # the witness comes off the table and its confirming product off the traced
    # kernel, so a table with one wrong entry cannot confirm what it reads
    original = _sign_table(16)
    for i in range(16):
        for j in range(16):
            table = [list(row) for row in original]
            table[i][j] = not table[i][j]
            flipped = tuple(map(tuple, table))
            monkeypatch.setattr(cdalg, "_sign_table", lambda n: flipped)
            with pytest.raises(InvariantViolation, match="the sign table zeroes"):
                zero_divisor_search(4)


def test_level5_zero_divisor_witness_is_the_level4_one():
    a, b = zero_divisor_search(5)
    assert (_sparse(a), _sparse(b)) == FIRST_WITNESS
    assert all(type(c) is Fraction for c in a + b)


def test_level4_zero_divisor_float_mode_normalized():
    a, b = zero_divisor_search(4, mode="float")
    assert abs(norm_coeffs(a) - 1) < 1e-12
    assert abs(norm_coeffs(b) - 1) < 1e-12


# --- one kernel choice per ladder evaluation against the per-product bodies --
# These are the law bodies as they were when every product called
# `mul_coeffs`, which picks its path from the types of each operand pair.

def _per_product_commutativity(inputs):
    a, b = inputs
    return compare(mul_coeffs(a, b), mul_coeffs(b, a))


def _per_product_associativity(inputs):
    a, b, c = inputs
    return compare(mul_coeffs(mul_coeffs(a, b), c), mul_coeffs(a, mul_coeffs(b, c)))


def _per_product_alternativity(inputs):
    x, y = inputs
    xy = mul_coeffs(x, y)
    lhs1 = mul_coeffs(mul_coeffs(x, x), y)
    rhs1 = mul_coeffs(x, xy)
    r1 = max_abs_diff(lhs1, rhs1)
    if not r1 <= 0:
        return r1, lhs1, rhs1
    return compare(mul_coeffs(xy, y), mul_coeffs(x, mul_coeffs(y, y)))


def _per_product_nicely_normed(inputs):
    (a,) = inputs
    tail = tuple(c + d for c, d in zip(a[1:], cdalg.conj_coeffs(a)[1:]))
    worst, _ = worst_of(tail, abs)
    if not worst <= 0:
        return worst, tail, tuple(0 * c for c in tail)
    lhs = mul_coeffs(a, cdalg.conj_coeffs(a))
    rhs = mul_coeffs(cdalg.conj_coeffs(a), a)
    r = max_abs_diff(lhs, rhs)
    if not r <= 0:
        return r, lhs, rhs
    if any(a) and lhs[0] <= 0:
        return 1, lhs[0], "positive"
    return 0, lhs, rhs


def _per_product_norm_multiplicativity(inputs):
    a, b = inputs
    lhs = norm_coeffs(mul_coeffs(a, b))
    rhs = norm_coeffs(a) * norm_coeffs(b)
    d = lhs - rhs
    if d < 0:
        d = -d
    return d, (lhs,), (rhs,)


PER_PRODUCT_BODIES = {
    "realness": lambda inputs: cdalg._eval_realness(None, inputs),
    "commutativity": _per_product_commutativity,
    "associativity": _per_product_associativity,
    "alternativity": _per_product_alternativity,
    "nicely-normed": _per_product_nicely_normed,
    "norm-multiplicativity": _per_product_norm_multiplicativity,
}


def _scalar(rng, kind):
    if kind == "dense-int":
        return rng.randint(-6, 6)
    if kind == "fraction":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    if kind == "int-fraction":
        return _scalar(rng, rng.choice(("dense-int", "fraction")))
    if kind == "float":
        return rng.choice((rng.uniform(-5, 5), rng.uniform(-5, 5), 0.0, -0.0))
    return _scalar(rng, rng.choice(("dense-int", "fraction", "float")))   # exact-float


def _ladder_inputs(level, arity, kind):
    """Ten input tuples of one scalar kind for one ladder law at one level."""
    n = 1 << level
    if kind == "sparse-int":
        return list(islice(structured_tuples(level, arity, 4000), 0, 4000, 400))
    rng = random.Random(f"test/ladder-kernel/{level}/{arity}/{kind}")
    out = []
    for t in range(10):
        operand_kinds = [kind] * arity
        if kind == "exact-float" and t % 2:
            # whole operands of one kind: an exact operand meets an all-float one
            operand_kinds = [rng.choice(("dense-int", "fraction", "float")) for _ in range(arity)]
        out.append(tuple(tuple(_scalar(rng, k) for _ in range(n)) for k in operand_kinds))
    return out


@pytest.mark.parametrize("level", range(6))
@pytest.mark.parametrize("kind", ["sparse-int", "dense-int", "fraction", "int-fraction",
                                  "float", "exact-float"])
def test_ladder_bodies_match_per_product_bodies(level, kind):
    for law, evaluate, kinds in cdalg.LADDER_LAWS:
        for inputs in _ladder_inputs(level, len(kinds), kind):
            got = evaluate(1 << level, inputs)
            assert repr(got) == repr(PER_PRODUCT_BODIES[law](inputs)), (law, inputs)


# --- Lifted operands against the Fraction path they replace ---------------------

def _exact_elements(level, count):
    """count elements of one level with Fraction and int coordinates."""
    scalar = st.one_of(st.fractions(min_value=-10, max_value=10, max_denominator=12),
                       st.integers(-3, 3))
    n = 1 << level
    return st.tuples(*(st.tuples(*(scalar,) * n),) * count)


@pytest.mark.parametrize("level", range(4))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lifted_kernel_matches_the_fraction_path(level, data):
    # the product, conjugate and norm of Lifted operands are the values of the
    # tuple path and of the recursion; a Lifted meeting a tuple lifts the tuple
    a, b = data.draw(_exact_elements(level, 2))
    la, lb = lifted(a), lifted(b)
    product = mul_coeffs(la, lb)
    assert type(product) is Lifted and product.den == la.den * lb.den
    assert tuple(product) == mul_coeffs(a, b) == _mul_recursive(a, b)
    assert tuple(mul_coeffs(la, b)) == tuple(mul_coeffs(a, lb)) == mul_coeffs(a, b)
    assert all(type(c) is Fraction for c in tuple(mul_coeffs(tuple(la), tuple(lb))))
    conj = conj_coeffs(la)
    assert type(conj) is Lifted and tuple(conj) == conj_coeffs(a)
    assert repr(norm_coeffs(la)) == repr(norm_coeffs(tuple(la))) == repr(Fraction(sum(c * c for c in a)))


# --- the traced kernel on ints and numerators, lifted ladder samples -----------

def _dense_ints(rng, n, bits):
    return tuple(rng.choice((1, -1)) * rng.getrandbits(bits) for _ in range(n))


@pytest.mark.parametrize("level", range(6))
def test_traced_kernel_on_ints_and_numerators_matches_the_sign_table(level):
    # chained join products carry numerators and denominators of thousands of bits
    n = 1 << level
    rng = random.Random(f"test/traced-ints/{level}")
    for bits in (1, 3, 64, 1000, 10000):
        a, b = _dense_ints(rng, n, bits), _dense_ints(rng, n, bits)
        want = mul_ints(a, b)
        got = mul_coeffs(a, b)
        assert got == _mul_recursive(a, b) == want and all(type(c) is int for c in got)
        da, db = rng.getrandbits(bits) + 1, rng.getrandbits(bits) + 1
        product = mul_coeffs(Lifted(a, da), Lifted(b, db))
        assert type(product) is Lifted and product.den == da * db
        assert type(product.nums) is tuple and product.nums == want


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("level", range(6))
def test_lifted_ladder_samples_keep_the_fraction_draws_reports(level, seed, monkeypatch):
    # law_suite lifts each exact sample once; the reports, durations aside, are those
    # of the Fraction draw it replaced.  A short structured scan leaves more failures,
    # with their witnesses, to the sampled phase.
    monkeypatch.setattr(cdalg, "STRUCTURED_CAP", 300)
    with monkeypatch.context() as m:
        # the runner draws each element as the Fraction tuple of `rand_coeffs`
        def fraction_samples(seed, suite, samples, kinds, dim, mode, tolerance):
            for i in range(samples):
                rng = CounterRng(seed, suite, i)
                yield tuple(rand_coeffs(rng, dim, "exact") for _ in kinds)

        m.setattr(checks, "law_samples", fraction_samples)
        before = run_laws(
            cdalg.LADDER_LAWS, f"level-{level}", 1 << level, dim=1 << level,
            structured=lambda kinds: structured_tuples(level, len(kinds), 300),
            suite=lambda law: f"cdalg/{law}/level-{level}/exact",
            expect=lambda law: cdalg.LADDER[law](level), samples=40, seed=seed)
    after = law_suite(level, "exact", samples=40, seed=seed)

    def doc(reports):
        return json.dumps([{**r.to_dict(), "duration_ms": 0} for r in reports])

    assert doc(after) == doc(before)
    sampled = [r for r in after if r.witness and "/" in str(r.witness["inputs"])]
    assert level < 3 or sampled


def _fraction_norm_multiplicativity(inputs):
    """`cdalg._eval_norm_multiplicativity` as it was: both norms as Fractions."""
    a, b = inputs
    lhs = norm_coeffs(mul_coeffs(a, b))
    rhs = norm_coeffs(a) * norm_coeffs(b)
    d = lhs - rhs
    if d < 0:
        d = -d
    return d, (lhs,), (rhs,)


@pytest.mark.parametrize("level", range(6))
def test_norm_multiplicativity_on_numerators_matches_the_fraction_body(level):
    # a holding pair gives residual 0 and builds no Fraction; a failing one gives
    # the Fraction body's residual and sides, bit for bit
    n = 1 << level
    failing = 0
    for i in range(40):
        rng = CounterRng(3, f"test/norm-mult/{level}", i)
        inputs = (rand_lifted(rng, n), rand_lifted(rng, n))
        got = ladder_row(_eval_norm_multiplicativity, *inputs)
        want = _fraction_norm_multiplicativity(inputs)
        if want[0]:
            failing += 1
            assert repr(got) == repr(want)
        else:
            assert got == (0, None, None)
    assert failing == (0 if level <= 3 else 40)


def test_exact_ladder_laws_stay_on_integers(monkeypatch):
    # through level 3 the structured scan and the lifted samples build no Fraction:
    # every law holds or fails (as expected) on an int witness
    def doc(reports):
        return json.dumps([{**r.to_dict(), "duration_ms": 0} for r in reports])

    want = {level: doc(law_suite(level, "exact", samples=30)) for level in range(4)}

    def built(*args, **kwargs):
        raise AssertionError("an exact ladder law built a Fraction")

    monkeypatch.setattr(Fraction, "__new__", built)
    if hasattr(Fraction, "_from_coprime_ints"):     # Python 3.12+ arithmetic skips __new__
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(built))
    for level in range(4):
        assert doc(law_suite(level, "exact", samples=30)) == want[level]


def test_passing_ladder_evaluations_build_no_lifted_product(monkeypatch):
    # through level 3 no lifted sample fails, and `mul_coeffs`, which builds the
    # Lifted products of a failing sample's witness, is never called
    calls = []
    original = cdalg.mul_coeffs

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(cdalg, "mul_coeffs", counted)
    for level in range(4):
        law_suite(level, "exact", samples=200, seed=1)
        assert calls == [], level


LADDER_BODIES = {
    "realness": cdalg._eval_realness,
    "commutativity": _eval_commutativity,
    "associativity": _eval_associativity,
    "alternativity": _eval_alternativity,
    "nicely-normed": cdalg._eval_nicely_normed,
    "norm-multiplicativity": _eval_norm_multiplicativity,
}


@pytest.mark.parametrize("level", range(6))
def test_ladder_rows_judge_lifted_samples_as_their_values(level):
    # a row judges a lifted sample on its numerators; that is the body's verdict on the
    # sample's values through `mul_coeffs` because every ladder law is homogeneous in
    # each input.  A failure gives the body's residual and sides, a pass a zero residual;
    # a row whose numerators and values disagree fails here
    assert [law for law, _, _ in cdalg.LADDER_LAWS] == list(LADDER_BODIES)
    n, failing = 1 << level, 0
    for law, evaluate, kinds in cdalg.LADDER_LAWS:
        draws = (tuple(rand_lifted(CounterRng(6, f"test/ladder-row/{level}/{law}", i), n)
                       for _ in kinds) for i in range(200))
        # samples whose numerators are not their values
        samples = list(islice((x for x in draws if all(y.den > 1 for y in x)), 20))
        assert len(samples) == 20
        for i, inputs in enumerate(samples):
            want = LADDER_BODIES[law](mul_coeffs, inputs)
            got = evaluate(n, inputs)
            if want[0]:
                failing += 1
                assert _spelled(got) == _spelled(want), (law, i)
            else:
                assert got == (0, None, None), (law, i)
    assert (failing > 0) == (level > 0)


# --- nicely-normed on numerators, against the Fraction body it replaced -------

def _fraction_nicely_normed(mul, inputs):
    """`cdalg._eval_nicely_normed` as it was: part (i) and the positivity test on Fractions."""
    (a,) = inputs
    tail = tuple(c + d for c, d in zip(a[1:], cdalg.conj_coeffs(a)[1:]))
    worst, _ = worst_of(tail, abs)
    if not worst <= 0:
        return worst, tail, tuple(0 * c for c in tail)
    lhs = mul(a, cdalg.conj_coeffs(a))
    rhs = mul(cdalg.conj_coeffs(a), a)
    r = max_abs_diff(lhs, rhs)
    if not r <= 0:
        return r, lhs, rhs
    if any(a) and lhs[0] <= 0:
        return 1, lhs[0], "positive"
    return 0, lhs, rhs


def _spelled(result):
    # a Lifted side by its integers, everything else by repr (types and signed zeros kept)
    return tuple((x.nums, x.den) if type(x) is Lifted else repr(x) for x in result)


@pytest.mark.parametrize("break_with", [None, "conj", "first-ignored", "negated"])
@pytest.mark.parametrize("level", range(6))
def test_nicely_normed_on_numerators_matches_the_fraction_body(level, break_with, monkeypatch):
    # reports on Lifted, Fraction, int and float inputs are those of the Fraction body,
    # bit for bit, and a Lifted input that passes builds no Fraction.  The Fraction body
    # takes a Lifted sample's values through `mul_coeffs`, a tuple through the traced
    # kernel (on ints, the values of `mul_ints`); the broken product is the traced kernel.
    n = 1 << level
    if break_with == "conj":    # a* = a: part (i) fails for every non-real a
        monkeypatch.setattr(cdalg, "conj_coeffs", lambda a: a)
    elif break_with is not None:
        perturb = _negated if break_with == "negated" else _first_ignored
        traced = cdalg._traced_kernel
        monkeypatch.setattr(cdalg, "_traced_kernel", lambda n: perturb(traced(n)))
    built, failures = [], 0

    class CountedFraction(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return Fraction(*args)

    for i in range(30):
        rng = CounterRng(4, f"test/nicely-normed/{level}", i)
        exact = rand_coeffs(rng, n, "exact")
        inputs = [(lifted(exact),), (exact,), (lifted(basis(level, i % n, 1 - 2 * (i % 2))),)]
        if break_with is None:
            inputs += [(rand_coeffs(rng, n, "float"),), (tuple(c.numerator for c in exact),)]
        for x in inputs:
            with monkeypatch.context() as m:
                m.setattr(spheremodel, "Fraction", CountedFraction)
                mul = cdalg.mul_coeffs if type(x[0]) is Lifted else cdalg._traced_kernel(n)
                want = _spelled(_fraction_nicely_normed(mul, x))
                built_before = len(built)
                built.clear()
                got = ladder_row(cdalg._eval_nicely_normed, *x)
            failures += got[0] != 0
            if type(x[0]) is Lifted and want[0] == "0":     # a passing sample reports no sides
                assert got == (0, None, None)
                assert built_before and not built
            else:
                assert _spelled(got) == want
    # conjugation is the identity at level 0, so a* = a breaks nothing there
    assert bool(failures) == (break_with is not None and (level, break_with) != (0, "conj"))
