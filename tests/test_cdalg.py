"""Cayley-Dickson arithmetic against independent oracles.

The level-2 multiplication oracle below was expanded by hand from the
doubling formula (two recursion steps) and is written out longhand; the
sign convention it encodes (e1 e2 = -e3, cyclic) is what the doubling
formula literally produces.
"""

import sys
import threading
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hopfcheck.cdalg import (CDElement, _mul_recursive, _sign_table, associator,
                             cd_conj, cd_inverse, cd_mul, cd_norm, commutator,
                             law_suite, mul_coeffs, norm_coeffs, zero_divisor_search)
from hopfcheck.errors import NotInvertibleError, UsageError
from hopfcheck.sampling import CounterRng, rand_coeffs


def frac(n, d=1):
    return Fraction(n, d)


def element(level, *coeffs):
    return CDElement(level, tuple(Fraction(c) for c in coeffs))


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
    i = element(1, 0, 1)
    assert (i * i).coeffs == (frac(-1), frac(0))


def test_level0_is_scalar_multiplication():
    x = element(0, frac(3, 7))
    one = CDElement.one(0)
    assert (one * x).coeffs == x.coeffs
    assert (x * x).coeffs == (frac(9, 49),)


def test_level2_basis_convention():
    e1 = CDElement.basis(2, 1)
    e2 = CDElement.basis(2, 2)
    e3 = CDElement.basis(2, 3)
    assert (e1 * e2).coeffs == (-e3).coeffs
    assert (e2 * e1).coeffs == e3.coeffs


@settings(max_examples=60, deadline=None)
@given(coeff_lists(2), coeff_lists(2))
def test_level2_matches_longhand_oracle(a, b):
    got = mul_coeffs(tuple(a), tuple(b))
    assert got == mul2_oracle(a, b)


def test_level_mismatch_is_usage_error():
    with pytest.raises(UsageError):
        cd_mul(CDElement.one(1), CDElement.one(2))


@settings(max_examples=25, deadline=None)
@given(coeff_lists(3), coeff_lists(3), small_fractions, small_fractions)
def test_mul_is_bilinear(a, b, s, t):
    a = CDElement.from_coeffs(a)
    b = CDElement.from_coeffs(b)
    lhs = (a.scale(s) + a.scale(t)) * b
    rhs = (a * b).scale(s + t)
    assert lhs.coeffs == rhs.coeffs
    assert (a * (b.scale(s))).coeffs == (a * b).scale(s).coeffs


# --- the sign-table kernel against the recursion ----------------------------

small_ints = st.integers(min_value=-6, max_value=6)
small_floats = st.floats(min_value=-5, max_value=5, allow_nan=False)
SCALARS = {
    "int": small_ints,
    "fraction": small_fractions,
    "mixed": st.one_of(small_ints, small_fractions),
    "float": small_floats,
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
    # equal values and the same scalar type in every coordinate:
    # 0, Fraction(0) and 0.0 are told apart
    a, b = data.draw(operand_pairs(SCALARS[kind]))
    got, want = mul_coeffs(a, b), _mul_recursive(a, b)
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


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
    for i in range(n):
        for j in range(n):
            got = mul_coeffs(_basis(level, i), _basis(level, j))
            assert got == _mul_recursive(_basis(level, i), _basis(level, j))
            support = [k for k, c in enumerate(got) if c]
            assert support == [i ^ j] and got[i ^ j] in (1, -1)


def test_lazy_tables_are_safe_across_threads():
    # threads that call the library may build the same level's table at once
    a = tuple(range(1, 33))
    b = tuple(range(32, 0, -1))
    want = _mul_recursive(a, b)
    results = []
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _sign_table.cache_clear()
        threads = [threading.Thread(target=lambda: results.append(mul_coeffs(a, b)))
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert results == [want] * 8


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


@pytest.mark.parametrize("level,pairs,assessors",
                         [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 1344, 42)])
def test_two_term_zero_divisor_census(level, pairs, assessors):
    sums = _two_term_sums(level)
    hits = [(a, b) for a in sums for b in sums if not any(mul_coeffs(a, b))]
    assert len(hits) == pairs
    assert len({tuple(k for k, c in enumerate(a) if c) for a, _ in hits}) == assessors
    if hits:
        # first hit in scan order: (e1 + e10)(e4 - e15)
        a, b = hits[0]
        assert {k: c for k, c in enumerate(a) if c} == {1: 1, 10: 1}
        assert {k: c for k, c in enumerate(b) if c} == {4: 1, 15: -1}


# --- conjugation ------------------------------------------------------------

def test_conj_examples():
    assert cd_conj(CDElement.one(0)).coeffs == (frac(1),)
    assert cd_conj(element(1, 0, 1)).coeffs == (frac(0), frac(-1))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=4).flatmap(
    lambda lvl: st.tuples(coeff_lists(lvl), coeff_lists(lvl))))
def test_conj_is_involutive_antihomomorphism(pair):
    a, b = (CDElement.from_coeffs(c) for c in pair)
    assert cd_conj(cd_conj(a)).coeffs == a.coeffs
    assert cd_conj(a * b).coeffs == (cd_conj(b) * cd_conj(a)).coeffs


# --- norms ------------------------------------------------------------------

def test_norm_examples():
    assert cd_norm(CDElement.one(0)) == 1
    assert cd_norm(CDElement.basis(2, 1)) == 1
    assert cd_norm(element(1, frac(3, 5), frac(4, 5))) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=4).flatmap(coeff_lists))
def test_norm_equals_coefficient_square_sum(coeffs):
    a = CDElement.from_coeffs(coeffs)
    assert cd_norm(a) == sum(c * c for c in coeffs)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=4).flatmap(coeff_lists))
def test_sum_with_conjugate_is_real(coeffs):
    a = CDElement.from_coeffs(coeffs)
    s = a + cd_conj(a)
    assert not any(s.coeffs[1:])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=3).flatmap(
    lambda lvl: st.tuples(coeff_lists(lvl), coeff_lists(lvl))))
def test_norm_multiplicative_through_level3(pair):
    a, b = (CDElement.from_coeffs(c) for c in pair)
    assert cd_norm(a * b) == cd_norm(a) * cd_norm(b)


# --- inverses ---------------------------------------------------------------

def test_inverse_examples():
    assert cd_inverse(CDElement.one(0)).coeffs == (frac(1),)
    e1 = CDElement.basis(2, 1)
    assert cd_inverse(e1).coeffs == (-e1).coeffs
    with pytest.raises(NotInvertibleError):
        cd_inverse(CDElement.zero(3))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=3).flatmap(coeff_lists))
def test_inverse_is_two_sided_through_level3(coeffs):
    a = CDElement.from_coeffs(coeffs)
    if a.is_zero():
        return
    inv = cd_inverse(a)
    assert (a * inv).coeffs == CDElement.one(a.level).coeffs
    assert (inv * a).coeffs == CDElement.one(a.level).coeffs


def test_inverse_on_level4_zero_divisor_is_defined():
    a, b = zero_divisor_search(4)
    assert cd_norm(a) != 0
    inv = cd_inverse(a)
    # the defining formula a* / |a| still inverts a itself; what breaks at
    # level 4 is multiplicativity of the norm, not this identity
    assert (a * inv).coeffs == CDElement.one(4).coeffs


# --- associator / commutator ------------------------------------------------

def test_associator_with_unit_vanishes():
    one = CDElement.one(3)
    x = element(3, 1, 2, 3, 4, 5, 6, 7, 8)
    y = element(3, -1, 0, 2, 0, 3, 0, 4, 0)
    assert associator(one, x, y).is_zero()


@settings(max_examples=30, deadline=None)
@given(coeff_lists(1), coeff_lists(1))
def test_level1_commutes(a, b):
    x, y = CDElement.from_coeffs(a), CDElement.from_coeffs(b)
    assert commutator(x, y).is_zero()


def test_level3_associator_witness_from_exhaustive_search():
    # independent oracle: scan every basis triple and record the first failure
    first = None
    for i in range(8):
        for j in range(8):
            for k in range(8):
                r = associator(CDElement.basis(3, i), CDElement.basis(3, j),
                               CDElement.basis(3, k))
                if not r.is_zero():
                    first = (i, j, k, r.coeffs)
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
    x, y, z = (CDElement.from_coeffs(v) for v in (a, b, c))
    assert associator(x, y, z).is_zero()


@settings(max_examples=20, deadline=None)
@given(coeff_lists(3), coeff_lists(3))
def test_level3_alternative(a, b):
    x, y = CDElement.from_coeffs(a), CDElement.from_coeffs(b)
    assert associator(x, x, y).is_zero()
    assert associator(x, y, y).is_zero()


def test_conjugation_properties_bulk():
    # 1000 random rational elements (and pairs) per level
    for level in range(5):
        n = 1 << level
        one = CDElement.one(level)
        assert cd_conj(one).coeffs == one.coeffs
        for i in range(1000):
            rng = CounterRng(77, f"test/conj-bulk/{level}", i)
            a = CDElement(level, rand_coeffs(rng, n, "exact"))
            assert cd_conj(cd_conj(a)).coeffs == a.coeffs
        for i in range(1000 if level <= 2 else 300):
            rng = CounterRng(78, f"test/conj-antihom/{level}", i)
            a = CDElement(level, rand_coeffs(rng, n, "exact"))
            b = CDElement(level, rand_coeffs(rng, n, "exact"))
            assert cd_conj(a * b).coeffs == (cd_conj(b) * cd_conj(a)).coeffs


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


# --- zero divisors ----------------------------------------------------------

def test_no_zero_divisors_through_level3():
    for level in (0, 1, 2, 3):
        assert zero_divisor_search(level) is None


def test_level4_zero_divisor_witness():
    found = zero_divisor_search(4)
    assert found is not None
    a, b = found
    assert not a.is_zero() and not b.is_zero()
    assert (a * b).is_zero()
    # first hit in lexicographic order: (e1 + e10)(e4 - e15)
    want_a = [0] * 16
    want_a[1] = want_a[10] = 1
    want_b = [0] * 16
    want_b[4], want_b[15] = 1, -1
    assert list(a.coeffs) == want_a
    assert list(b.coeffs) == want_b


def test_level4_zero_divisor_float_mode_normalized():
    a, b = zero_divisor_search(4, mode="float")
    assert abs(norm_coeffs(a.coeffs) - 1) < 1e-12
    assert abs(norm_coeffs(b.coeffs) - 1) < 1e-12
