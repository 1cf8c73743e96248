"""The samplers against the formulas they replaced: the exact ones against the
Fraction formulas and the integer code written out per sampler, the float
quarter pair against its inline formula."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import math

from hopfcheck.sampling import (MAGNITUDE, CounterRng, quarter_grid, quarter_point,
                                rand_quarter_pair, rand_unit)


def _fraction_rand_unit(rng, dim):
    """The stereographic image of rand_fraction draws, in Fraction arithmetic."""
    if dim == 1:
        return (rng.sign() * Fraction(1),)
    vec = tuple(Fraction(rng.randint(-MAGNITUDE, MAGNITUDE), rng.randint(1, MAGNITUDE))
                for _ in range(dim - 1))
    n2 = sum(c * c for c in vec)
    denom = 1 + n2
    return ((1 - n2) / denom,) + tuple(2 * c / denom for c in vec)


def _fraction_quarter_pair(rng):
    den = rng.randint(2, 4 * MAGNITUDE)
    t = Fraction(rng.randint(1, den - 1), den)
    t2 = t * t
    return ((1 - t2) / (1 + t2), 2 * t / (1 + t2))


def _integer_rand_unit(rng, dim):
    """The exact branch of rand_unit with its own integer stereographic formula."""
    drawn = [(rng.randint(-MAGNITUDE, MAGNITUDE), rng.randint(1, MAGNITUDE))
             for _ in range(dim - 1)]
    lcm = math.lcm(*(d for _, d in drawn))
    nums = [a * (lcm // d) for a, d in drawn]
    l2 = lcm * lcm
    s = sum(a * a for a in nums)
    den = l2 + s
    return (Fraction(l2 - s, den),) + tuple(Fraction(2 * a * lcm, den) for a in nums)


def _integer_quarter_point(k, den):
    total = den * den + k * k
    return Fraction(den * den - k * k, total), Fraction(2 * k * den, total)


def _inline_float_quarter_pair(rng):
    t = 0.5 * rng.uniform(0.0, 1.0) + 0.25
    t2 = t * t
    return ((1 - t2) / (1 + t2), 2 * t / (1 + t2))


def _typed(values):
    return tuple((type(c), c) for c in values)


keys = st.tuples(st.integers(0, 2 ** 64), st.text(max_size=12), st.integers(0, 10 ** 6))


@settings(max_examples=300, deadline=None)
@given(keys, st.integers(1, 8))
def test_rand_unit_matches_fraction_formula(key, dim):
    fast, reference = CounterRng(*key), CounterRng(*key)
    assert _typed(rand_unit(fast, dim, "exact")) == _typed(_fraction_rand_unit(reference, dim))
    # the same draws in the same order: both streams continue alike
    assert fast.next_u64() == reference.next_u64()


@settings(max_examples=300, deadline=None)
@given(keys)
def test_rand_quarter_pair_matches_fraction_formula(key):
    fast, reference = CounterRng(*key), CounterRng(*key)
    assert _typed(rand_quarter_pair(fast, "exact")) == _typed(_fraction_quarter_pair(reference))
    assert fast.next_u64() == reference.next_u64()


@settings(max_examples=300, deadline=None)
@given(keys, st.integers(2, 8))
def test_rand_unit_matches_its_integer_formula(key, dim):
    fast, reference = CounterRng(*key), CounterRng(*key)
    got = rand_unit(fast, dim, "exact")
    assert type(got) is tuple
    assert _typed(got) == _typed(_integer_rand_unit(reference, dim))
    assert fast.next_u64() == reference.next_u64()


@settings(max_examples=300, deadline=None)
@given(st.integers(-4 * MAGNITUDE, 4 * MAGNITUDE), st.integers(1, 4 * MAGNITUDE))
def test_quarter_point_matches_its_integer_formula(k, den):
    got = quarter_point(k, den)
    assert type(got) is tuple
    assert _typed(got) == _typed(_integer_quarter_point(k, den))


def test_quarter_grid_keeps_fraction_pairs():
    for n in range(1, 20):
        assert [_typed(pair) for pair in quarter_grid(n)] == [
            _typed(_integer_quarter_point(k, n)) for k in range(n + 1)]


def test_float_quarter_pair_matches_its_inline_formula():
    for i in range(500):
        fast, reference = (CounterRng(5, "test/float-quarter", i) for _ in range(2))
        assert repr(rand_quarter_pair(fast, "float")) == repr(
            _inline_float_quarter_pair(reference))
        assert fast.next_u64() == reference.next_u64()
