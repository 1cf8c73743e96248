"""The samplers against the formulas they replaced: the exact ones against the
Fraction formulas and the integer code written out per sampler, the float
quarter pair, sphere points and coefficients against their inline formulas,
and the one-loop generator draw against one generator step per coordinate."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import math

from hopfcheck.sampling import (MAGNITUDE, CounterRng, quarter_grid, quarter_point,
                                rand_coeffs, rand_lifted, rand_point, rand_quarter_pair,
                                rand_unit, stereographic)
from hopfcheck.spheremodel import lifted


def _fraction_rand_unit(rng, dim):
    """The stereographic image of random Fraction draws, in Fraction arithmetic."""
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


def _one_uniform(rng, lo, hi):
    """CounterRng.uniform as it was: one generator step per float."""
    return lo + (hi - lo) * (rng.next_u64() / 2.0**64)


def _inline_float_quarter_pair(rng):
    t = 0.5 * _one_uniform(rng, 0.0, 1.0) + 0.25
    t2 = t * t
    return ((1 - t2) / (1 + t2), 2 * t / (1 + t2))


def _uniform_float_point(rng, dim):
    """Float rand_point as it was: a stereographic map of one uniform call per coordinate."""
    if dim == 1:
        return (rng.sign() * 1.0,)
    return stereographic(tuple(_one_uniform(rng, -MAGNITUDE, MAGNITUDE)
                               for _ in range(dim - 1)))


def _uniform_float_coeffs(rng, n):
    """Float rand_coeffs as it was."""
    return tuple(_one_uniform(rng, -MAGNITUDE, MAGNITUDE) for _ in range(n))


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


def test_float_draws_match_their_uniform_formulas():
    # one uniforms call per point gives the floats of one uniform call per coordinate
    for n in range(1, 17):
        for i in range(500):
            for draw, reference in ((lambda rng: rand_point(rng, n, "float"),
                                     lambda rng: _uniform_float_point(rng, n)),
                                    (lambda rng: rand_coeffs(rng, n, "float"),
                                     lambda rng: _uniform_float_coeffs(rng, n))):
                fast, slow = (CounterRng(11, "test/float-draw", i) for _ in range(2))
                assert repr(draw(fast)) == repr(reference(slow))
                assert fast.next_u64() == slow.next_u64()


def _one_step(rng):
    """CounterRng.next_u64 as it was: one splitmix64 step, through the generator's state."""
    mask = (1 << 64) - 1
    rng._state = (rng._state + 0x9E3779B97F4A7C15) & mask
    z = rng._state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_uniforms_match_one_step_per_coordinate():
    # the one-loop draw gives the floats, bit for bit, and the stream position of
    # one method call per coordinate; next_u64 takes the same step
    for seed in (0, 1, 7, 2 ** 64 - 1):
        for suite in ("", "hspace/s7/left-unit/float", "fiber/quaternionic/fiber-polar/float"):
            for i in range(40):
                for lo, hi, n in ((-MAGNITUDE, MAGNITUDE, i % 17), (0.0, 1.0, 1), (-1.5, 2.5, 8)):
                    fast, slow = CounterRng(seed, suite, i), CounterRng(seed, suite, i)
                    want = tuple(lo + (hi - lo) * (_one_step(slow) / 2.0**64) for _ in range(n))
                    assert repr(fast.uniforms(lo, hi, n)) == repr(want)
                    assert [fast.next_u64() for _ in range(3)] == [_one_step(slow)
                                                                   for _ in range(3)]


def test_batched_rationals_match_one_step_per_integer():
    # exact coefficients draw numerator, then denominator, in one randints call
    def one_randint(rng, lo, hi):
        return lo + _one_step(rng) % (hi - lo + 1)

    for seed in (0, 3, 2 ** 63):
        for i in range(60):
            fast, slow = (CounterRng(seed, "cdalg/associativity/level-3/exact", i)
                          for _ in range(2))
            n = 1 + i % 16
            want = tuple(Fraction(one_randint(slow, -MAGNITUDE, MAGNITUDE),
                                  one_randint(slow, 1, MAGNITUDE)) for _ in range(n))
            assert _typed(rand_coeffs(fast, n, "exact")) == _typed(want)
            assert fast.randint(-5, 5) == one_randint(slow, -5, 5)


def test_lifted_draw_equals_the_fraction_draw():
    # the ladder's exact samples: `rand_coeffs`' values on integers, from the same
    # draws, leaving the generator where `rand_coeffs` leaves it
    for level in range(6):
        n = 1 << level
        for i in range(50):
            fast, slow = (CounterRng(4, f"cdalg/commutativity/level-{level}/exact", i)
                          for _ in range(2))
            got = rand_lifted(fast, n)
            assert type(got.nums) is tuple and all(type(c) is int for c in got.nums)
            assert type(got.den) is int and got.den > 0
            assert tuple(got) == tuple(lifted(rand_coeffs(slow, n, "exact")))
            assert fast.next_u64() == slow.next_u64()
