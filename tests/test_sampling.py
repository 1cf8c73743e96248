"""The samplers against the formulas they replaced: the exact ones against the
Fraction formulas and the integer code written out per sampler, the float
quarter pair, sphere points and coefficients against their inline formulas,
the one-loop generator draw against one generator step per word, and the
lane passes against the stepping generator."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import math

from hopfcheck import sampling
from hopfcheck.sampling import (LANE_WORDS, MAGNITUDE, CounterRng, law_rngs, quarter_grid,
                                quarter_point, rand_coeffs, rand_lifted, rand_point,
                                rand_quarter_pair, rand_unit, stereographic)
from hopfcheck.spheremodel import lifted


def _sign(rng):
    """CounterRng.sign as it was: the low bit of one word."""
    return 1 if rng.next_u64() & 1 else -1


def _fraction_rand_unit(rng, dim):
    """The stereographic image of random Fraction draws, in Fraction arithmetic."""
    if dim == 1:
        return (_sign(rng) * Fraction(1),)
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
        return (_sign(rng) * 1.0,)
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
    # one `_u64s` call per draw gives the floats of one generator step per coordinate
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


def test_u64s_match_one_step_per_word():
    # the one-loop draw gives the words, and the stream position, of one step per
    # word; next_u64 takes the same step
    for seed in (0, 1, 7, 2 ** 64 - 1):
        for suite in ("", "hspace/s7/left-unit/float", "fiber/quaternionic/fiber-polar/float"):
            for i in range(40):
                for n in (i % 17, 1, 8):
                    fast, slow = CounterRng(seed, suite, i), CounterRng(seed, suite, i)
                    assert fast._u64s(n) == [_one_step(slow) for _ in range(n)]
                    assert [fast.next_u64() for _ in range(3)] == [_one_step(slow)
                                                                   for _ in range(3)]


def test_batched_rationals_match_one_step_per_integer():
    # exact coefficients draw numerator, then denominator, in one `_u64s` call
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


def _law_words(seed, suite, samples, k):
    """Words 0..k-1 of samples 1..samples-1 as `law_rngs` yields them, once sample 0
    has read k words."""
    rngs = law_rngs(seed, suite, samples)
    next(rngs)._u64s(k)
    return [rng._u64s(k) for rng in rngs]


def test_lane_words_are_the_stepped_words():
    # three passes per law: the second and third start past a chunk boundary
    for seed in (0, 1, -1, 2 ** 64 + 5):
        for k in (1, 2, 7, 33):
            samples = 2 * (LANE_WORDS // k) + 4
            suite = f"test/lanes/{k}"
            assert _law_words(seed, suite, samples, k) == [
                CounterRng(seed, suite, i)._u64s(k) for i in range(1, samples)]


def test_lane_passes_cover_chunks_of_samples(lane_passes):
    rngs = law_rngs(3, "test/lanes/passes", 2 * (LANE_WORDS // 7) + 4)
    next(rngs)._u64s(7)
    assert lane_passes == []
    # each pass is made when its chunk's first sample is taken
    for i, rng in enumerate(rngs, 1):
        assert len(lane_passes) == 1 + (i - 1) // (LANE_WORDS // 7)
    # samples 1.. in chunks of LANE_WORDS // 7 samples, the last one cut at the sample count
    assert lane_passes == [(LANE_WORDS // 7, 7), (LANE_WORDS // 7, 7), (3, 7)]
    with pytest.raises(ValueError):
        sampling._lane_words(0, LANE_WORDS // 7 + 1, 7)


def test_preloaded_generator_steps_on_past_its_prefix():
    for seed in (0, 1, -1, 2 ** 64 + 5):
        for k in (1, 2, 7, 33):
            rngs = law_rngs(seed, "test/lanes/prefix", 50)
            next(rngs)._u64s(k)
            for i, rng in enumerate(rngs, 1):
                if i not in (1, 2, 49):
                    continue
                want = CounterRng(seed, "test/lanes/prefix", i)._u64s(k + 3)
                head = 1 + k // 2
                assert rng._u64s(head) + rng._u64s(k + 3 - head) == want
                # the stream goes on as the stepping generator's does
                stepped = CounterRng(seed, "test/lanes/prefix", i)
                stepped._u64s(k + 3)
                assert [rng.next_u64() for _ in range(3)] == [stepped.next_u64() for _ in range(3)]


def test_law_generators_without_words_step(lane_passes):
    rngs = law_rngs(5, "test/lanes/order", 10)
    next(rngs)      # reads no word: k is 0, and every sample steps from its start
    assert [rng._u64s(2) for rng in rngs] == [
        CounterRng(5, "test/lanes/order", i)._u64s(2) for i in range(1, 10)]
    assert lane_passes == []
