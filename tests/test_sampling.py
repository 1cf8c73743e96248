"""The exact samplers on integer numerators against the Fraction formulas they replaced."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hopfcheck.sampling import MAGNITUDE, CounterRng, rand_quarter_pair, rand_unit


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
