"""The samplers against the formulas they replaced: the exact ones against the
Fraction formulas and the integer code written out per sampler, the float
quarter pair, sphere points and coefficients against their inline formulas,
the one-loop generator draw against one generator step per word, the lane
passes against the stepping generator, and each law's batched samples
against the per-sample draws of `test_sampled_inputs`."""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import math

from hopfcheck import checks, sampling
from hopfcheck.checks import max_abs_diff
from hopfcheck.cli import main
from hopfcheck.sampling import (LANE_WORDS, MAGNITUDE, VIEW_KINDS, CounterRng, quarter_grid,
                                quarter_point, rand_coeffs, rand_lifted, rand_point,
                                rand_quarter_pair, rand_unit, stereographic)
from hopfcheck.spheremodel import SpherePoint, lifted
from test_sampled_inputs import (canon, old_join_point, old_lifted, old_point, old_quarter,
                                 old_uniforms)


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


def test_lane_words_are_the_stepped_words():
    # word j of generator t at j count + t, bit for bit the stepped words, in every
    # lane of full passes at samples 0 and count, and of a pass whose first row's
    # states start + t + G pass 2^64 from lane count // 2 on
    mask = (1 << 64) - 1
    for seed in (0, 1, -1, 2 ** 64 + 5):
        suite = f"test/lanes/{seed}"
        for k in (1, 2, 7, 33):
            count = LANE_WORDS // k
            starts = [sampling._start(seed, suite, lo) for lo in (0, count)]
            for start in starts + [(-sampling._GAMMA - count // 2) & mask]:
                words = sampling._lane_words(start, count, k)
                assert [words[t::count].tolist() for t in range(count)] == [
                    sampling._steps((start + t) & mask, k) for t in range(count)]
    with pytest.raises(ValueError):
        sampling._lane_words(0, LANE_WORDS // 7 + 1, 7)


def prefix_words(kinds, dim, mode):
    """The words a law's samples take from lane passes: per kind, the most it reads."""
    exact = mode == "exact"
    m, q = 1 if dim == 1 else (dim - 1) * (2 if exact else 1), 2 if exact else 1
    most = {"element": 2 * dim if exact else dim, "arc": 2 * m + q,
            "glue": 2 * m + q, "cycle": 2 * m + q, "join": 1 + 2 * m + q}
    return sum(most.get(kind, m) for kind in kinds)


def reference_draw(kinds, dim, mode, tolerance, seed, suite, i):
    """Sample i of a law of kinds as the per-sample draws made it: one stepping
    generator, CounterRng(seed, suite, i), read input by input."""
    rng, block, drawn = CounterRng(seed, suite, i), SimpleNamespace(susp_dim=dim), []
    for kind in kinds:
        if kind in ("join", "cycle"):
            kind = VIEW_KINDS[rng.randint(0, 2) if kind == "join" else i % 3]
        if kind == "element":
            x = old_lifted(rng, dim) if mode == "exact" else old_uniforms(rng, -MAGNITUDE,
                                                                          MAGNITUDE, dim)
        elif kind == "point":
            x = old_point(rng, dim, mode)
        elif kind == "arc":
            x = (old_point(rng, dim, mode), old_point(rng, dim, mode)) + tuple(
                old_quarter(rng, mode))
        elif kind in VIEW_KINDS:
            x = old_join_point(rng, block, kind, mode)
        elif kind == "corner":
            x = (SpherePoint.basis(dim, 0, 1 - 2 * i) if i < 2
                 else SpherePoint(tuple(old_point(rng, dim, mode))))
        else:   # far: redrawn until it differs from the input before it
            x = old_point(rng, dim, mode)
            while not max_abs_diff(drawn[-1], x) > (tolerance if mode == "float" else 0):
                x = old_point(rng, dim, mode)
        drawn.append(x)
    return tuple(drawn)


EVERY_KIND = ("corner", "element", "point", "far", "arc", "join", "inl", "inr", "glue", "cycle",
              "join")


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("kinds, dim, tolerance", [
    (EVERY_KIND, 4, 1e-9),
    (("join", "join"), 4, 1e-9),
    (("arc", "point", "far"), 1, 1e-9),      # the real fibration's +-1 points redraw half the time
    (("arc", "point", "far"), 2, 0.9),
    (("point", "far", "point"), 1, 1e-9),   # a redraw takes the later point's prefix word
    (("element",) * 3, 8, 1e-9),
], ids=["every-kind", "join-join", "far-real", "far-0.9", "far-then-point", "elements"])
def test_law_samples_are_the_per_sample_draws(lane_passes, monkeypatch, kinds, dim, tolerance,
                                              mode):
    # three lane passes of LANE_WORDS // k samples, k from the kinds alone, the last
    # one cut at the sample count; every sample equals its stepping draw, in value
    # and type, float bits included
    stepped, steps = [], sampling._steps
    monkeypatch.setattr(sampling, "_steps", lambda state, n: stepped.append(n) or steps(state, n))
    k = prefix_words(kinds, dim, mode)
    chunk = LANE_WORDS // k
    suite = f"test/law-samples/{'+'.join(kinds)}/{dim}/{mode}"
    samples = list(sampling.law_samples(3, suite, 2 * chunk + 5, kinds, dim, mode, tolerance))
    # only a far redraw steps, past the sample's prefix
    assert bool(stepped) == ("far" in kinds and (dim == 1 or tolerance > 0.5))
    assert lane_passes == [(chunk, k), (chunk, k), (5, k)]
    assert [canon(x) for x in samples] == [
        canon(reference_draw(kinds, dim, mode, tolerance, 3, suite, i))
        for i in range(len(samples))]
    if kinds[0] == "corner":
        assert [x[0] for x in samples[:2]] == [SpherePoint.basis(dim, 0, 1),
                                                 SpherePoint.basis(dim, 0, -1)]
    if kinds == ("join", "join"):
        for j in range(2):      # each input takes every view
            assert {(any(x[j].left), any(x[j].right)) for x in samples} == {
                (True, False), (False, True), (True, True)}


def test_law_samples_draw_a_pass_per_chunk_when_its_first_sample_is_taken(lane_passes):
    kinds, count = ("element",), 2 * (LANE_WORDS // 7) + 3
    samples = sampling.law_samples(3, "test/lanes/passes", count, kinds, 7, "float", 1e-9)
    assert lane_passes == []
    for i, _ in enumerate(samples):
        assert len(lane_passes) == 1 + i // (LANE_WORDS // 7)
    assert lane_passes == [(LANE_WORDS // 7, 7), (LANE_WORDS // 7, 7), (3, 7)]


def test_law_samples_wider_than_a_pass_take_one_pass_each(lane_passes, monkeypatch):
    # a sample of more than LANE_WORDS words takes LANE_WORDS of them from its own
    # pass and steps on for the rest, reading its own generator's words
    stepped, steps = [], sampling._steps
    monkeypatch.setattr(sampling, "_steps", lambda state, n: stepped.append(n) or steps(state, n))
    n = LANE_WORDS // 2 + 1
    samples = list(sampling.law_samples(4, "test/lanes/wide", 3, ("element",), n, "exact", 0))
    assert lane_passes == [(1, LANE_WORDS)] * 3
    assert stepped == [2 * n - LANE_WORDS] * 3
    assert [x.nums for (x,) in samples] == [
        rand_lifted(CounterRng(4, "test/lanes/wide", i), n).nums for i in range(3)]


def test_law_samples_reject_an_unknown_kind_at_the_first_sample(lane_passes):
    samples = sampling.law_samples(5, "test/lanes/kind", 10, ("point", "torus"), 3, "exact", 0)
    with pytest.raises(KeyError, match="torus"):
        next(samples)
    assert lane_passes == []


def test_single_draws_read_only_their_words():
    # the single draws read through the law readers, leaving the generator where
    # the stepping draws left it
    for mode in ("exact", "float"):
        for view in VIEW_KINDS:
            fast, slow = (CounterRng(8, f"test/single/{view}", 0) for _ in range(2))
            got = sampling.join_point_sample(fast, 4, view, mode)
            assert canon(got) == canon(old_join_point(slow, SimpleNamespace(susp_dim=4), view,
                                                      mode))
            assert fast.next_u64() == slow.next_u64()
        fast, slow = (CounterRng(9, "test/single/arc", 0) for _ in range(2))
        u, v, cs = sampling.rand_arc(fast, 3, mode)
        assert canon((u, v, cs)) == canon((old_point(slow, 3, mode), old_point(slow, 3, mode),
                                           old_quarter(slow, mode)))
        assert fast.next_u64() == slow.next_u64()


def test_join_float_draws_no_generator_per_sample(monkeypatch, tmp_path):
    # the two join-float benchmark commands at seed 1: every sample from lane passes,
    # no generator built, and only the fibers' far redraws step
    built, stepped, calls = [], [], []
    steps, init, execute = sampling._steps, CounterRng.__init__, checks.execute_check
    monkeypatch.setattr(sampling, "_steps", lambda state, n: stepped.append(n) or steps(state, n))
    monkeypatch.setattr(CounterRng, "__init__", lambda rng, *key: built.append(key) or init(
        rng, *key))

    def counting(*args, sampler=None, **kw):
        if sampler is not None:
            draw = sampler

            def sampler(i):
                calls.append(i)
                return draw(i)
        return execute(*args, sampler=sampler, **kw)

    monkeypatch.setattr(checks, "execute_check", counting)
    for argv in (("hspace", "--instance", "s7", "--samples", "2000"),
                 ("fibration", "--instance", "all", "--samples", "1000")):
        assert main([*argv, "--mode", "float", "--workers", "2", "--seed", "1",
                     "--output", str(tmp_path / "out.json")]) == 0
    assert (len(calls), len(built), sum(stepped)) == (57995, 0, 942)
