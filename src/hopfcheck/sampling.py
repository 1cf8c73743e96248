"""Deterministic sample generation.

Every random draw is made from a counter-based splitmix64 generator keyed
by (seed, suite id, sample index).  Sample i of a suite starts from the
state s_i = K G + i + 1 (mod 2^64), where K mixes the seed with the
suite's hash and G is splitmix64's odd increment, and its word j is

    word_j(i) = mix(s_i + (j + 1) G)   (mod 2^64),

a pure function of (i, j) (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC 2011).  So sample i depends on its index alone, not
on the samples drawn before it, and many samples' words can be computed
at once.  `CounterRng._u64s` steps one generator in a loop over a local
state; `_lane_words` computes words 0..k-1 of many consecutive samples in
one pass of big-int operations, one 128-bit lane per word, bit for bit
the words of the loop.

`law_rngs` yields one law's generators in sample order.  Sample 0
steps, and the number of words it reads becomes the law's prefix length
k.  Samples 1.. come preloaded with their first k words, from lane passes
over chunks of at most `LANE_WORDS` words, each computed when its chunk's
first sample is taken; a sample that reads more than k words steps on
from the end of its prefix.  Every sample thus reads exactly the words of
its own generator.

This module alone turns words into values.  Exact-mode samples are
rationals with bounded numerators and denominators; sphere points are
generated through the rational parametrization y -> ((1 - |y|^2) /
(1 + |y|^2), 2y / (1 + |y|^2)), which lands exactly on the unit sphere,
evaluated on integers: exact points and glue arcs are `Lifted` values
(`rand_point`, `rand_arc`); `rand_unit` and `rand_quarter_pair` give
Fractions.  One integer draw (`rand_lifted`) gives both the ladder's
exact samples and the sphere points' source vectors, and one float
decoder (`_floats_of`) both the float coefficients and the float points'
source vectors.  Every draw reads its words in one `_u64s` call and
builds its values from them (`point_of`, `quarter_of`).  A law row names
the kind of each input, and `draw_input` alone draws every kind.
"""

from __future__ import annotations

import math
import sys
from functools import cache

from .spheremodel import JoinPoint, Lifted, SpherePoint, _sum_squares, arc_point, lifted_arc

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15                 # splitmix64's increment G
_GAMMA_INV = pow(_GAMMA, -1, 1 << 64)       # steps taken = state change / G
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

#: bound on numerators/denominators of random rationals and on random floats
MAGNITUDE = 10

#: most words in one lane pass (64 KB of 128-bit lanes).  Python 3.11 on a
#: 2-core Xeon VM, k = 16 words per sample, median of 9: 0.13 µs per word at
#: 512 words, 0.11 at 1,024, 0.10 at 2,048, 0.09 at 4,096 and 0.13 at 8,192
#: and 16,384; the stepping loop takes 0.42-0.50 µs per word at every size
LANE_WORDS = 4096


@cache   # hashed once per suite id, not once per sample
def _suite_key(suite: str) -> int:
    import hashlib      # here, not at import: it loads OpenSSL, and --version draws no sample
    return int.from_bytes(hashlib.sha256(suite.encode()).digest()[:8], "big")


def _start(seed: int, suite: str, index: int) -> int:
    """The state of sample index before its first word."""
    return (((seed & _MASK) ^ _suite_key(suite)) * _GAMMA + index + 1) & _MASK


class CounterRng:
    """Small splitmix64 stream keyed by (seed, suite, index).

    Pure integer arithmetic: reproducible across platforms and immune to
    hash randomization.
    """

    _prefix = ()    # words handed in by `_preloaded`, read back before any step

    def __init__(self, seed: int, suite: str, index: int):
        self._state = _start(seed, suite, index)

    @classmethod
    def _preloaded(cls, start: int, prefix: list) -> "CounterRng":
        """The generator whose state was start: it reads prefix (its first words) back,
        then steps on from start + len(prefix) G."""
        rng = cls.__new__(cls)
        rng._state = (start + len(prefix) * _GAMMA) & _MASK
        rng._prefix = prefix
        return rng

    def _u64s(self, n: int) -> list:
        """The next n outputs: the rest of a preloaded prefix, then the splitmix64
        step, in one loop over a local state."""
        head = self._prefix
        if head:
            self._prefix = head[n:]
            if len(head) >= n:
                return head[:n]
            n -= len(head)
        state, out = self._state, [0] * n
        for k in range(n):
            state = (state + 0x9E3779B97F4A7C15) & _MASK
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            out[k] = z ^ (z >> 31)
        self._state = state
        return head + out if head else out

    def next_u64(self) -> int:
        return self._u64s(1)[0]

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]. Spans here are tiny; modulo bias is negligible."""
        return lo + self.next_u64() % (hi - lo + 1)


@cache
def _low_halves():
    """The low 64 bits of each of LANE_WORDS lanes: it masks a pass of any size."""
    return int.from_bytes((b"\xff" * 8 + bytes(8)) * LANE_WORDS, "little")


def _lane_words(start: int, count: int, k: int) -> memoryview:
    """Words 0..k-1 of the count generators whose states start at start, start + 1,
    ... (mod 2^64), as a view in which word j of generator t is at j count + t.

    One int holds count k lanes of 128 bits; lane (j, t) starts as start + t +
    (j + 1) G (mod 2^64) in its low half, from byte patterns: a ramp 0..count-1
    (two bytes per lane) repeated k times, plus each row's constant repeated
    count times.  The xor-shifts, masks and multiplies of `CounterRng._u64s`
    then act on every lane at once: a shift moves bits of the lane above into a
    high half, which the mask clears, and a product of two numbers below 2^64
    stays below 2^128, in its lane.  The result is read back through a
    memoryview of native 64-bit words: the low halves are every other word,
    counted from the front on a little-endian host and from the back on a
    big-endian one, whose bytes put the last lane first.
    """
    n = count * k
    if n > LANE_WORDS:
        raise ValueError(f"a lane pass takes at most {LANE_WORDS} words, not {n}")
    ramp, blocks = bytearray(16 * count), count // 256 + 1
    ramp[0::16] = (bytes(range(256)) * blocks)[:count]
    ramp[1::16] = b"".join([bytes((b,)) * 256 for b in range(blocks)])[:count]
    rows = b"".join([((start + j * _GAMMA) & _MASK).to_bytes(16, "little") * count
                     for j in range(1, k + 1)])
    low = _low_halves()
    x = (int.from_bytes(ramp * k, "little") + int.from_bytes(rows, "little")) & low
    x = ((x ^ ((x >> 30) & low)) * _MIX1) & low
    x = ((x ^ ((x >> 27) & low)) * _MIX2) & low
    x ^= x >> 31        # the high halves are never read
    words = memoryview(x.to_bytes(16 * n, sys.byteorder)).cast("Q")
    return words[::2] if sys.byteorder == "little" else words[::-2]


def law_rngs(seed: int, suite: str, samples: int):
    """CounterRng(seed, suite, i) for i = 0, 1, ..., samples - 1, in index order.

    Sample 0 steps; the words it has read when sample 1 is taken (its state
    moves G per word; at most LANE_WORDS) become the prefix length k.
    Samples 1.. come preloaded with their first k words, one `_lane_words`
    pass per chunk of LANE_WORDS // k samples, made when the chunk's first
    sample is taken.  With k = 0 every sample steps from its start.
    """
    first = CounterRng(seed, suite, 0)
    yield first
    start = _start(seed, suite, 0)
    k = min(((first._state - start) * _GAMMA_INV) & _MASK, LANE_WORDS)
    if not k:
        yield from (CounterRng(seed, suite, i) for i in range(1, samples))
    else:
        chunk = LANE_WORDS // k
        for lo in range(1, samples, chunk):
            count = min(chunk, samples - lo)
            words = _lane_words((start + lo) & _MASK, count, k)
            for t in range(count):
                yield CounterRng._preloaded(start + lo + t, words[t::count].tolist())


# ---------------------------------------------------------------------------
# values from words


def point_words(dim: int, mode: str) -> int:
    """The words `rand_point` reads for a point of R^dim: one sign for dim 1, else one
    float or one numerator and one denominator per source coordinate."""
    return 1 if dim == 1 else (dim - 1) * (2 if mode == "exact" else 1)


def quarter_words(mode: str) -> int:
    """The words `rand_quarter_pair` reads: a denominator and a numerator, or one float."""
    return 2 if mode == "exact" else 1


def _lifted_of(words) -> Lifted:
    """`rand_lifted` from its words: numerator, denominator, numerator, ..."""
    dens = [1 + u % MAGNITUDE for u in words[1::2]]
    lcm = math.lcm(*dens)
    return Lifted(tuple([(u % (2 * MAGNITUDE + 1) - MAGNITUDE) * (lcm // d)
                         for u, d in zip(words[::2], dens)]), lcm)


def _floats_of(words) -> list:
    """Float `rand_coeffs` from its words: -MAGNITUDE + 2 MAGNITUDE (u / 2^64) per word u."""
    return [-MAGNITUDE + 2 * MAGNITUDE * (u / 2.0**64) for u in words]


def point_of(words, dim: int, mode: str):
    """`rand_point`'s point of R^dim from its `point_words(dim, mode)` words."""
    if dim == 1:
        sign = 1 if words[0] & 1 else -1
        return Lifted((sign,), 1) if mode == "exact" else (sign * 1.0,)
    if mode == "exact":
        y = _lifted_of(words)
        return _stereographic_ints(y.nums, y.den)
    # the float operations of `stereographic`, in their order, inline
    y = _floats_of(words)
    n2 = 0
    for c in y:
        n2 += c * c
    denom = 1 + n2
    return ((1 - n2) / denom,) + tuple([2 * c / denom for c in y])


def quarter_of(words, mode: str):
    """`rand_quarter_pair`'s pair, `Lifted` in exact mode, from `quarter_words(mode)` words."""
    if mode == "exact":
        den = 2 + words[0] % (4 * MAGNITUDE - 1)
        return _stereographic_ints((1 + words[1] % (den - 1),), den)
    t = 0.5 * (words[0] / 2.0**64) + 0.25
    n2 = t * t
    return ((1 - n2) / (1 + n2), 2 * t / (1 + n2))


# ---------------------------------------------------------------------------
# draws


def rand_coeffs(rng: CounterRng, n: int, mode: str) -> tuple:
    if mode == "exact":
        return tuple(rand_lifted(rng, n))
    return tuple(_floats_of(rng._u64s(n)))


def rand_lifted(rng: CounterRng, n: int) -> Lifted:
    """Exact `rand_coeffs` as a `Lifted`, from the same words: the numerators
    a_i L / d_i over L = lcm(d_i), with no Fraction built."""
    return _lifted_of(rng._u64s(2 * n))


def stereographic(vec: tuple) -> tuple:
    """Map a vector in R^(d-1) to the unit sphere of R^d, exactly for rationals."""
    if not vec:
        raise ValueError("stereographic needs a source vector of dim >= 1")
    n2 = _sum_squares(vec)
    denom = 1 + n2
    return ((1 - n2) / denom,) + tuple([2 * c / denom for c in vec])


def rand_unit(rng: CounterRng, dim: int, mode: str) -> tuple:
    """`rand_point` as a coordinate tuple: exactly unit Fractions in exact mode."""
    return tuple(rand_point(rng, dim, mode))


def rand_point(rng: CounterRng, dim: int, mode: str):
    """Random point on the unit sphere of R^dim: a `Lifted` in exact mode (the stereographic
    image of `rand_lifted`, on integers), floats in float mode."""
    if dim < 1:
        raise ValueError("ambient dimension must be >= 1")
    return point_of(rng._u64s(point_words(dim, mode)), dim, mode)


def rand_arc(rng: CounterRng, dim: int, mode: str) -> tuple:
    """(u, v, cs): a glue arc's endpoints, two `rand_point`s of R^dim, and its
    `rand_quarter_pair` (c, s), `Lifted` values in exact mode, from one slice of words."""
    m = point_words(dim, mode)
    words = rng._u64s(2 * m + quarter_words(mode))
    return (point_of(words[:m], dim, mode), point_of(words[m:2 * m], dim, mode),
            quarter_of(words[2 * m:], mode))


def _stereographic_ints(nums, den) -> Lifted:
    """`stereographic` at y = nums / den, on integers: with S = sum n_i^2 the point
    is (den^2 - S, 2 n_i den) over den^2 + S."""
    d2 = den * den
    s = sum(a * a for a in nums)
    return Lifted((d2 - s,) + tuple([2 * a * den for a in nums]), d2 + s)


def rand_quarter_pair(rng: CounterRng, mode: str) -> tuple:
    """Random (c, s) with c, s > 0 and c^2 + s^2 = 1, Fractions in exact mode: a genuine
    glue arc point, not an endpoint.  Exact mode draws t = k / den and returns the
    quarter-circle point at t (`quarter_point`)."""
    return tuple(quarter_of(rng._u64s(quarter_words(mode)), mode))


def quarter_point(k: int, den: int) -> tuple:
    """The quarter-circle point ((1 - t^2) / (1 + t^2), 2t / (1 + t^2)) at t = k / den,
    computed on integers over den^2 + k^2."""
    return tuple(_stereographic_ints((k,), den))


def quarter_grid(n: int) -> list:
    """n+1 exact quarter-circle pairs from t = 0/n ... n/n, endpoints included."""
    return [quarter_point(k, n) for k in range(n + 1)]


# ---------------------------------------------------------------------------
# law inputs

#: a join point's views, in the order a `join` word or a `cycle` index picks them
VIEW_KINDS = ("inl", "inr", "glue")


def join_point_sample(rng: CounterRng, dim: int, view: str, mode: str) -> JoinPoint:
    """A random join point of the view inl, inr or glue, blocks in R^dim; lifted in exact mode."""
    if view == "glue":
        u, v, cs = rand_arc(rng, dim, mode)
        return lifted_arc(u, v, cs) if mode == "exact" else arc_point(u, v, *cs)
    x = rand_point(rng, dim, mode)
    zero = Lifted((0,) * dim, x.den) if mode == "exact" else (0.0,) * dim
    return JoinPoint(x, zero) if view == "inl" else JoinPoint(zero, x)


def draw_input(kind: str, rng: CounterRng, dim: int, mode: str, i: int, drawn: list,
               tolerance: float):
    """Input `kind` of sample i in R^dim from rng: a ladder `element`, a `point`, a
    `corner` (the poles +-e_0 at samples 0 and 1, reading no word, then `SpherePoint`s),
    an `arc` (u, v, c, s), a join point of the view `inl`, `inr` or `glue`, of a view
    one word picks (`join`) or of view i % 3 (`cycle`), or a point redrawn until it
    differs from drawn[-1], the input before it, beyond tolerance in float mode (`far`)."""
    if kind == "point":
        return rand_point(rng, dim, mode)
    if kind == "element":
        return rand_lifted(rng, dim) if mode == "exact" else rand_coeffs(rng, dim, mode)
    if kind in ("join", "cycle"):
        kind = VIEW_KINDS[rng.randint(0, 2) if kind == "join" else i % 3]
    if kind in VIEW_KINDS:
        return join_point_sample(rng, dim, kind, mode)
    if kind == "arc":
        u, v, cs = rand_arc(rng, dim, mode)
        return (u, v) + tuple(cs)
    if kind == "corner":
        return (SpherePoint.basis(dim, 0, 1 - 2 * i) if i < 2
                else SpherePoint(rand_unit(rng, dim, mode)))
    if kind == "far":   # exact points differ on cross-multiplied numerators
        w1, w = drawn[-1], rand_point(rng, dim, mode)
        while not (any(x * w.den != y * w1.den for x, y in zip(w1.nums, w.nums))
                   if mode == "exact" else any(abs(x - y) > tolerance for x, y in zip(w1, w))):
            w = rand_point(rng, dim, mode)
        return w
    raise ValueError(f"unknown input kind {kind!r}")
