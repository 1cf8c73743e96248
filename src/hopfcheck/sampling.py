"""Deterministic sample generation.

Every random draw is made from a counter-based splitmix64 generator keyed
by (seed, suite id, sample index).  Sample i of a suite starts from the
state s_i = K G + i + 1 (mod 2^64), where K mixes the seed with the
suite's hash and G is splitmix64's odd increment, and its word j is

    word_j(i) = mix(s_i + (j + 1) G)   (mod 2^64),

a pure function of (i, j) (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC 2011).  `CounterRng._u64s` steps one generator;
`_lane_words` computes words 0..k-1 of many consecutive samples in one
pass of big-int operations, bit for bit the stepped words.  `law_samples`
yields a law's input tuples in sample order from such passes, k being the
most words its input kinds read, with no generator per sample.

This module alone turns words into values, one reader per input kind, for
`law_samples` and the single draws (`rand_point`, `rand_arc`, ...) alike.
Exact sphere points and glue arcs are `Lifted` values: the rational
parametrization y -> ((1 - |y|^2) / (1 + |y|^2), 2y / (1 + |y|^2)),
exactly on the unit sphere, on integers (`point_of`, `quarter_of`), where
y is the ladder's integer draw (`_lifted_of`); float points and
coefficients share one decoder (`_floats_of`).  Each value is decoded by a
Python recipe (`_recipes`), a glue point's by its blocks (c u, s v).  In
float mode, from dimension 2 on, a recipe is compiled on its first use:
traced, `_floats_of` and the stereographic map included, into one
straight-line function of its float operations in their order
(`_compiled`, through `cdalg`'s tracer), which calls nothing and gives the
recipe's values bit for bit.  The exact readers stay Python: they take
`%`, `//` and `math.lcm`.  One function builds and checks every drawn join
point (`_join_points`), from the glue blocks or a point and a zero block.
"""

from __future__ import annotations

import math
import sys
from functools import cache

from .errors import UsageError
from .spheremodel import JoinPoint, Lifted, SpherePoint, _sum_squares, glue_blocks

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15                 # splitmix64's increment G
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

#: bound on numerators/denominators of random rationals and on random floats
MAGNITUDE = 10

#: most words in one lane pass (64 KB of 128-bit lanes) but for a wider sample.
#: Python 3.11 on a 2-core Xeon VM, k = 16 words per sample, median of 9: 0.13 µs
#: per word at 512 words, 0.11 at 1,024, 0.10 at 2,048, 0.09 at 4,096 and 0.13 at
#: 8,192 and 16,384; the stepping loop takes 0.42-0.50 µs per word at every size
LANE_WORDS = 4096

#: largest dimension whose float readers are compiled: a point's sum of squares nests
#: dim - 1 parentheses, and the parser takes at most 200
COMPILED_MAX_DIM = 64


@cache   # hashed once per suite id, not once per sample
def _suite_key(suite: str) -> int:
    import hashlib      # here, not at import: it loads OpenSSL, and --version draws no sample
    return int.from_bytes(hashlib.sha256(suite.encode()).digest()[:8], "big")


def _start(seed: int, suite: str, index: int) -> int:
    """The state of sample index before its first word."""
    return (((seed & _MASK) ^ _suite_key(suite)) * _GAMMA + index + 1) & _MASK


def _steps(state: int, n: int) -> list:
    """The n words after state: the splitmix64 step, in one loop over a local state."""
    out = [0] * n
    for k in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out[k] = z ^ (z >> 31)
    return out


class CounterRng:
    """Sample index's splitmix64 stream in suite, from seed: integer arithmetic alone."""

    def __init__(self, seed: int, suite: str, index: int):
        self._state = _start(seed, suite, index)

    def _u64s(self, n: int) -> list:
        """The next n outputs."""
        state = self._state
        self._state = (state + n * _GAMMA) & _MASK
        return _steps(state, n)

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
    return tuple(_draw(rng, "element", n, mode))


def rand_lifted(rng: CounterRng, n: int) -> Lifted:
    """Exact `rand_coeffs` as a `Lifted`: numerators a_i L / d_i over L = lcm(d_i)."""
    return _draw(rng, "element", n, "exact")


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
    """Random point on the unit sphere of R^dim: a `Lifted` in exact mode, else floats."""
    if dim < 1:
        raise ValueError("ambient dimension must be >= 1")
    return _draw(rng, "point", dim, mode)


def rand_arc(rng: CounterRng, dim: int, mode: str) -> tuple:
    """(u, v, c, s): a glue arc's endpoints, two `rand_point`s, and its `rand_quarter_pair`,
    the `arc` input of a law."""
    return _draw(rng, "arc", dim, mode)


def _stereographic_ints(nums, den) -> Lifted:
    """`stereographic` at y = nums / den, on integers: with S = sum n_i^2 the point
    is (den^2 - S, 2 n_i den) over den^2 + S."""
    d2 = den * den
    s = sum(a * a for a in nums)
    return Lifted((d2 - s,) + tuple([2 * a * den for a in nums]), d2 + s)


def rand_quarter_pair(rng: CounterRng, mode: str) -> tuple:
    """Random (c, s) with c, s > 0 and c^2 + s^2 = 1, Fractions in exact mode: a genuine
    glue arc point, the quarter-circle point at t = k / den (`quarter_point`)."""
    return tuple(quarter_of(rng._u64s(quarter_words(mode)), mode))


def quarter_point(k: int, den: int) -> tuple:
    """The quarter-circle point ((1 - t^2) / (1 + t^2), 2t / (1 + t^2)) at t = k / den,
    computed on integers over den^2 + k^2."""
    return tuple(_stereographic_ints((k,), den))


def quarter_grid(n: int) -> list:
    """n+1 exact quarter-circle pairs from t = 0/n ... n/n, endpoints included."""
    return [quarter_point(k, n) for k in range(n + 1)]


def join_point_sample(rng: CounterRng, dim: int, view: str, mode: str) -> JoinPoint:
    """A random join point of the view inl, inr or glue, blocks in R^dim; lifted in exact mode.
    Any other view raises UsageError."""
    if view not in VIEW_KINDS:
        raise UsageError(f"unknown join point view {view!r}")
    return _draw(rng, view, dim, mode)


def _draw(rng: CounterRng, kind: str, dim: int, mode: str):
    """Input `kind` of one sample from as many of rng's next words as its reader reads."""
    need, read = _reader(kind, dim, mode)
    return read(rng._u64s(need), 0, 0, ())[0]


# ---------------------------------------------------------------------------
# law inputs

#: a join point's views, in the order a `join` word or a `cycle` index picks them
VIEW_KINDS = ("inl", "inr", "glue")


def _recipes(dim: int, mode: str) -> dict:
    """kind -> (need, read) for the values decoded from their words alone, in Python:
    read(words, pos, i, drawn) is the value from need words from pos, and the position
    past them.  `glue` is a glue point's blocks (c u, s v), which `_join_points` joins."""
    m, exact = point_words(dim, mode), mode == "exact"
    arc, n = 2 * m + quarter_words(mode), 2 * dim if exact else dim

    def point(words, pos, i, drawn):
        return point_of(words[pos:pos + m], dim, mode), pos + m

    def element(words, pos, i, drawn):
        x = words[pos:pos + n]
        return (_lifted_of(x) if exact else tuple(_floats_of(x))), pos + n

    def arc_of(words, pos):     # an arc's endpoints u, v and its pair cs
        u = point_of(words[pos:pos + m], dim, mode)
        v = point_of(words[pos + m:pos + 2 * m], dim, mode)
        return u, v, quarter_of(words[pos + 2 * m:pos + arc], mode)

    def arc_input(words, pos, i, drawn):
        u, v, cs = arc_of(words, pos)
        return (u, v) + tuple(cs), pos + arc

    def glue(words, pos, i, drawn):
        return glue_blocks(*arc_of(words, pos)), pos + arc

    return {"element": (n, element), "point": (m, point), "arc": (arc, arc_input),
            "glue": (arc, glue)}


def _compiled(read, need: int, name: str):
    """A float recipe traced on need words into one straight-line reader, as
    `cdalg._traced_kernel` traces the product: the recipe's float operations in its
    order, each value it uses more than once computed once, and nothing called."""
    from .cdalg import _Traced, _straight_line      # here: cdalg imports checks, which imports us

    tape, negs = {}, {}
    words = tuple(_Traced(f"w{j}", tape, negs) for j in range(need))
    pos = _Traced("pos", tape, negs)
    value, used = read(words, 0, 0, ())
    return _straight_line("read(words, pos, i, drawn)", [(words, f"words[pos:pos + {need}]")],
                          (value, pos + used), tape, f"<sampling traced reader, {name}>")


@cache
def _decoder(kind: str, dim: int, mode: str) -> tuple:
    """A recipe's (need, read), compiled on its first use in float mode, from dimension 2
    to COMPILED_MAX_DIM (at dimension 1 a point is a sign, read off a word's value)."""
    need, read = _recipes(dim, mode)[kind]
    if mode == "float" and 1 < dim <= COMPILED_MAX_DIM:
        read = _compiled(read, need, f"{kind}, dim {dim}")
    return need, read


@cache
def _reader(kind: str, dim: int, mode: str) -> tuple:
    """(need, read) for input kind in R^dim, any kind but `far`: read(words, pos, i, drawn)
    is sample i's input after those drawn, from at most need words from pos, and the
    position past them.  `element`, `point` and `arc` are their decoders; `corner` at
    i < 2 is +-e_0; the join point kinds are `_join_points`."""
    if kind in ("element", "point", "arc"):
        return _decoder(kind, dim, mode)
    if kind == "corner":
        m, point = _decoder("point", dim, mode)

        def corner(words, pos, i, drawn):
            if i < 2:
                return SpherePoint.basis(dim, 0, 1 - 2 * i), pos
            x, pos = point(words, pos, i, drawn)
            return SpherePoint(tuple(x)), pos
        return m, corner
    return _join_points(kind, dim, mode)


def _join_points(kind: str, dim: int, mode: str) -> tuple:
    """(need, read) for a join point kind: a view of VIEW_KINDS, `join`, whose first word
    picks the view, or `cycle`, whose sample i takes view i % 3.  Every drawn join point
    is built here, once: from the glue decoder's blocks, or from a point and a zero block."""
    if kind not in VIEW_KINDS + ("join", "cycle"):
        raise KeyError(kind)
    m, point = _decoder("point", dim, mode) if kind != "glue" else (0, None)
    arc, glue = _decoder("glue", dim, mode) if kind not in ("inl", "inr") else (m, None)
    exact, picked = mode == "exact", kind == "join"
    zeros = (0 if exact else 0.0,) * dim
    fixed = VIEW_KINDS.index(kind) if kind in VIEW_KINDS else None

    def read(words, pos, i, drawn):
        if picked:
            view, pos = words[pos] % 3, pos + 1
        else:
            view = i % 3 if fixed is None else fixed
        if view == 2:
            (left, right), pos = glue(words, pos, i, drawn)
        else:
            x, pos = point(words, pos, i, drawn)
            zero = Lifted(zeros, x.den) if exact else zeros
            left, right = (x, zero) if view == 0 else (zero, x)
        return JoinPoint(left, right), pos

    return (1 + arc if picked else arc), read


def _step_on(words: list, state: int, end: int):
    """Extend words, the first words of the generator at state, to its first end words."""
    words += _steps((state + len(words) * _GAMMA) & _MASK, end - len(words))


def _far(dim: int, mode: str, tolerance: float, start: int) -> tuple:
    """(need, read) for `far`: a point redrawn, from sample i's words stepped on from state
    start + i, until it differs from drawn[-1]: beyond tolerance in float mode, at all in exact."""
    m, point = _reader("point", dim, mode)
    exact = mode == "exact"

    def read(words, pos, i, drawn):
        w1 = drawn[-1]
        while True:
            if pos + m > len(words):
                _step_on(words, start + i, pos + m)
            w, pos = point(words, pos, i, drawn)
            if (any(x * w.den != y * w1.den for x, y in zip(w1.nums, w.nums)) if exact
                    else any(abs(x - y) > tolerance for x, y in zip(w1, w))):
                return w, pos
    return m, read


def law_samples(seed: int, suite: str, samples: int, kinds: tuple, dim: int, mode: str,
                tolerance: float):
    """The input tuples, of the given kinds in R^dim, of a law's samples 0, 1, ... in turn,
    read from the words of CounterRng(seed, suite, i): words 0..k-1, k the sum of the most
    each kind reads (at most LANE_WORDS), from one `_lane_words` pass per chunk of
    LANE_WORDS // k samples, made at its first sample; any further words by stepping."""
    start = _start(seed, suite, 0)
    readers = [_far(dim, mode, tolerance, start) if kind == "far" else _reader(kind, dim, mode)
               for kind in kinds]
    k = min(sum(need for need, _ in readers), LANE_WORDS)
    chunk = LANE_WORDS // (k or 1)
    for lo in range(0, samples, chunk):
        count = min(chunk, samples - lo)
        words = _lane_words((start + lo) & _MASK, count, k)
        for i in range(lo, lo + count):
            row, pos, drawn = words[i - lo::count].tolist(), 0, []
            for need, read in readers:
                if pos + need > len(row):     # after a far redraw, or past a capped k
                    _step_on(row, start + i, pos + need)
                x, pos = read(row, pos, i, drawn)
                drawn.append(x)
            yield tuple(drawn)

