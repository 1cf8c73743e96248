"""Deterministic sample generation.

Every random draw is made from a counter-based generator keyed by
(seed, suite id, sample index), so sample i of a suite depends on its
index alone, not on the samples drawn before it.  Exact-mode
samples are rationals with bounded numerators and denominators; sphere
points are generated through the rational parametrization
y -> ((1 - |y|^2) / (1 + |y|^2), 2y / (1 + |y|^2)), which lands exactly on
the unit sphere.  Exact sphere points and quarter-circle pairs evaluate
that map on integers and return the `Lifted` values the suites draw
(`rand_point`, `rand_quarter`), with the draws, order and values of the
Fraction formulas; `rand_unit` and `rand_quarter_pair` give Fractions.  One integer draw
(`rand_lifted`) gives both the ladder's exact samples and the sphere points' source vectors.
Every point and coefficient tuple draws all its coordinates in one call
(`CounterRng.uniforms` for floats, `CounterRng.randints` for the
numerators and denominators of rationals), which steps the generator in
one loop over a local state; `next_u64` takes the same step once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .spheremodel import Lifted, _sum_squares

_MASK = (1 << 64) - 1

#: bound on numerators/denominators of random rationals and on random floats
MAGNITUDE = 10


@cache   # hashed once per suite id, not once per sample
def _suite_key(suite: str) -> int:
    import hashlib      # here, not at import: it loads OpenSSL, and --version draws no sample
    return int.from_bytes(hashlib.sha256(suite.encode()).digest()[:8], "big")


class CounterRng:
    """Small splitmix64 stream keyed by (seed, suite, index).

    Pure integer arithmetic: reproducible across platforms and immune to
    hash randomization.
    """

    def __init__(self, seed: int, suite: str, index: int):
        state = (seed & _MASK) ^ _suite_key(suite)
        state = (state * 0x9E3779B97F4A7C15 + index + 1) & _MASK
        self._state = state

    def _u64s(self, n: int) -> list:
        """The next n outputs: the splitmix64 step, in one loop over a local state."""
        state, out = self._state, [0] * n
        for k in range(n):
            state = (state + 0x9E3779B97F4A7C15) & _MASK
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            out[k] = z ^ (z >> 31)
        self._state = state
        return out

    def next_u64(self) -> int:
        return self._u64s(1)[0]

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]. Spans here are tiny; modulo bias is negligible."""
        return lo + self.next_u64() % (hi - lo + 1)

    def randints(self, bounds) -> list:
        """One `randint(lo, hi)` for each (lo, hi) of bounds, in turn, in one call."""
        return [lo + u % (hi - lo + 1) for (lo, hi), u in zip(bounds, self._u64s(len(bounds)))]

    def uniform(self, lo: float, hi: float) -> float:
        return self.uniforms(lo, hi, 1)[0]

    def uniforms(self, lo: float, hi: float, n: int) -> tuple:
        """n draws of `uniform`, in one call."""
        span = hi - lo
        return tuple([lo + span * (u / 2.0**64) for u in self._u64s(n)])

    def sign(self) -> int:
        return 1 if self.next_u64() & 1 else -1


def _rational_draws(rng: CounterRng, n: int) -> list:
    """Numerator, denominator, numerator, ... of n random rationals, in one call."""
    return rng.randints(((-MAGNITUDE, MAGNITUDE), (1, MAGNITUDE)) * n)


def rand_coeffs(rng: CounterRng, n: int, mode: str) -> tuple:
    if mode == "exact":
        ints = _rational_draws(rng, n)
        return tuple([Fraction(a, d) for a, d in zip(ints[::2], ints[1::2])])
    return rng.uniforms(-MAGNITUDE, MAGNITUDE, n)


def rand_lifted(rng: CounterRng, n: int) -> Lifted:
    """Exact `rand_coeffs` as a `Lifted`, from the same draws: the numerators
    a_i L / d_i over L = lcm(d_i), with no Fraction built."""
    ints = _rational_draws(rng, n)
    dens = ints[1::2]
    lcm = math.lcm(*dens)
    return Lifted(tuple([a * (lcm // d) for a, d in zip(ints[::2], dens)]), lcm)


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
    if dim == 1:
        sign = rng.sign()
        return Lifted((sign,), 1) if mode == "exact" else (sign * 1.0,)
    if mode != "exact":
        return stereographic(rng.uniforms(-MAGNITUDE, MAGNITUDE, dim - 1))
    y = rand_lifted(rng, dim - 1)
    return _stereographic_ints(y.nums, y.den)


def _stereographic_ints(nums, den) -> Lifted:
    """`stereographic` at y = nums / den, on integers: with S = sum n_i^2 the point
    is (den^2 - S, 2 n_i den) over den^2 + S."""
    d2 = den * den
    s = sum(a * a for a in nums)
    return Lifted((d2 - s,) + tuple([2 * a * den for a in nums]), d2 + s)


def rand_quarter_pair(rng: CounterRng, mode: str) -> tuple:
    """`rand_quarter` as a pair: Fractions in exact mode."""
    return tuple(rand_quarter(rng, mode))


def rand_quarter(rng: CounterRng, mode: str):
    """Random (c, s) with c, s > 0 and c^2 + s^2 = 1, a `Lifted` pair in exact mode:
    a genuine glue arc point, not an endpoint.  Exact mode draws t = k / den and
    returns the quarter-circle point at t (`quarter_point`)."""
    if mode == "exact":
        den = rng.randint(2, 4 * MAGNITUDE)
        return _stereographic_ints((rng.randint(1, den - 1),), den)
    return stereographic((0.5 * rng.uniform(0.0, 1.0) + 0.25,))


def quarter_point(k: int, den: int) -> tuple:
    """The quarter-circle point ((1 - t^2) / (1 + t^2), 2t / (1 + t^2)) at t = k / den,
    computed on integers over den^2 + k^2."""
    return tuple(_stereographic_ints((k,), den))


def quarter_grid(n: int) -> list:
    """n+1 exact quarter-circle pairs from t = 0/n ... n/n, endpoints included."""
    return [quarter_point(k, n) for k in range(n + 1)]
