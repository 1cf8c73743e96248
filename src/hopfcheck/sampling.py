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
Fraction formulas; `rand_unit` and `rand_quarter_pair` give Fractions.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from functools import cache

from .spheremodel import Lifted, norm_coeffs

_MASK = (1 << 64) - 1

#: bound on numerators/denominators of random rationals and on random floats
MAGNITUDE = 10


@cache   # hashed once per suite id, not once per sample
def _suite_key(suite: str) -> int:
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

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]. Spans here are tiny; modulo bias is negligible."""
        return lo + self.next_u64() % (hi - lo + 1)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * (self.next_u64() / 2.0**64)

    def sign(self) -> int:
        return 1 if self.next_u64() & 1 else -1


def rand_fraction(rng: CounterRng) -> Fraction:
    return Fraction(rng.randint(-MAGNITUDE, MAGNITUDE), rng.randint(1, MAGNITUDE))


def rand_coeffs(rng: CounterRng, n: int, mode: str) -> tuple:
    if mode == "exact":
        return tuple(rand_fraction(rng) for _ in range(n))
    return tuple(rng.uniform(-MAGNITUDE, MAGNITUDE) for _ in range(n))


def stereographic(vec: tuple) -> tuple:
    """Map a vector in R^(d-1) to the unit sphere of R^d, exactly for rationals."""
    if not vec:
        raise ValueError("stereographic needs a source vector of dim >= 1")
    n2 = norm_coeffs(vec)
    denom = 1 + n2
    return ((1 - n2) / denom,) + tuple(2 * c / denom for c in vec)


def rand_unit(rng: CounterRng, dim: int, mode: str) -> tuple:
    """`rand_point` as a coordinate tuple: exactly unit Fractions in exact mode."""
    return tuple(rand_point(rng, dim, mode))


def rand_point(rng: CounterRng, dim: int, mode: str):
    """Random point on the unit sphere of R^dim: a `Lifted` in exact mode, floats in float mode.

    Exact mode draws y_i = a_i / d_i (numerator, then denominator, as
    rand_fraction does) and evaluates the stereographic map on the integer
    numerators a_i L / d_i over L = lcm(d_i).
    """
    if dim < 1:
        raise ValueError("ambient dimension must be >= 1")
    if dim == 1:
        sign = rng.sign()
        return Lifted((sign,), 1) if mode == "exact" else (sign * 1.0,)
    if mode != "exact":
        return stereographic(tuple(rng.uniform(-MAGNITUDE, MAGNITUDE) for _ in range(dim - 1)))
    drawn = [(rng.randint(-MAGNITUDE, MAGNITUDE), rng.randint(1, MAGNITUDE))
             for _ in range(dim - 1)]
    lcm = math.lcm(*(d for _, d in drawn))
    return _stereographic_ints([a * (lcm // d) for a, d in drawn], lcm)


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
