"""Deterministic sample generation.

Every random draw is made from a counter-based generator keyed by
(seed, suite id, sample index), so sample i of a suite depends on its
index alone, not on the samples drawn before it.  Exact-mode
samples are rationals with bounded numerators and denominators; sphere
points are generated through the rational parametrization
y -> ((1 - |y|^2) / (1 + |y|^2), 2y / (1 + |y|^2)), which lands exactly on
the unit sphere.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

_MASK = (1 << 64) - 1

#: bound on numerators/denominators of random rationals and on random floats
MAGNITUDE = 10


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


def rand_scalar(rng: CounterRng, mode: str):
    if mode == "exact":
        return rand_fraction(rng)
    return rng.uniform(-MAGNITUDE, MAGNITUDE)


def rand_coeffs(rng: CounterRng, n: int, mode: str) -> tuple:
    return tuple(rand_scalar(rng, mode) for _ in range(n))


def stereographic(vec: tuple) -> tuple:
    """Map a vector in R^(d-1) to the unit sphere of R^d, exactly for rationals."""
    if not vec:
        raise ValueError("stereographic needs a source vector of dim >= 1")
    n2 = sum(c * c for c in vec)
    denom = 1 + n2
    return ((1 - n2) / denom,) + tuple(2 * c / denom for c in vec)


def rand_unit(rng: CounterRng, dim: int, mode: str) -> tuple:
    """Random point on the unit sphere of R^dim (exactly unit in exact mode)."""
    if dim < 1:
        raise ValueError("ambient dimension must be >= 1")
    if dim == 1:
        one = Fraction(1) if mode == "exact" else 1.0
        return (rng.sign() * one,)
    if mode == "exact":
        vec = tuple(rand_fraction(rng) for _ in range(dim - 1))
    else:
        vec = tuple(rng.uniform(-MAGNITUDE, MAGNITUDE) for _ in range(dim - 1))
    return stereographic(vec)


def rand_quarter_pair(rng: CounterRng, mode: str) -> tuple:
    """Random (c, s) with c, s > 0 and c^2 + s^2 = 1.

    Both components are strictly positive, so the pair parameterizes a
    genuine glue arc point rather than an endpoint.
    """
    if mode == "exact":
        den = rng.randint(2, 4 * MAGNITUDE)
        t = Fraction(rng.randint(1, den - 1), den)
    else:
        t = 0.5 * rng.uniform(0.0, 1.0) + 0.25
    t2 = t * t
    return ((1 - t2) / (1 + t2), 2 * t / (1 + t2))


def quarter_grid(n: int) -> list:
    """n+1 exact quarter-circle pairs from t = 0/n ... n/n, endpoints included."""
    return [(lambda t: ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)))(Fraction(k, n))
            for k in range(n + 1)]
