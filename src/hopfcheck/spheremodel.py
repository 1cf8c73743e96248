"""Coordinate models of spheres, suspensions and joins.

A point of join(X, Y) is stored directly in embedded coordinates: a pair
(p, q) of ambient vectors with |p|^2 + |q|^2 = 1.  The constructor view
(inl / inr / glue) is derived from the pair, never stored, which keeps
every comparison exact in rational mode.  The suspension of S^n is
join(S^0, S^n), realized as S^(n+1): a `SpherePoint` whose first
coordinate is the suspension axis, with poles N = (1, 0, ...) and
S = (-1, 0, ...) and the meridian through a base point a
theta -> (cos theta, sin theta * a).  The Cayley-Dickson conjugation fixes
both poles and sends the meridian through a to the one through -a;
negation swaps the poles.  `hopf.hopf_map` lands in a `SpherePoint`.

Every point is checked for unit norm when it is built.  Exact
coordinates are lifted to integer numerators over a common denominator
(`lift`), so the check compares integers; float sums of squares and the
orthonormality probes' dot products run left to right, so float results
do not depend on the Python version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import UsageError

FLOAT_POINT_EPS = 1e-12   # unit-norm slack for float-mode points
FLOAT_VIEW_EPS = 1e-12    # a float block with norm up to this counts as zero
_EXACT = frozenset((int, Fraction))


def is_exact(coords: tuple) -> bool:
    # a float first coordinate settles it: float points skip the scan
    if coords and type(coords[0]) is float:
        return False
    return not any(isinstance(c, float) for c in coords)


def lift(a: tuple):
    """Integer numerators of exact `a` over their least common denominator."""
    d = math.lcm(*(c.denominator for c in a))
    return [c.numerator * (d // c.denominator) for c in a], d


def basis_coords(dim: int, i: int, scalar) -> tuple:
    """The coordinates scalar * e_i of R^dim, zeros of scalar's type (+-e_i for scalar +-1)."""
    zero = type(scalar)(0)
    return (zero,) * i + (scalar,) + (zero,) * (dim - 1 - i)


def _sum_squares(a):
    # left to right: Python 3.12 made sum() of floats compensated, and float
    # reports must not depend on the Python version
    total = 0
    for c in a:
        total += c * c
    return total


def _dot(a, b):
    # left to right, as _sum_squares
    total = 0
    for x, y in zip(a, b):
        total += x * y
    return total


def norm_coeffs(a: tuple):
    """Sum of squared coefficients; equals the real part of a a* at every level.

    Exact operands holding a Fraction are lifted once and squared on
    integer numerators; the result is the same Fraction the direct sum
    gives.  Every other operand is summed left to right.
    """
    if a and type(a[0]) is not float:
        kinds = set(map(type, a))
        if Fraction in kinds and kinds <= _EXACT:
            n, d = lift(a)
            return Fraction(_sum_squares(n), d * d)
    return _sum_squares(a)


def _check_unit(coords, what: str):
    if is_exact(coords):
        n, d = lift(coords)
        if _sum_squares(n) != d * d:
            raise UsageError(
                f"{what} is not on the unit sphere: |x|^2 = {norm_coeffs(coords)}")
        return
    total = _sum_squares(coords)
    if not abs(total - 1) <= FLOAT_POINT_EPS:   # NaN and infinities fail too
        raise UsageError(f"{what} is off the unit sphere by {abs(total - 1):.3e}")


def exact_sqrt(x: Fraction) -> Fraction:
    """Square root of a rational, raising when it is irrational."""
    x = Fraction(x)
    if x < 0:
        raise UsageError("negative radicand")
    pn = math.isqrt(x.numerator)
    pd = math.isqrt(x.denominator)
    if pn * pn != x.numerator or pd * pd != x.denominator:
        raise UsageError(f"{x} has no rational square root")
    return Fraction(pn, pd)


@dataclass(frozen=True)
class SpherePoint:
    """Unit vector in a fixed ambient space."""

    coords: tuple

    def __post_init__(self):
        _check_unit(self.coords, "sphere point")

    def __iter__(self):
        return iter(self.coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @classmethod
    def basis(cls, dim: int, i: int, sign: int = 1) -> "SpherePoint":
        return cls(basis_coords(dim, i, Fraction(sign)))

    def __neg__(self) -> "SpherePoint":
        return SpherePoint(tuple(-c for c in self.coords))


@dataclass(frozen=True)
class JoinPoint:
    """Embedded point of join(X, Y): vectors (p, q) with |p|^2 + |q|^2 = 1.

    It iterates as its coordinates p + q, so laws compare and report it like a tuple.
    """

    left: tuple
    right: tuple

    def __post_init__(self):
        _check_unit(self.left + self.right, "join point")

    def __iter__(self):
        return iter(self.left + self.right)

    def flatten(self) -> tuple:
        return self.left + self.right


def block_dim_error(dim: int, *points: JoinPoint) -> UsageError:
    """The error for join points whose blocks do not all have dimension dim.
    Callers compare the block lengths inline: the check runs on every product."""
    got = "; ".join(f"{len(x.left)} and {len(x.right)}" for x in points)
    return UsageError(f"join point blocks must have dimension {dim}, got {got}")


@dataclass(frozen=True)
class JoinView:
    """Derived constructor view of a join point."""

    kind: str                      # "inl" | "inr" | "glue"
    u: Optional[SpherePoint] = None
    v: Optional[SpherePoint] = None
    c: object = None
    s: object = None


def _quarter_pair_ok(c, s) -> bool:
    if c < 0 or s < 0:
        return False
    total = c * c + s * s
    if isinstance(c, float) or isinstance(s, float):
        return abs(total - 1) <= FLOAT_POINT_EPS
    return total == 1


def join_embed(u: SpherePoint, v: SpherePoint, c, s) -> JoinPoint:
    """Embed factor points at arc parameter (c, s): the pair (c*u, s*v).

    (c, s) must lie on the closed quarter circle; (1, 0) gives inl(u) and
    (0, 1) gives inr(v).
    """
    if not _quarter_pair_ok(c, s):
        raise UsageError(f"({c}, {s}) is not on the quarter circle")
    return arc_point(u, v, c, s)


def arc_point(u, v, c, s) -> JoinPoint:
    """The glue-arc point (c*u, s*v) of coordinate sequences u, v, unchecked (c, s)."""
    return JoinPoint(tuple(c * x for x in u), tuple(s * y for y in v))


def zero_norm_bound(coords):
    """Squared norm at or below which a block of a join point with these coordinates
    is zero: exactly zero, or for floats a norm up to FLOAT_VIEW_EPS."""
    return 0 if is_exact(coords) else FLOAT_VIEW_EPS ** 2


def join_view(x: JoinPoint) -> JoinView:
    """Recover the constructor view from the embedded coordinates."""
    p2 = norm_coeffs(x.left)
    q2 = norm_coeffs(x.right)
    eps2 = zero_norm_bound(x.flatten())
    if eps2 == 0:
        if q2 <= eps2:
            return JoinView("inl", u=SpherePoint(x.left))
        if p2 <= eps2:
            return JoinView("inr", v=SpherePoint(x.right))
        c = exact_sqrt(p2)
        s = exact_sqrt(q2)
    else:
        c = math.sqrt(p2)
        s = math.sqrt(q2)
        if q2 <= eps2:
            return JoinView("inl", u=SpherePoint(tuple(v / c for v in x.left)))
        if p2 <= eps2:
            return JoinView("inr", v=SpherePoint(tuple(v / s for v in x.right)))
    return JoinView(
        "glue",
        u=SpherePoint(tuple(v / c for v in x.left)),
        v=SpherePoint(tuple(v / s for v in x.right)),
        c=c, s=s)


def join_functor(f: Callable, g: Callable, x: JoinPoint) -> JoinPoint:
    """Apply maps factorwise: (p, q) -> (f p, g q).

    f and g take and return raw coordinate tuples and must be linear and
    norm-preserving for the image to stay in the join; their images of the
    standard basis are probed for orthonormality.
    """
    _check_orthonormal(f, len(x.left), "left map")
    _check_orthonormal(g, len(x.right), "right map")
    return JoinPoint(tuple(f(x.left)), tuple(g(x.right)))


def _check_orthonormal(f: Callable, dim: int, what: str):
    images = [tuple(f(basis_coords(dim, i, Fraction(1)))) for i in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            dot = _dot(images[i], images[j])
            want = 1 if i == j else 0
            bad = (dot != want) if is_exact(images[i] + images[j]) \
                else abs(dot - want) > 1e-9
            if bad:
                raise UsageError(f"{what} is not norm-preserving on the probe basis")

