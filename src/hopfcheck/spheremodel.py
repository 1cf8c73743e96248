"""Coordinate models of spheres, suspensions and joins.

A point of join(X, Y) is stored directly in embedded coordinates: a pair
(p, q) of ambient vectors with |p|^2 + |q|^2 = 1.  The constructor view
(inl / inr / glue) is derived from the pair, never stored, which keeps
every comparison exact in rational mode.  The suspension of X is the
special case join(S^0, X), realized as a unit vector whose first
coordinate plays the suspension axis: the poles are N = (1, 0, ...) and
S = (-1, 0, ...), and the meridian through a base point a is
theta -> (cos theta, sin theta * a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import UsageError

FLOAT_POINT_EPS = 1e-12   # unit-norm slack for float-mode points
FLOAT_VIEW_EPS = 1e-12    # a factor with norm below this counts as zero


def is_exact(coords) -> bool:
    return not any(isinstance(c, float) for c in coords)


def _check_unit(coords, what: str):
    total = sum(c * c for c in coords)
    if is_exact(coords):
        if total != 1:
            raise UsageError(f"{what} is not on the unit sphere: |x|^2 = {total}")
    elif abs(total - 1) > FLOAT_POINT_EPS:
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
        c = [Fraction(0)] * dim
        c[i] = Fraction(sign)
        return cls(tuple(c))

    def __neg__(self) -> "SpherePoint":
        return SpherePoint(tuple(-c for c in self.coords))


@dataclass(frozen=True)
class SuspPoint:
    """Point of the suspension of a sphere: first coordinate is the axis."""

    coords: tuple

    def __post_init__(self):
        if len(self.coords) < 1:
            raise UsageError("suspension point needs at least one coordinate")
        _check_unit(self.coords, "suspension point")

    @property
    def base_dim(self) -> int:
        return len(self.coords) - 1

    @classmethod
    def north(cls, base_dim: int) -> "SuspPoint":
        return cls((Fraction(1),) + (Fraction(0),) * base_dim)

    @classmethod
    def south(cls, base_dim: int) -> "SuspPoint":
        return cls((Fraction(-1),) + (Fraction(0),) * base_dim)

    @classmethod
    def meridian(cls, a: SpherePoint, c, s) -> "SuspPoint":
        """The point (c, s*a) with (c, s) on the full circle c^2 + s^2 = 1."""
        return cls((c,) + tuple(s * x for x in a.coords))


def susp_neg(x: SuspPoint) -> SuspPoint:
    """The antipode: swaps the poles and reverses each meridian through -a."""
    return SuspPoint(tuple(-c for c in x.coords))


def susp_conj(x: SuspPoint) -> SuspPoint:
    """Fixes both poles and sends the meridian through a to the one through -a."""
    return SuspPoint((x.coords[0],) + tuple(-c for c in x.coords[1:]))


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
    return JoinPoint(tuple(c * x for x in u.coords), tuple(s * y for y in v.coords))


def join_view(x: JoinPoint) -> JoinView:
    """Recover the constructor view from the embedded coordinates."""
    p2 = sum(c * c for c in x.left)
    q2 = sum(c * c for c in x.right)
    if is_exact(x.flatten()):
        if q2 == 0:
            return JoinView("inl", u=SpherePoint(x.left))
        if p2 == 0:
            return JoinView("inr", v=SpherePoint(x.right))
        c = exact_sqrt(p2)
        s = exact_sqrt(q2)
    else:
        c = math.sqrt(p2)
        s = math.sqrt(q2)
        if s < FLOAT_VIEW_EPS:
            return JoinView("inl", u=SpherePoint(tuple(v / c for v in x.left)))
        if c < FLOAT_VIEW_EPS:
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
    images = []
    for i in range(dim):
        e = [Fraction(0)] * dim
        e[i] = Fraction(1)
        images.append(tuple(f(tuple(e))))
    for i in range(dim):
        for j in range(i, dim):
            dot = sum(a * b for a, b in zip(images[i], images[j]))
            want = 1 if i == j else 0
            bad = (dot != want) if is_exact(images[i] + images[j]) \
                else abs(dot - want) > 1e-9
            if bad:
                raise UsageError(f"{what} is not norm-preserving on the probe basis")


# --- the suspension as the join with S^0 -----------------------------------


def susp_to_join(x: SuspPoint) -> JoinPoint:
    """View a suspension point inside join(S^0, X): ((x0), tail)."""
    return JoinPoint((x.coords[0],), x.coords[1:])


def join_to_susp(x: JoinPoint) -> SuspPoint:
    if len(x.left) != 1:
        raise UsageError("left factor must be one-dimensional")
    return SuspPoint(x.left + x.right)
