"""Coordinate models of spheres, suspensions and joins.

A point of join(X, Y) is stored directly in embedded coordinates: a pair
(p, q) of ambient vectors with |p|^2 + |q|^2 = 1.  The constructor view
(inl / inr / glue) is never stored: `joinmul.join_mul_syn` reads it off
the pair by its zero-block test (`zero_norm_bound`), which keeps every
comparison exact in rational mode.  The suspension of S^n is
join(S^0, S^n), realized as S^(n+1): a `SpherePoint` whose first
coordinate is the suspension axis, with poles N = (1, 0, ...) and
S = (-1, 0, ...) and the meridian through a base point a
theta -> (cos theta, sin theta * a).  The Cayley-Dickson conjugation fixes
both poles and sends the meridian through a to the one through -a;
negation swaps the poles.  `hopf.hopf_map` lands in a `SpherePoint`.

Exact values of the sphere, H-space, join and fiber suites are `Lifted`:
integer numerators over one positive denominator.  Fractions are built only
for a witness, a report, or the result of a public function given them,
which lifts them once (`lifted`).  A carrier's structured points are `Lifted`
in both modes, its unit in exact mode only (a float-mode suite multiplies
float points by the unit's float form); float samples are float tuples.
Every point is checked for unit norm when built: |n|^2 = d^2 on integers,
or a float sum of squares taken left to right (Python-version independent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    return tuple([c.numerator * (d // c.denominator) for c in a]), d


class Lifted:
    """Exact coordinates nums[i] / den, ints over one positive int, never reassigned.
    Length, indexing and iteration (which builds Fractions, for reports) are those
    of the Fraction tuple; terms need not be lowest, so compare with `max_abs_diff`."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: tuple, den: int):
        self.nums = nums
        self.den = den

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, key):
        if type(key) is slice:
            return Lifted(self.nums[key], self.den)
        return Fraction(self.nums[key], self.den)

    def __iter__(self):
        d = self.den
        return (Fraction(n, d) for n in self.nums)


def lifted(x):
    """An exact tuple as a `Lifted`, a join point as two Lifted blocks over one denominator."""
    if type(x) is JoinPoint:
        if type(x.left) is not Lifted:
            (n, d), h = lift(x.left + x.right), len(x.left)
            x = JoinPoint(Lifted(n[:h], d), Lifted(n[h:], d))
        return x
    return x if type(x) is Lifted else Lifted(*lift(x))


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


def norm_coeffs(a):
    """Sum of squared coefficients; equals the real part of a a* at every level.
    A `Lifted` gives the Fraction |n|^2 / d^2, as do exact tuples holding a Fraction,
    lifted into that path; others are summed left to right."""
    if type(a) is Lifted:
        return Fraction(_sum_squares(a.nums), a.den * a.den)
    if a and type(a[0]) is not float:
        kinds = set(map(type, a))
        if Fraction in kinds and kinds <= _EXACT:
            return norm_coeffs(lifted(a))
    return _sum_squares(a)


def neg_coeffs(a):
    """-a, for a `Lifted` or a coordinate tuple."""
    if type(a) is Lifted:
        return Lifted(tuple([-n for n in a.nums]), a.den)
    return tuple([-c for c in a])


def _check_unit(coords, what: str):
    if type(coords) is Lifted or is_exact(coords):
        x = lifted(coords)
        if _sum_squares(x.nums) != x.den * x.den:
            raise UsageError(f"{what} is not on the unit sphere: |x|^2 = {norm_coeffs(x)}")
        return
    total = _sum_squares(coords)
    if not abs(total - 1) <= FLOAT_POINT_EPS:   # NaN and infinities fail too
        raise UsageError(f"{what} is off the unit sphere by {abs(total - 1):.3e}")


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
        return SpherePoint(neg_coeffs(self.coords))


@dataclass(frozen=True)
class JoinPoint:
    """Embedded point of join(X, Y): vectors (p, q) with |p|^2 + |q|^2 = 1.

    The blocks are tuples or two `Lifted` over one denominator.  It iterates as
    its coordinates p + q, so laws compare and report it like a tuple.
    """

    left: tuple
    right: tuple

    def __post_init__(self):
        left = self.left
        _check_unit(self.flatten() if type(left) is Lifted else left + self.right, "join point")

    def __iter__(self):
        return iter(self.flatten())

    def flatten(self):
        left, right = self.left, self.right
        if type(left) is not Lifted:
            return left + right
        return Lifted(left.nums + right.nums, left.den)


def block_dim_error(dim: int, *points: JoinPoint) -> UsageError:
    """The error for join points whose blocks do not all have dimension dim.
    Callers compare the block lengths inline: the check runs on every product."""
    got = "; ".join(f"{len(x.left)} and {len(x.right)}" for x in points)
    return UsageError(f"join point blocks must have dimension {dim}, got {got}")


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
    """The glue-arc point (c*u, s*v) of coordinate sequences u, v, unchecked (c, s);
    Lifted u and v give a lifted point."""
    if type(u) is Lifted:
        return lifted_arc(u, v, Lifted(*lift((c, s))))
    return JoinPoint(tuple([c * x for x in u]), tuple([s * y for y in v]))


def lifted_arc(u: Lifted, v: Lifted, cs: Lifted) -> JoinPoint:
    """`arc_point` of lifted u and v at the lifted pair cs, over cs.den * u.den * v.den."""
    (cn, sn), du, dv, d = cs.nums, u.den, v.den, cs.den * u.den * v.den
    return JoinPoint(Lifted(tuple([cn * dv * x for x in u.nums]), d),
                     Lifted(tuple([sn * du * y for y in v.nums]), d))


def zero_norm_bound(coords):
    """Squared norm at or below which a block of a join point with these coordinates
    is zero: exactly zero, or for floats a norm up to FLOAT_VIEW_EPS."""
    return 0 if is_exact(coords) else FLOAT_VIEW_EPS ** 2
