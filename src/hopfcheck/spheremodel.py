"""Coordinate models of spheres, suspensions and joins.

A point of join(X, Y) is stored directly in embedded coordinates: a pair
(p, q) of ambient vectors with |p|^2 + |q|^2 = 1.  The constructor view
(inl / inr / glue) is never stored: `joinmul.join_mul_syn` reads it off
the pair by its zero-block test, exact on exact points.  The suspension
of S^n is join(S^0, S^n), realized as S^(n+1): a `SpherePoint` whose first
coordinate is the suspension axis, with poles N = (1, 0, ...) and
S = (-1, 0, ...) and the meridian through a base point a
theta -> (cos theta, sin theta * a).  The Cayley-Dickson conjugation fixes
both poles and sends the meridian through a to the one through -a;
negation swaps the poles.  `hopf.hopf_map` lands in a `SpherePoint`.

Exact values of the sphere, H-space, join and fiber suites are `Lifted`:
integer numerators over one positive denominator.  Fractions are built only
for a witness, a report, or a library caller's Fraction tuples, which norms,
join products and the Hopf projection take as they are (`cdalg.mul_coeffs`
alone lifts them, per product).  A carrier's structured points are `Lifted`
in both modes, its unit in exact mode only; float samples are float tuples,
and no exact value becomes a float (the package's units are ints).
Every point is checked for unit norm when built: |n|^2 = d^2 on integers,
or a float sum of squares taken left to right (Python-version independent).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import UsageError

FLOAT_POINT_EPS = 1e-12   # unit-norm slack for float-mode points
FLOAT_VIEW_EPS = 1e-12    # a float block with norm up to this counts as zero


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


def _sum_squares(a, total=0):
    # left to right from total: Python 3.12 made sum() of floats compensated,
    # and float reports must not depend on the Python version
    for c in a:
        total += c * c
    return total


def norm_coeffs(a):
    """Sum of squared coefficients; equals the real part of a a* at every level.
    A `Lifted` gives the Fraction |n|^2 / d^2; a tuple is summed left to right in
    its own scalars."""
    if type(a) is Lifted:
        return Fraction(_sum_squares(a.nums), a.den * a.den)
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
    _check_float_norm(_sum_squares(coords), what)


def _check_float_norm(total, what: str):
    if not abs(total - 1) <= FLOAT_POINT_EPS:   # NaN and infinities fail too
        raise UsageError(f"{what} is off the unit sphere by {abs(total - 1):.3e}")


class _Point:
    """An immutable point: its fields are the subclass's __slots__, it compares and
    hashes by value, and assigning or deleting a field raises AttributeError.
    Subclasses store their fields through the slot descriptors' __set__ and call
    __post_init__, looked up on the class at every construction (a profiler may
    rebind it)."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SpherePoint(_Point):
    """Unit vector in a fixed ambient space."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple):
        _set_coords(self, coords)
        self.__post_init__()

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


class JoinPoint(_Point):
    """Embedded point of join(X, Y): vectors (p, q) with |p|^2 + |q|^2 = 1.

    The blocks are tuples or two `Lifted` over one denominator, else UsageError.
    It iterates as its coordinates p + q, so laws compare and report it like a tuple.
    """

    __slots__ = ("left", "right")

    def __init__(self, left: tuple, right: tuple):
        _set_left(self, left)
        _set_right(self, right)
        self.__post_init__()

    def __post_init__(self):
        left, right = self.left, self.right
        if type(left) is Lifted or type(right) is Lifted:
            if type(left) is not type(right) or left.den != right.den:
                raise UsageError("join point blocks must be tuples or Lifted over one denominator")
            if _sum_squares(right.nums, _sum_squares(left.nums)) != left.den * left.den:
                _check_unit(self.flatten(), "join point")    # raises, naming |x|^2
        elif left and type(left[0]) is float:   # one running sum over p, then q
            _check_float_norm(_sum_squares(right, _sum_squares(left)), "join point")
        else:
            _check_unit(left + right, "join point")

    def __iter__(self):
        return iter(self.flatten())

    def flatten(self):
        left, right = self.left, self.right
        if type(left) is not Lifted:
            return left + right
        return Lifted(left.nums + right.nums, left.den)


# the slot descriptors' setters: they skip the raising __setattr__, and cost
# less per point than object.__setattr__
_set_coords = SpherePoint.coords.__set__
_set_left, _set_right = JoinPoint.left.__set__, JoinPoint.right.__set__


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
    return JoinPoint(*glue_blocks(u, v, Lifted(*lift((c, s))) if type(u) is Lifted else (c, s)))


def glue_blocks(u, v, cs) -> tuple:
    """The blocks (c*u, s*v) of the glue-arc point at the pair cs = (c, s): two `Lifted`
    over cs.den * u.den * v.den for lifted u, v and cs, else tuples in their own scalars."""
    if type(u) is Lifted:
        (cn, sn), du, dv, d = cs.nums, u.den, v.den, cs.den * u.den * v.den
        return (Lifted(tuple([cn * dv * x for x in u.nums]), d),
                Lifted(tuple([sn * du * y for y in v.nums]), d))
    c, s = cs
    return tuple([c * x for x in u]), tuple([s * y for y in v])
