"""Cayley-Dickson algebra tower.

Level n is the algebra of dimension 2^n over the reals: n = 0, 1, 2, 3, 4
give the reals, complexes, quaternions, octonions and sedenions.  Each
level doubles the previous one with

    (a, b) (c, d) = (ac - d b*,  a* d + c b)
    (a, b)*       = (a*, -b)
    1             = (1, 0)

taken literally, so the induced quaternion basis satisfies e1 e2 = -e3
(the mirror of the textbook orientation; every law checked here is
orientation-independent).  Coefficients are exact rationals or floats
(levels are capped at 5).

Basis products satisfy e_i e_j = +-e_(i xor j) at every level, so exact
multiplication is one loop over a per-level sign table, built on first use
from the doubling rule and skipping zero coefficients.  Exact operands are
lifted to integer numerators over their common denominator, multiplied as
ints and divided back once; all-int operands give ints, and any Fraction
operand gives Fractions, as the recursion does.  Float operands keep the
recursion (`_mul_recursive`): float addition does not associate, so the
summation order is part of the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm
from typing import Optional, Sequence

from .checks import compare, max_abs_diff, run_laws
from .errors import InvariantViolation, NotInvertibleError, UsageError
from .sampling import rand_coeffs
from .spheremodel import is_exact

MAX_LEVEL = 5
STRUCTURED_CAP = 6000   # structured inputs scanned per ladder law

# The property ladder: which laws are expected to hold at each level.
_LADDER = {
    "realness": lambda level: level == 0,
    "commutativity": lambda level: level <= 1,
    "associativity": lambda level: level <= 2,
    "alternativity": lambda level: level <= 3,
    "nicely-normed": lambda level: True,
    "norm-multiplicativity": lambda level: level <= 3,
}


# ---------------------------------------------------------------------------
# kernel on raw coefficient tuples


def conj_coeffs(a: tuple) -> tuple:
    # (a, b)* = (a*, -b) unrolled: negate every coefficient except the real one
    return (a[0],) + tuple(-c for c in a[1:])


@cache
def _sign_table(n: int) -> tuple:
    """Row i, entry j is True when e_i e_j = -e_(i xor j) at dimension n.

    Built by the doubling rule from the half-size table: with h = n/2,
    e_i = (e_i, 0) and e_(h+i) = (0, e_i), the four blocks are e_i e_j,
    e_i* e_j, e_j e_i and -e_j e_i*, and e_i* = -e_i except for e_0.
    """
    if n == 1:
        return ((False,),)
    h = n // 2
    half = _sign_table(h)
    top = tuple(row + tuple(neg != (i > 0) for neg in row)
                for i, row in enumerate(half))
    bottom = tuple(tuple(half[j][i] for j in range(h))
                   + tuple(half[j][i] == (i > 0) for j in range(h))
                   for i in range(h))
    return top + bottom


_INT = frozenset((int,))
_EXACT = frozenset((int, Fraction))


def _mul_table(a, b) -> tuple:
    """Product of int coefficient sequences through the sign table."""
    n = len(a)
    signs = _sign_table(n)
    out = [0] * n
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            row = signs[i]
            for j, y in terms:
                if row[j]:
                    out[i ^ j] -= x * y
                else:
                    out[i ^ j] += x * y
    return tuple(out)


def lift(a: tuple):
    """Integer numerators of `a` over their least common denominator."""
    d = lcm(*(c.denominator for c in a))
    return [c.numerator * (d // c.denominator) for c in a], d


def mul_coeffs(a: tuple, b: tuple) -> tuple:
    """Product of two coefficient tuples of one level; the path follows the scalar types."""
    if type(a[0]) is float:   # float mode, routed before the type scan
        return _mul_recursive(a, b)
    kinds = {*map(type, a), *map(type, b)}
    if kinds <= _INT:
        return _mul_table(a, b)
    if kinds <= _EXACT:
        na, da = lift(a)
        nb, db = lift(b)
        d = da * db
        return tuple(Fraction(c, d) for c in _mul_table(na, nb))
    return _mul_recursive(a, b)


def _mul_recursive(a: tuple, b: tuple) -> tuple:
    """The doubling formula applied recursively; the float kernel."""
    n = len(a)
    if n == 1:
        return (a[0] * b[0],)
    if n == 2:
        a0, a1 = a
        c0, c1 = b
        return (a0 * c0 - c1 * a1, a0 * c1 + c0 * a1)
    h = n // 2
    p, q = a[:h], a[h:]
    r, w = b[:h], b[h:]
    left = _mul_recursive(p, r)
    sub = _mul_recursive(w, conj_coeffs(q))
    right = _mul_recursive(conj_coeffs(p), w)
    add = _mul_recursive(r, q)
    return (tuple(x - y for x, y in zip(left, sub))
            + tuple(x + y for x, y in zip(right, add)))


def norm_coeffs(a: tuple):
    """Sum of squared coefficients; equals the real part of a a* at every level."""
    return sum(c * c for c in a)


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True)
class CDElement:
    """One element of the level-n algebra: 2^n coefficients, e0 first."""

    level: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != 1 << self.level:
            raise UsageError(
                f"level {self.level} needs {1 << self.level} coefficients, "
                f"got {len(self.coeffs)}")

    @classmethod
    def from_coeffs(cls, coeffs: Sequence) -> "CDElement":
        coeffs = tuple(coeffs)
        n = len(coeffs)
        if n == 0 or n & (n - 1):
            raise UsageError("coefficient count must be a power of two")
        return cls(n.bit_length() - 1, coeffs)

    @classmethod
    def zero(cls, level: int) -> "CDElement":
        return cls(level, (Fraction(0),) * (1 << level))

    @classmethod
    def one(cls, level: int) -> "CDElement":
        return cls.basis(level, 0)

    @classmethod
    def basis(cls, level: int, i: int, sign: int = 1) -> "CDElement":
        c = [Fraction(0)] * (1 << level)
        c[i] = Fraction(sign)
        return cls(level, tuple(c))

    def _require_same_level(self, other: "CDElement"):
        if self.level != other.level:
            raise UsageError(f"level mismatch: {self.level} vs {other.level}")

    def __add__(self, other: "CDElement") -> "CDElement":
        self._require_same_level(other)
        return CDElement(self.level, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CDElement") -> "CDElement":
        self._require_same_level(other)
        return CDElement(self.level, tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CDElement":
        return CDElement(self.level, tuple(-x for x in self.coeffs))

    def __mul__(self, other: "CDElement") -> "CDElement":
        return cd_mul(self, other)

    def conj(self) -> "CDElement":
        return cd_conj(self)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def scale(self, s) -> "CDElement":
        return CDElement(self.level, tuple(s * c for c in self.coeffs))


def cd_mul(a: CDElement, b: CDElement) -> CDElement:
    a._require_same_level(b)
    return CDElement(a.level, mul_coeffs(a.coeffs, b.coeffs))


def cd_conj(a: CDElement) -> CDElement:
    return CDElement(a.level, conj_coeffs(a.coeffs))


def cd_norm(a: CDElement):
    """The norm a a*: returns its real part after asserting the product is real.

    The product a a* must match the coefficient-square sum exactly (or to
    rounding in float mode); a mismatch means the kernel itself is broken.
    """
    prod = mul_coeffs(a.coeffs, conj_coeffs(a.coeffs))
    sumsq = norm_coeffs(a.coeffs)
    if is_exact(a.coeffs):
        if any(prod[1:]) or prod[0] != sumsq:
            raise InvariantViolation(f"a a* is not real at level {a.level}: {prod}")
    else:
        eps = 1e-9 * max(1.0, sumsq)
        if any(abs(c) > eps for c in prod[1:]) or abs(prod[0] - sumsq) > eps:
            raise InvariantViolation(f"a a* is not real at level {a.level}: {prod}")
    return prod[0]


def cd_inverse(a: CDElement) -> CDElement:
    """a^-1 = a* / (a a*).  Defined whenever the norm is nonzero; the inverse
    law itself may fail at level >= 4, which the law suite reports."""
    n = cd_norm(a)
    if n == 0:
        raise NotInvertibleError("zero norm: not invertible")
    return CDElement(a.level, tuple(c / n for c in conj_coeffs(a.coeffs)))


def associator(a: CDElement, b: CDElement, c: CDElement) -> CDElement:
    a._require_same_level(b)
    a._require_same_level(c)
    return (a * b) * c - a * (b * c)


def commutator(a: CDElement, b: CDElement) -> CDElement:
    a._require_same_level(b)
    return a * b - b * a


# ---------------------------------------------------------------------------
# structured inputs: signed basis vectors, then signed two-term sums


def _structured_elements(level: int) -> tuple:
    n = 1 << level
    singles = []
    for i in range(n):
        for s in (1, -1):
            c = [0] * n
            c[i] = s
            singles.append(tuple(c))
    pairs = []
    for i, j in combinations(range(n), 2):
        for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            c = [0] * n
            c[i] = si
            c[j] = sj
            pairs.append(tuple(c))
    return tuple(singles), tuple(pairs)


def structured_tuples(level: int, arity: int, cap: int):
    """Deterministic witness-search stream.

    Tuples are graded by total term count and emitted grade by grade;
    within a grade, slots holding two-term sums come first and ties break
    lexicographically.  The stream stops after `cap` tuples; callers fall
    back to random search beyond that.
    """
    singles, pairs = _structured_elements(level)
    pools = (singles, pairs)
    emitted = 0
    for grade in range(arity, 2 * arity + 1):
        for pattern in _compositions(arity, grade):
            stack = [()]
            for slot in pattern:
                pool = pools[slot - 1]
                stack = [t + (e,) for t in stack for e in pool]
                if len(stack) > cap - emitted:
                    # keep only what can still be emitted; order is preserved
                    stack = stack[:cap - emitted + 1]
            for tup in stack:
                yield tup
                emitted += 1
                if emitted >= cap:
                    return


def _compositions(arity: int, grade: int):
    """Slot complexity patterns (1 = single, 2 = pair sum), heavier slots first."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        for c in (2, 1):
            if c <= remaining:
                rec(prefix + [c], remaining - c, slots - 1)

    rec([], grade, arity)
    return out


# ---------------------------------------------------------------------------
# the law suite (the ladder laws need no context)


def _eval_realness(_, inputs):
    (a,) = inputs
    return compare(conj_coeffs(a), a)


def _eval_commutativity(_, inputs):
    a, b = inputs
    return compare(mul_coeffs(a, b), mul_coeffs(b, a))


def _eval_associativity(_, inputs):
    a, b, c = inputs
    return compare(mul_coeffs(mul_coeffs(a, b), c), mul_coeffs(a, mul_coeffs(b, c)))


def _eval_alternativity(_, inputs):
    x, y = inputs
    xy = mul_coeffs(x, y)
    lhs1 = mul_coeffs(mul_coeffs(x, x), y)
    rhs1 = mul_coeffs(x, xy)
    r1 = max_abs_diff(lhs1, rhs1)
    if r1 > 0:
        return r1, lhs1, rhs1
    return compare(mul_coeffs(xy, y), mul_coeffs(x, mul_coeffs(y, y)))


def _eval_nicely_normed(_, inputs):
    (a,) = inputs
    # (i) a + a* is real: non-real coefficients of the sum must vanish
    tail = tuple(c + d for c, d in zip(a[1:], conj_coeffs(a)[1:]))
    worst = max((abs(c) for c in tail), default=0)
    if worst > 0:
        return worst, tail, tuple(0 * c for c in tail)
    # (ii) a a* = a* a
    lhs = mul_coeffs(a, conj_coeffs(a))
    rhs = mul_coeffs(conj_coeffs(a), a)
    r = max_abs_diff(lhs, rhs)
    if r > 0:
        return r, lhs, rhs
    # (iii) a a* > 0 for nonzero a
    if any(a) and lhs[0] <= 0:
        return 1, lhs[0], "positive"
    return 0, lhs, rhs


def _eval_norm_multiplicativity(_, inputs):
    a, b = inputs
    lhs = norm_coeffs(mul_coeffs(a, b))
    rhs = norm_coeffs(a) * norm_coeffs(b)
    d = lhs - rhs
    if d < 0:
        d = -d
    return d, (lhs,), (rhs,)


LADDER_LAWS = (
    ("realness", _eval_realness, 1),
    ("commutativity", _eval_commutativity, 2),
    ("associativity", _eval_associativity, 3),
    ("alternativity", _eval_alternativity, 2),
    ("nicely-normed", _eval_nicely_normed, 1),
    ("norm-multiplicativity", _eval_norm_multiplicativity, 2),
)


def law_suite(level: int,
              mode: str = "exact",
              samples: int = 10000,
              seed: int = 0,
              *,
              tolerance: float = 1e-9) -> list:
    """Check the whole property ladder at one level.

    Returns one report per law.  Expected failures (e.g. associativity at
    level 3) are marked expected and do not count against the run.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise UsageError(f"level must be within 0..{MAX_LEVEL}")
    n = 1 << level
    return run_laws(
        LADDER_LAWS, f"level-{level}", None,
        structured=lambda arity: structured_tuples(level, arity, STRUCTURED_CAP),
        draw=lambda rng, arity, i: tuple(rand_coeffs(rng, n, mode) for _ in range(arity)),
        suite=lambda law: f"cdalg/{law}/level-{level}/{mode}",
        expect=lambda law: _LADDER[law](level), samples=samples, seed=seed,
        mode=mode, tolerance=tolerance)


# ---------------------------------------------------------------------------
# zero divisors


def zero_divisor_search(level: int, mode: str = "exact") -> Optional[tuple]:
    """First pair of nonzero two-term sums with exactly zero product.

    Scans (e_i +/- e_j)(e_k +/- e_l) in lexicographic order over indices
    and signs.  Returns None when the whole family multiplies without a
    zero (levels <= 3).  In float mode the witness pair is scaled to unit
    norm for reporting.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise UsageError(f"level must be within 0..{MAX_LEVEL}")
    _, pairs = _structured_elements(level)
    for a in pairs:
        for b in pairs:
            if not any(mul_coeffs(a, b)):
                if mode == "float":
                    scale = (1 / norm_coeffs(a)) ** 0.5
                    a = tuple(float(c) * scale for c in a)
                    b = tuple(float(c) * scale for c in b)
                    return (CDElement(level, a), CDElement(level, b))
                return (CDElement(level, tuple(Fraction(c) for c in a)),
                        CDElement(level, tuple(Fraction(c) for c in b)))
    return None
