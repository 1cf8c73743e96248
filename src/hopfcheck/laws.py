"""Spheroid, imaginaroid and H-space law suites over concrete sphere instances.

A spheroid is a multiplicative unit sphere with conjugation and negation;
an imaginaroid is a sphere of imaginaries whose suspension carries the
multiplication.  The concrete instances here are the unit spheres of the
low Cayley-Dickson levels:

    base A = {}    -> susp A = S^0, level-0 (sign) multiplication
    base A = S^0   -> susp A = S^1, level-1 (complex) multiplication
    base A = S^2   -> susp A = S^3, level-2 (quaternion) multiplication

plus the octonion sphere S^7, the non-associative control of `cdalg.LADDER`.

Spheroids, an imaginaroid's suspension and base sphere, and H-space
carriers are each one `Carrier` record (unit, product, conjugation,
negation, exact points and the kind of point it samples), and every sphere
suite reads its structured and sampled inputs off its carrier.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product
from typing import Callable, NamedTuple, Optional

from .cdalg import LADDER, basis_coords, conj_coeffs, mul_coeffs
from .checks import LawReport, compare, execute_check, max_abs_diff, run_laws, worst_of
from .errors import PreconditionError, UsageError
from .spheremodel import is_exact, lifted, neg_coeffs


def _signed_basis(dim: int) -> tuple:
    return tuple(basis_coords(dim, i, Fraction(s)) for i in range(dim) for s in (1, -1))


# ---------------------------------------------------------------------------
# carriers and instances


class Carrier(NamedTuple):
    """A pointed structure with product, conjugation and negation, and its inputs.

    Points are coordinate sequences (tuples or join points), so the laws
    compare them as coefficient vectors.  A law of k inputs scans every
    k-tuple of the exact points in `structured`, then draws k points of
    `kind` per sample (`sampling.law_samples`), coordinates or join blocks in
    R^dim.  neg is None on a carrier whose laws never negate.
    """

    name: str
    unit: object
    mul: Callable
    conj: Callable
    structured: tuple
    kind: str
    dim: int
    neg: Optional[Callable] = None


def _sphere_carrier(name: str, dim: int) -> Carrier:
    """The unit sphere of R^dim with the Cayley-Dickson product, its signed
    basis and uniform samples.  Build it when a suite runs: mul is read from
    the module global then, so a profiler that rebinds mul_coeffs sees it."""
    return Carrier(
        name=name, unit=basis_coords(dim, 0, 1), mul=mul_coeffs, conj=conj_coeffs,
        structured=_signed_basis(dim), kind="point", dim=dim, neg=neg_coeffs)


class ImaginaroidInstance:
    """A base sphere with involutive negation plus multiplication on its suspension.

    level is the Cayley-Dickson level of the suspension's multiplication;
    the base sphere sits in ambient dimension 2^level - 1.  The suites
    check both spheres as carriers (`_sphere_carrier`).  assoc_verified
    is set by a passing assoc_check and gates the operations that assume
    an associative suspension; equality ignores it.
    """

    __slots__ = ("name", "level", "assoc_verified")

    def __init__(self, name: str, level: int, assoc_verified: bool = False):
        self.name, self.level, self.assoc_verified = name, level, assoc_verified

    def __eq__(self, other):
        if type(other) is not ImaginaroidInstance:
            return NotImplemented
        return (self.name, self.level) == (other.name, other.level)

    @property
    def susp_dim(self) -> int:
        return 1 << self.level

    @property
    def base_dim(self) -> int:
        return (1 << self.level) - 1


def spheroid_instance(name: str) -> Carrier:
    """Provided spheroids: the sign group s0, the circle s1 and the quaternion sphere s3."""
    dims = {"s0": 1, "s1": 2, "s3": 4}
    if name not in dims:
        raise UsageError(f"unknown spheroid instance {name!r}")
    return _sphere_carrier(name, dims[name])


def imaginaroid_instance(name: str) -> ImaginaroidInstance:
    """Provided imaginaroids, named by their base sphere.

    "empty" has no imaginaries (suspension S^0), "s0" suspends to the
    circle, "s2" to the quaternion sphere.  "octonion-control" exposes the
    level-3 multiplication as a negative control: its suspension is not
    associative, and suites pointed at it must produce witnesses.
    """
    levels = {"empty": 0, "s0": 1, "s2": 2, "octonion-control": 3}
    if name not in levels:
        raise UsageError(f"unknown imaginaroid instance {name!r}")
    return ImaginaroidInstance(name=name, level=levels[name])


# ---------------------------------------------------------------------------
# suites: law(s, inputs) for a structure s with unit, mul, conj and neg


def _one_star(s, inputs):
    return compare(s.conj(s.unit), s.unit)


def _neg_star(s, inputs):
    (x,) = inputs
    return compare(s.conj(s.neg(x)), s.neg(s.conj(x)))


def _neg_involution(s, inputs):
    (x,) = inputs
    return compare(s.neg(s.neg(x)), x)


def _star_involution(s, inputs):
    (x,) = inputs
    return compare(s.conj(s.conj(x)), x)


def _mul_neg(s, inputs):
    x, y = inputs
    return compare(s.mul(x, s.neg(y)), s.neg(s.mul(x, y)))


def _star_mul(s, inputs):
    x, y = inputs
    return compare(s.conj(s.mul(x, y)), s.mul(s.conj(y), s.conj(x)))


def _star_left_inverse(s, inputs):
    (x,) = inputs
    return compare(s.mul(s.conj(x), x), s.unit)


def _star_right_inverse(s, inputs):
    (x,) = inputs
    return compare(s.mul(x, s.conj(x)), s.unit)


def _neg_mul(s, inputs):
    x, y = inputs
    return compare(s.mul(s.neg(x), y), s.neg(s.mul(x, y)))


def _one_mul(s, inputs):
    (x,) = inputs
    return compare(s.mul(s.unit, x), x)


def _mul_one(s, inputs):
    (x,) = inputs
    return compare(s.mul(x, s.unit), x)


def _associativity(s, inputs):
    x, y, z = inputs
    return compare(s.mul(s.mul(x, y), z), s.mul(x, s.mul(y, z)))


SPHEROID_LAWS = (
    ("one-star", _one_star, ()),
    ("neg-star", _neg_star, ("point",)),
    ("neg-involution", _neg_involution, ("point",)),
    ("star-involution", _star_involution, ("point",)),
    ("mul-neg", _mul_neg, ("point",) * 2),
    ("star-mul", _star_mul, ("point",) * 2),
    ("star-left-inverse", _star_left_inverse, ("point",)),
    # derived: these follow from the six above, checked independently
    ("star-right-inverse", _star_right_inverse, ("point",)),
    ("neg-mul", _neg_mul, ("point",) * 2),
)

IMAGINAROID_LAWS = (
    ("mul-neg", _mul_neg, ("point",) * 2),
    ("star-right-inverse", _star_right_inverse, ("point",)),
    ("star-mul", _star_mul, ("point",) * 2),
    ("one-mul", _one_mul, ("point",)),
    ("mul-one", _mul_one, ("point",)),
)


def _carrier_laws(rows, carrier: Carrier, *, mode: str, **kw) -> list:
    """run_laws on a carrier: a row of k inputs (named as points) scans every
    k-tuple of carrier.structured, then draws k inputs of carrier.kind per sample.
    kw goes to run_laws.  The suite runs on `_suite_carrier(carrier, mode)`."""
    carrier = _suite_carrier(carrier, mode)
    return run_laws(
        [(law, evaluate, (carrier.kind,) * len(kinds)) for law, evaluate, kinds in rows],
        carrier.name, carrier, dim=carrier.dim, mode=mode,
        structured=lambda kinds: product(carrier.structured, repeat=len(kinds)), **kw)


def _suite_carrier(carrier: Carrier, mode: str) -> Carrier:
    """The carrier a suite runs on.  When the unit and structured points are all
    exact, the structured points are `lifted` in either mode, and so is the unit
    in exact mode.  In float mode the unit stays as it is: no exact value becomes
    a float, and the package's int unit meets a float as its float form would."""
    exact = all(is_exact(tuple(x)) for x in (carrier.unit, *carrier.structured))
    if mode == "exact" and not exact:
        raise UsageError(f"exact mode needs exact points on carrier {carrier.name}")
    if not exact:
        return carrier
    unit = lifted(carrier.unit) if mode == "exact" else carrier.unit
    return carrier._replace(unit=unit, structured=tuple(map(lifted, carrier.structured)))


def spheroid_check(carrier: Carrier,
                   samples: int = 10000,
                   seed: int = 0,
                   mode: str = "exact",
                   *,
                   tolerance: float = 1e-9) -> list:
    """The six spheroid laws plus the two derived ones, one report per law."""
    return _carrier_laws(
        SPHEROID_LAWS, carrier, suite=lambda law: f"laws/{carrier.name}/{law}/{mode}",
        samples=samples, seed=seed, mode=mode, tolerance=tolerance)


def imaginaroid_check(inst: ImaginaroidInstance,
                      samples: int = 10000,
                      seed: int = 0,
                      mode: str = "exact",
                      *,
                      tolerance: float = 1e-9) -> list:
    """The imaginaroid laws on the suspension, then the spheroid suite on it.

    The suspension laws share their bodies with the spheroid suite, which
    runs them again on the suspension under its own instance name.
    """
    kw = dict(samples=samples, seed=seed, mode=mode, tolerance=tolerance)
    # base negation must be involutive; an empty base (dim 0) has nothing to sample
    reports = _carrier_laws(
        (("base-neg-involution", _neg_involution, ("point",)),),
        _sphere_carrier(inst.name, inst.base_dim),
        suite=lambda law: f"laws/{inst.name}/base-neg/{mode}", **kw)
    reports += _carrier_laws(
        IMAGINAROID_LAWS, _sphere_carrier(inst.name, inst.susp_dim),
        suite=lambda law: f"laws/{inst.name}/{law}/{mode}", **kw)
    return reports + spheroid_check(_sphere_carrier(f"susp({inst.name})", inst.susp_dim), **kw)


def assoc_check(inst: ImaginaroidInstance,
                samples: int = 10000,
                seed: int = 0,
                mode: str = "exact",
                *,
                tolerance: float = 1e-9) -> LawReport:
    """(xy)z = x(yz) on the suspension; a pass unlocks the join construction.
    Expected as `cdalg.LADDER` says: a pass at levels 0-2, a failure at level 3."""
    (report,) = _carrier_laws(
        (("associativity", _associativity, ("point",) * 3),),
        _sphere_carrier(inst.name, inst.susp_dim),
        suite=lambda law: f"laws/{inst.name}/assoc/{mode}",
        expect=lambda law: LADDER["associativity"](inst.level),
        samples=samples, seed=seed, mode=mode, tolerance=tolerance)
    if report.holds:
        inst.assoc_verified = True
    return report


# ---------------------------------------------------------------------------
# the corner-transport identities (require an associative suspension)


def corner_transport_residual(carrier: Carrier, a, b, c, d):
    """Residual of the four identities carrying the reduced diamond to a product diamond.

    With f(x) = -(ac)x and g(y) = (cy)b and the pivot
    xhat = ((c* a*) d) b*, an associative suspension forces

        f(-1) = ac,   f(xhat) = -(d b*),   g(1) = cb,   g(xhat) = a* d.
    """
    mul, conj, neg, unit = carrier.mul, carrier.conj, carrier.neg, carrier.unit
    ac = mul(a, c)
    xhat = mul(mul(mul(conj(c), conj(a)), d), conj(b))

    def f(x):
        return neg(mul(ac, x))

    def g(y):
        return mul(mul(c, y), b)

    checks = [
        ("f(-1) = ac", f(neg(unit)), ac),
        ("f(xhat) = -d b*", f(xhat), neg(mul(d, conj(b)))),
        ("g(1) = cb", g(unit), mul(c, b)),
        ("g(xhat) = a* d", g(xhat), mul(conj(a), d)),
    ]
    return worst_of(checks, lambda check: max_abs_diff(check[1], check[2]))


def _corner_transport(carrier, inputs):
    worst, detail = corner_transport_residual(carrier, *inputs)
    if detail is None:
        return 0, None, None
    return worst, detail[1], detail[2]


def corner_transport_check(inst: ImaginaroidInstance, a, b, c, d,
                           *, allow_unverified: bool = False) -> LawReport:
    """Check the four corner identities for one 4-tuple of suspension points,
    expected where the ladder expects associativity, as in the suite."""
    _require_assoc(inst, allow_unverified)
    return execute_check(
        "corner-transport", inst.name,
        partial(_corner_transport, _sphere_carrier(inst.name, inst.susp_dim)),
        structured=[(a, b, c, d)], samples=0,
        expect_holds=LADDER["associativity"](inst.level))


def corner_transport_suite(inst: ImaginaroidInstance,
                           samples: int = 10000,
                           seed: int = 0,
                           mode: str = "exact",
                           *,
                           tolerance: float = 1e-9,
                           allow_unverified: bool = False) -> LawReport:
    """Corner identities over random unit 4-tuples of the suspension (no structured scan).
    They follow from associativity, so they are expected where the ladder expects it."""
    _require_assoc(inst, allow_unverified)
    (report,) = _carrier_laws(
        (("corner-transport", _corner_transport, ("point",) * 4),),
        _sphere_carrier(inst.name, inst.susp_dim)._replace(structured=()),
        suite=lambda law: f"laws/{inst.name}/corner/{mode}",
        expect=lambda law: LADDER["associativity"](inst.level),
        samples=samples, seed=seed, mode=mode, tolerance=tolerance)
    return report


def _require_assoc(inst: ImaginaroidInstance, allow_unverified: bool):
    if not inst.assoc_verified and not allow_unverified:
        raise PreconditionError(
            f"associativity of {inst.name} is unverified; run assoc_check first")


# ---------------------------------------------------------------------------
# H-space checks


def _left_inv(c, inputs):
    a, x = inputs
    return compare(c.mul(c.conj(a), c.mul(a, x)), x)


def _left_inv_alt(c, inputs):
    a, x = inputs
    return compare(c.mul(a, c.mul(c.conj(a), x)), x)


def _right_inv(c, inputs):
    a, x = inputs
    return compare(c.mul(c.mul(x, a), c.conj(a)), x)


def _right_inv_alt(c, inputs):
    a, x = inputs
    return compare(c.mul(c.mul(x, c.conj(a)), a), x)


HSPACE_UNIT_LAWS = (
    ("left-unit", _one_mul, ("point",)),
    ("right-unit", _mul_one, ("point",)),
)

HSPACE_LAWS = HSPACE_UNIT_LAWS + (
    ("left-translation-inverse", _left_inv, ("point",) * 2),
    ("left-translation-inverse-alt", _left_inv_alt, ("point",) * 2),
    ("right-translation-inverse", _right_inv, ("point",) * 2),
    ("right-translation-inverse-alt", _right_inv_alt, ("point",) * 2),
)


def hspace_check(carrier: Carrier,
                 samples: int = 10000,
                 seed: int = 0,
                 mode: str = "exact",
                 *,
                 tolerance: float = 1e-9) -> list:
    """Unit laws plus two-sided conjugate-inverse identities for translations.

    Translation invertibility is checked through explicit two-sided
    conjugate inverses, which is sound for all carriers provided here
    (groups or alternative-algebra spheres).
    """
    return _carrier_laws(
        HSPACE_LAWS, carrier, suite=lambda law: f"hspace/{carrier.name}/{law}/{mode}",
        samples=samples, seed=seed, mode=mode, tolerance=tolerance)
