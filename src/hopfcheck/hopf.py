"""Hopf projection on the join model and fiber-structure verification.

For a multiplicative sphere G, the projection join(G, G) -> susp(G) sends
inl to the north pole, inr to the south pole, and the glue arc through
(u, v) to the meridian through uv.  On embedded pairs (p, q) this is

    (p, q)  ->  (|p|^2 - |q|^2,  2 * p q)

which is polynomial in the coordinates, hence exact on rational points.
The three instances are G = S^0, S^1, S^3, giving the real, complex and
quaternionic fibrations S^0->S^1->S^1, S^1->S^3->S^2, S^3->S^7->S^4;
hopf_map lands in a `SpherePoint` of the base, axis coordinate first.
The fiber over a non-polar point is the translate family
(u, v) -> (u w, w* v); membership, completeness, separation and the polar
fibers are checked concretely, and the dimensions are measured on the
model's points.  fibration_report returns the aggregate suite as a report
list, like every other suite.

Exact fiber samples are `Lifted`, and hopf_map projects them on integer
numerators; a tuple point takes the formula above in its own scalars.  An
arc's (c, s) stay Fractions: a witness writes them as two scalars.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .cdalg import conj_coeffs, mul_coeffs, norm_coeffs
from .checks import LawReport, compare, execute_check, max_abs_diff, run_laws, worst_of
from .errors import UsageError
from .laws import (ImaginaroidInstance, assoc_check, hspace_check, imaginaroid_instance,
                   spheroid_instance)
from .joinmul import join_hspace_carrier, oracle_equivalence_suite, unit_law_check
from .spheremodel import (JoinPoint, Lifted, SpherePoint, _sum_squares, arc_point, basis_coords,
                          block_dim_error)

#: fibration name -> imaginaroid whose suspension is the fiber sphere G
FIBRATIONS = {"real": "empty", "complex": "s0", "quaternionic": "s2"}


class HopfInstance(NamedTuple):
    """One fibration G -> join(G, G) -> susp(G) with G a multiplicative sphere."""

    name: str
    imag: ImaginaroidInstance

    @property
    def fiber_dim(self) -> int:
        return self.imag.susp_dim


def hopf_instance(name: str) -> HopfInstance:
    if name not in FIBRATIONS:
        raise UsageError(f"unknown fibration instance {name!r}")
    return HopfInstance(name, imaginaroid_instance(FIBRATIONS[name]))


def hopf_map(x: JoinPoint, inst: HopfInstance) -> SpherePoint:
    """Project a point of join(G, G) to susp(G), a point of S^(n+1) for G = S^n.

    inl points land on the north pole, inr points on the south pole, and
    the output is independent of the vanishing factor there.  A lifted point
    gives a lifted point, a tuple point its own scalars.  Both blocks must
    have G's ambient dimension.
    """
    p, q = x.left, x.right
    if not len(p) == len(q) == inst.fiber_dim:
        raise block_dim_error(inst.fiber_dim, x)
    if type(p) is not Lifted:
        head = norm_coeffs(p) - norm_coeffs(q)
        return SpherePoint((head,) + tuple([2 * c for c in mul_coeffs(p, q)]))
    PQ = mul_coeffs(p, q)   # (|P|^2 - |Q|^2, 2 P Q) over d^2 on the numerators
    return SpherePoint(Lifted((_sum_squares(p.nums) - _sum_squares(q.nums),)
                              + tuple([2 * c for c in PQ.nums]), PQ.den))


def _translate(u, v, w):
    return mul_coeffs(u, w), mul_coeffs(conj_coeffs(w), v)


# fiber laws: law((inst, gap), inputs) with inputs = ((u, v, c, s), w, ...),
# an arc point and one or two translations; gap is the separation threshold


def _fiber_membership(ctx, inputs):
    inst, _ = ctx
    (u, v, c, s), w = inputs
    u2, v2 = _translate(u, v, w)
    return compare(hopf_map(arc_point(u2, v2, c, s), inst).coords,
                   hopf_map(arc_point(u, v, c, s), inst).coords)


def _fiber_completeness(ctx, inputs):
    (u, v, c, s), w = inputs
    u2, v2 = _translate(u, v, w)
    # recover the translation from the first factors, then predict the second
    w_rec = mul_coeffs(conj_coeffs(u), u2)
    predicted = mul_coeffs(conj_coeffs(w_rec), v)
    r, _ = worst_of((max_abs_diff(w_rec, w), max_abs_diff(predicted, v2)))
    return r, predicted, v2


def _fiber_separation(ctx, inputs):
    _, gap = ctx
    (u, v, c, s), w1, w2 = inputs
    u1, v1 = _translate(u, v, w1)
    u2, v2 = _translate(u, v, w2)
    if type(u1) is Lifted:    # exact: the gap is 0, and any distance tells the points apart
        apart = max(max_abs_diff(u1, u2), max_abs_diff(v1, v2)) > gap
    else:                     # squared Euclidean distance, one float sum left to right
        apart = _sum_squares(x - y for x, y in zip(u1 + v1, u2 + v2)) > gap * gap
    if apart:
        return 0, None, None
    return 1, (u1, v1), (u2, v2)


@cache
def _poles(dim: int, exact: bool = False) -> tuple:
    """The poles of susp(G), G in R^dim, as int tuples, or `Lifted` to meet lifted ends."""
    poles = basis_coords(dim + 1, 0, 1), basis_coords(dim + 1, 0, -1)
    return tuple(Lifted(p, 1) for p in poles) if exact else poles


def _fiber_polar(ctx, inputs):
    inst, _ = ctx
    (u, v, c, s), _ = inputs
    ends = (hopf_map(arc_point(u, v, 1, 0), inst).coords,
            hopf_map(arc_point(u, v, 0, 1), inst).coords)
    poles = _poles(len(u), type(ends[0]) is Lifted)
    r, at = worst_of((0, 1), lambda k: max_abs_diff(ends[k], poles[k]))
    if not r <= 0:      # the pair of the pole that fails, with its exact coordinates
        return r, ends[at], tuple(map(Fraction, poles[at]))
    # a genuine arc point must avoid both poles
    mixed = hopf_map(arc_point(u, v, c, s), inst).coords
    head, one = (mixed.nums[0], mixed.den) if type(mixed) is Lifted else (mixed[0], 1)
    if abs(head) >= one:
        return 1, mixed, "interior"
    return 0, None, None


#: the inputs: an arc point, a translation and, for separation, a far second one
FIBER_LAWS = (
    ("fiber-membership", _fiber_membership, ("arc", "point")),
    ("fiber-completeness", _fiber_completeness, ("arc", "point")),
    ("fiber-separation", _fiber_separation, ("arc", "point", "far")),
    ("fiber-polar", _fiber_polar, ("arc", "point")),
)


def fiber_check(inst: HopfInstance,
                samples: int = 10000,
                seed: int = 0,
                mode: str = "exact",
                *,
                tolerance: float = 1e-9) -> list:
    """Verify the fiber structure of the projection.

    (1) membership: translates of a fiber point stay in the fiber;
    (2) completeness: two same-image points differ by the recovered translation;
    (3) separation: distinct translations move the point;
    (4) polar fibers: the poles pull back to the inl / inr copies of G.

    Separation draws a second translation more than `tolerance` from the
    first in some coordinate, and holds when the translates lie farther apart
    than that in Euclidean distance, which is never the smaller measure.  Its
    residual is 0 or 1, so a float tolerance of 1 or more would pass every
    pair and is rejected (from 2 up the draw could not end: unit coordinates
    differ by at most 2), and so is a NaN one, which no pair exceeds.
    """
    if mode == "float" and not tolerance < 1:
        raise UsageError("fiber checks need a float tolerance < 1")
    return run_laws(
        FIBER_LAWS, inst.name, (inst, tolerance if mode == "float" else 0), dim=inst.fiber_dim,
        suite=lambda law: f"fiber/{inst.name}/{law}/{mode}", samples=samples,
        seed=seed, mode=mode, tolerance=tolerance)


def dimension_report(inst: HopfInstance, seed: int = 0) -> LawReport:
    """Ambient dimensions, measured on the model: for fiber S^n, a point of
    join(G, G) (its unit) has 2n+2 coordinates and its hopf_map image n+2."""
    n = inst.fiber_dim - 1

    def evaluate(inputs):
        unit = join_hspace_carrier(inst.imag).unit
        got = (len(unit.flatten()), hopf_map(unit, inst).dim)
        want = (2 * n + 2, n + 2)
        return (0 if got == want else 1), got, want

    return execute_check("dimension-bookkeeping", inst.name, evaluate,
                         structured=[()], samples=0, seed=seed)


def fibration_report(inst: HopfInstance,
                     samples: int = 1000,
                     seed: int = 0,
                     mode: str = "exact",
                     *,
                     tolerance: float = 1e-9) -> list:
    """Aggregate suite for one fibration: fiber H-space laws, join unit laws,
    oracle equivalence of the join multiplication, fiber structure, dimensions.
    One report per law, each instance namespaced under the fibration's name."""
    kw = dict(samples=samples, seed=seed, mode=mode, tolerance=tolerance)
    reports = fiber_check(inst, **kw)     # first: it rejects a vacuous tolerance
    imag = inst.imag
    assoc = assoc_check(imag, **kw)
    reports += [assoc] + hspace_check(spheroid_instance(f"s{imag.susp_dim - 1}"), **kw)
    if assoc.holds:     # the join suites need an associative fiber
        reports += unit_law_check(imag, **kw) + oracle_equivalence_suite(imag, **kw)
    reports.append(dimension_report(inst, seed=seed))
    for r in reports:
        # namespace the sub-suite instances under the fibration's own name
        if not r.instance.startswith(inst.name):
            r.instance = f"{inst.name}:{r.instance}"
    return reports
