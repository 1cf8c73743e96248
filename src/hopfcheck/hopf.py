"""Hopf projection on the join model and fiber-structure verification.

For a multiplicative sphere G, the projection join(G, G) -> susp(G) sends
inl to the north pole, inr to the south pole, and the glue arc through
(u, v) to the meridian through uv.  On embedded pairs (p, q) this is

    (p, q)  ->  (|p|^2 - |q|^2,  2 * p q)

which is polynomial in the coordinates, hence exact on rational points.
The three instances are G = S^0, S^1, S^3, giving the real, complex and
quaternionic fibrations S^0->S^1->S^1, S^1->S^3->S^2, S^3->S^7->S^4.
The fiber over a non-polar point is the translate family
(u, v) -> (u w, w* v); membership, completeness, separation and the polar
fibers are checked concretely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .cdalg import conj_coeffs, mul_coeffs, norm_coeffs
from .checks import LawReport, ReportDocument, compare, execute_check, max_abs_diff, run_laws
from .errors import UsageError
from .laws import (ImaginaroidInstance, assoc_check, hspace_check,
                   imaginaroid_instance, sphere_hspace_carrier)
from .joinmul import oracle_equivalence_suite, unit_law_check
from .sampling import rand_quarter_pair, rand_unit
from .spheremodel import JoinPoint, SuspPoint

#: fibration name -> imaginaroid whose suspension is the fiber sphere G
FIBRATIONS = {"real": "empty", "complex": "s0", "quaternionic": "s2"}


@dataclass(frozen=True)
class HopfInstance:
    """One fibration G -> join(G, G) -> susp(G) with G a multiplicative sphere."""

    name: str
    imag: ImaginaroidInstance

    @property
    def fiber_dim(self) -> int:
        return self.imag.susp_dim

    @property
    def total_dim(self) -> int:
        return 2 * self.fiber_dim

    @property
    def base_dim(self) -> int:
        return self.fiber_dim + 1


def hopf_instance(name: str) -> HopfInstance:
    if name not in FIBRATIONS:
        raise UsageError(f"unknown fibration instance {name!r}")
    return HopfInstance(name, imaginaroid_instance(FIBRATIONS[name]))


def hopf_map(x: JoinPoint, inst: HopfInstance) -> SuspPoint:
    """Project a point of join(G, G) to susp(G).

    inl points land on the north pole, inr points on the south pole, and
    the output is independent of the vanishing factor there.
    """
    p, q = x.left, x.right
    head = norm_coeffs(p) - norm_coeffs(q)
    tail = tuple(2 * c for c in mul_coeffs(p, q))
    return SuspPoint((head,) + tail)


def _translate(u, v, w):
    return mul_coeffs(u, w), mul_coeffs(conj_coeffs(w), v)


def _arc_join_point(u, v, c, s) -> JoinPoint:
    return JoinPoint(tuple(c * a for a in u), tuple(s * b for b in v))


# fiber laws: law((inst, gap), inputs) with inputs = ((u, v, c, s), w, ...),
# an arc point and one or two translations; gap is the separation threshold


def _fiber_membership(ctx, inputs):
    inst, _ = ctx
    (u, v, c, s), w = inputs
    u2, v2 = _translate(u, v, w)
    return compare(hopf_map(_arc_join_point(u2, v2, c, s), inst).coords,
                   hopf_map(_arc_join_point(u, v, c, s), inst).coords)


def _fiber_completeness(ctx, inputs):
    (u, v, c, s), w = inputs
    u2, v2 = _translate(u, v, w)
    # recover the translation from the first factors, then predict the second
    w_rec = mul_coeffs(conj_coeffs(u), u2)
    predicted = mul_coeffs(conj_coeffs(w_rec), v)
    r = max(max_abs_diff(w_rec, w), max_abs_diff(predicted, v2))
    return r, predicted, v2


def _fiber_separation(ctx, inputs):
    _, gap = ctx
    (u, v, c, s), w1, w2 = inputs
    u1, v1 = _translate(u, v, w1)
    u2, v2 = _translate(u, v, w2)
    if max(max_abs_diff(u1, u2), max_abs_diff(v1, v2)) > gap:
        return 0, None, None
    return 1, (u1, v1), (u2, v2)


def _fiber_polar(ctx, inputs):
    inst, _ = ctx
    (u, v, c, s), _ = inputs
    north = hopf_map(JoinPoint(u, tuple(0 * b for b in v)), inst)
    south = hopf_map(JoinPoint(tuple(0 * a for a in u), v), inst)
    want_n = SuspPoint.north(len(u)).coords
    want_s = SuspPoint.south(len(u)).coords
    r = max(max_abs_diff(north.coords, want_n), max_abs_diff(south.coords, want_s))
    if r > 0:
        return r, north.coords, want_n
    # a genuine arc point must avoid both poles
    mixed = hopf_map(_arc_join_point(u, v, c, s), inst)
    if abs(mixed.coords[0]) >= 1:
        return 1, mixed.coords, "interior"
    return 0, None, None


#: the shape is the input arity: an arc point plus one or two translations
FIBER_LAWS = (
    ("fiber-membership", _fiber_membership, 2),
    ("fiber-completeness", _fiber_completeness, 2),
    ("fiber-separation", _fiber_separation, 3),
    ("fiber-polar", _fiber_polar, 2),
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

    Separation draws a second translation farther than `tolerance` from
    the first and reports a residual of 0 or 1, so in float mode a
    tolerance of 1 or more is rejected: it would pass every pair, and
    from 2 up the draw could never end (unit coordinates differ by at
    most 2).
    """
    if mode == "float" and tolerance >= 1:
        raise UsageError("fiber checks need a float tolerance < 1")
    dim = inst.fiber_dim
    gap = tolerance if mode == "float" else 0

    def draw(rng, arity, i):
        arc = (rand_unit(rng, dim, mode), rand_unit(rng, dim, mode)) + rand_quarter_pair(rng, mode)
        ws = [rand_unit(rng, dim, mode)]
        while len(ws) < arity - 1:
            w = rand_unit(rng, dim, mode)
            if max_abs_diff(ws[0], w) > gap:
                ws.append(w)
        return (arc, *ws)

    return run_laws(
        FIBER_LAWS, inst.name, (inst, gap), draw=draw,
        suite=lambda law: f"fiber/{inst.name}/{law}/{mode}", samples=samples,
        seed=seed, mode=mode, tolerance=tolerance)


def dimension_report(inst: HopfInstance, seed: int = 0) -> LawReport:
    """Ambient-dimension bookkeeping: fiber S^n gives total 2n+2 and base n+2."""
    n = inst.fiber_dim - 1

    def evaluate(inputs):
        got = (inst.total_dim, inst.base_dim)
        want = (2 * n + 2, n + 2)
        return (0 if got == want else 1), got, want

    return execute_check("dimension-bookkeeping", inst.name, evaluate,
                         structured=[()], samples=0, seed=seed)


def fibration_report(inst: HopfInstance,
                     samples: int = 1000,
                     seed: int = 0,
                     mode: str = "exact",
                     *,
                     tolerance: float = 1e-9,
                     version: str = "0") -> ReportDocument:
    """Aggregate suite for one fibration: fiber H-space laws, join unit laws,
    oracle equivalence of the join multiplication, fiber structure, dimensions."""
    t0 = time.perf_counter()
    kw = dict(samples=samples, seed=seed, mode=mode, tolerance=tolerance)
    reports = fiber_check(inst, **kw)     # first: it rejects a vacuous tolerance
    imag = inst.imag
    assoc = assoc_check(imag, **kw)
    reports += [assoc] + hspace_check(sphere_hspace_carrier(f"s{imag.susp_dim - 1}"), **kw)
    if assoc.holds:     # the join suites need an associative fiber
        reports += unit_law_check(imag, **kw) + oracle_equivalence_suite(imag, **kw)
    reports.append(dimension_report(inst, seed=seed))
    for r in reports:
        # namespace the sub-suite instances under the fibration's own name
        if not r.instance.startswith(inst.name):
            r.instance = f"{inst.name}:{r.instance}"
    doc = ReportDocument(
        version=version,
        config={
            "instance": inst.name,
            "fiber": f"S^{inst.fiber_dim - 1}",
            "total": f"S^{inst.total_dim - 1}",
            "base": f"S^{inst.base_dim - 1}",
            "samples": samples,
            "seed": seed,
            "mode": mode,
            "tolerance": None if mode == "exact" else tolerance,
        },
        reports=reports)
    doc.finalize()
    doc.duration_ms = (time.perf_counter() - t0) * 1000.0
    return doc
