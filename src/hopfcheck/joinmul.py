"""Multiplication on join(susp A, susp A) with closed-form square fillers.

Writing S for the suspension sphere and J = join(S, S), the product of
two points of J is defined by cases on the constructor views:

    inl(a) inl(c) = inl(ac)        inl(a) inr(d) = inr(a* d)
    inr(b) inl(c) = inr(cb)        inr(b) inr(d) = inl(-d b*)

mixed view/arc cases follow the glue arcs, and the arc-times-arc case is
carried by a square filler: the reduced diamond with corners
inl(-1), inr(1), inr(x), inl(x) admits the closed-form filler

    D_x(sigma, tau) = ( -cs*ct * 1 + ss*st * x ,  ss*ct * 1 + cs*st * x )

which is transported onto the general corners by the factor maps
f(u) = -(ac) u and g(v) = (c v) b with x = ((c* a*) d) b*.  When the
multiplication on S is associative this reproduces, in embedded
coordinates, exactly the doubled-algebra product of the next
Cayley-Dickson level: join_mul_alg is that product and serves as the
independent oracle for join_mul_syn.

D_x and the edge values are each written once, for any scalar type, and
each grid law has one body.  An exact corner and each parameter pair
(c, s) are lifted once to integer numerators over a common denominator:
a grid point holds when |L|^2 + |R|^2 equals the squared denominator, and
a boundary point when its integer vector equals the edge's.  Fractions are
built only for a nonzero residual and its witness.  A float corner runs
the same body over denominator 1 with its Fraction grid pairs unlifted, so
its values are SquareFiller's bit for bit, and a broken filler fails.

join_mul_syn is the one place a join point's constructor view is
decided: a block is zero when its squared norm is at most
`zero_norm_bound`.  It works the same way on all-Fraction operands: each
point is lifted once, the view cases and the arc formula run on integer
numerators through the sign-table kernel, and each output coordinate is
built as a Fraction once (see `_arc_blocks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import itemgetter
from typing import Callable

from .cdalg import conj_coeffs, lift, mul_coeffs, mul_ints, norm_coeffs
from .checks import compare, max_abs_diff, run_laws, worst_of
from .errors import UsageError
from .laws import (HSPACE_UNIT_LAWS, Carrier, ImaginaroidInstance, _require_assoc,
                   _signed_basis)
from .sampling import CounterRng, quarter_grid, rand_quarter_pair, rand_unit
from .spheremodel import (JoinPoint, SpherePoint, arc_point, basis_coords, block_dim_error,
                          is_exact, zero_norm_bound)

#: report-instance names for the join carriers, keyed by imaginaroid name
JOIN_INSTANCE = {"empty": "s1", "s0": "s3", "s2": "s7"}


def _scale(s, vec: tuple) -> tuple:
    return tuple(s * c for c in vec)


def _add(u: tuple, v: tuple) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def _neg(u: tuple) -> tuple:
    return tuple(-a for a in u)


# ---------------------------------------------------------------------------
# diamond problems and square fillers


@dataclass(frozen=True)
class DiamondProblem:
    """Corner data of a square in a join whose edges are glue arcs.

    a, a2 are the left-factor corners, b, b2 the right-factor corners; the
    square's corners are inl(a), inr(b), inl(a2), inr(b2) and its edges
    run a->b, a->b2, a2->b, a2->b2.
    """

    a: SpherePoint
    a2: SpherePoint
    b: SpherePoint
    b2: SpherePoint


@dataclass(frozen=True)
class SquareFiller:
    """A map from parameter pairs (sigma, tau) into a join, with its boundary contract.

    sigma and tau are exact quarter-circle pairs (c, s); the evaluator must
    agree with the four glue-arc edges of the underlying diamond problem.
    """

    problem: DiamondProblem
    evaluate: Callable          # (sigma, tau) -> JoinPoint


def _edge_blocks(sigma, tau, a, a2, b, b2) -> tuple:
    """Blocks (left, right) that the glue-arc edges a->b, a2->b2, a->b2, a2->b demand.

    Scalar-generic.  On integer numerators the endpoints (1, 0) and (0, 1)
    lift to themselves over denominator 1, so the endpoint comparisons
    still find the edge, and the value comes out over the moving
    parameter's denominator times the corners' one.
    """
    cs, ss = sigma
    ct, st = tau
    if tau == (1, 0):
        return _scale(cs, a), _scale(ss, b)
    if tau == (0, 1):
        return _scale(ss, a2), _scale(cs, b2)
    if sigma == (1, 0):
        return _scale(ct, a), _scale(st, b2)
    if sigma == (0, 1):
        return _scale(st, a2), _scale(ct, b)
    raise UsageError("edge expectation requested off the boundary")


def fill_refl_diamond(problem: DiamondProblem) -> SquareFiller:
    """Filler for a diamond with one constant side, chosen by its corners.

    b = b2 with antipodal left corners gives the horizontal filler, and
    a = a2 with antipodal right corners the vertical one.  These are the
    configurations the pole diamonds produce; any other, a diamond with
    both sides constant included, raises.
    """
    a, a2, b, b2 = (problem.a.coords, problem.a2.coords,
                    problem.b.coords, problem.b2.coords)
    if b == b2 and a2 == _neg(a):

        def evaluate(sigma, tau):
            cs, ss = sigma
            ct, st = tau
            return JoinPoint(
                _add(_scale(cs * ct, a), _scale(ss * st, a2)),
                _scale(ss * ct + cs * st, b))

        return SquareFiller(problem, evaluate)

    if a == a2 and b2 == _neg(b):

        def evaluate(sigma, tau):
            cs, ss = sigma
            ct, st = tau
            return JoinPoint(
                _scale(cs * ct + ss * st, a),
                _add(_scale(ss * ct, b), _scale(cs * st, b2)))

        return SquareFiller(problem, evaluate)

    raise UsageError("one side must be constant and the other's corners antipodal")


def reduced_diamond_filler(x: SpherePoint) -> SquareFiller:
    """Closed-form filler for the diamond with corners inl(-1), inr(1), inr(x), inl(x).

    D_x(sigma, tau) = (-cs*ct * 1 + ss*st * x, ss*ct * 1 + cs*st * x); the
    embedded norms satisfy |left|^2 + |right|^2 = 1 identically, and at
    the poles x = +-1 this reduces to the two constant-side fillers.
    """
    unit = SpherePoint.basis(x.dim, 0)
    one = unit.coords
    problem = DiamondProblem(a=-unit, a2=x, b=unit, b2=x)
    xc = x.coords

    def evaluate(sigma, tau):
        return JoinPoint(*_reduced_blocks(sigma, tau, one, xc))

    return SquareFiller(problem, evaluate)


def _reduced_blocks(sigma, tau, one, x) -> tuple:
    """The blocks (left, right) of D_x(sigma, tau), for any scalar type.

    Fractions or floats give the point itself.  Integer numerators of
    sigma and tau (over d_sigma, d_tau) and of one and x (over d_x) give
    the point scaled by d_sigma * d_tau * d_x.
    """
    cs, ss = sigma
    ct, st = tau
    return (_add(_scale(-(cs * ct), one), _scale(ss * st, x)),
            _add(_scale(ss * ct, one), _scale(cs * st, x)))


# ---------------------------------------------------------------------------
# the multiplication


def join_mul_syn(X: JoinPoint, Y: JoinPoint, inst: ImaginaroidInstance,
                 *, allow_unverified: bool = False) -> JoinPoint:
    """Product on join(S, S) built from the constructor table, arcs and fillers.

    The case split follows the constructor views, but every case is
    evaluated on the raw embedded blocks: the filler-transport expression
    for two arcs is homogeneous in the factor norms, so it collapses to
    the rational form below and products can be chained exactly.  The
    normalized filler route computes the same vector (see the tests); this
    form merely avoids the square roots of the block norms.

    Operands whose coordinates are all Fractions are lifted once each, X
    to integer numerators over d_X and Y over d_Y.  Every product of a
    view case pairs a block of X with one of Y, so it runs on ints and is
    divided by d_X d_Y once; the views are told apart on the integer
    squared norms, and two arcs multiply on ints (`_arc_blocks`).  Values
    and scalar types are those of the rational form.  Other operands
    (floats, ints, int/Fraction mixes) take the rational form directly.
    Every block must have the suspension's dimension.
    """
    _require_assoc(inst, allow_unverified)
    p, q = X.left, X.right
    r, w = Y.left, Y.right
    if not len(p) == len(q) == len(r) == len(w) == inst.susp_dim:
        raise block_dim_error(inst.susp_dim, X, Y)
    mul, conj = mul_coeffs, conj_coeffs
    xs, ys = X.flatten(), Y.flatten()
    eps2 = zero_norm_bound(xs + ys)
    lifted = eps2 == 0 and all(type(c) is Fraction for c in xs + ys)
    if lifted:
        (xn, dx), (yn, dy) = lift(xs), lift(ys)
        d = dx * dy
        h = len(p)
        p, q, r, w = xn[:h], xn[h:], yn[:h], yn[h:]
        p2, q2, r2, w2 = (sum(c * c for c in v) for v in (p, q, r, w))
        conj = conj_coeffs

        def mul(a, b):
            return tuple(Fraction(c, d) for c in mul_ints(a, b))
    else:
        p2, q2 = norm_coeffs(p), norm_coeffs(q)
        r2, w2 = norm_coeffs(r), norm_coeffs(w)

    if q2 <= eps2:                      # X = inl(p)
        return JoinPoint(mul(p, r), mul(conj(p), w))
    if p2 <= eps2:                      # X = inr(q)
        return JoinPoint(_neg(mul(w, conj(q))), mul(r, q))
    if w2 <= eps2:                      # Y = inl(r)
        return JoinPoint(mul(p, r), mul(r, q))
    if r2 <= eps2:                      # Y = inr(w)
        return JoinPoint(_neg(mul(w, conj(q))), mul(conj(p), w))
    if lifted:
        return JoinPoint(*_arc_blocks(p, q, r, w, p2, q2, r2, d))

    # two arcs: f, g transport of the reduced diamond, written homogeneously
    K = mul(mul(mul(conj(r), conj(p)), w), conj(q))
    M = mul(p, r)
    left = tuple(m - t / (p2 * r2) for m, t in zip(M, mul(M, K)))
    rq = mul(r, q)
    right = tuple(n + t / (r2 * q2) for n, t in zip(rq, mul(mul(r, K), q)))
    return JoinPoint(left, right)


def _arc_blocks(P, Q, R, W, p2, q2, r2, d) -> tuple:
    """The two-arc product of join_mul_syn on integer numerators.

    P, Q are X's blocks over d_X and R, W are Y's over d_Y, with
    d = d_X d_Y and p2, q2, r2 the squared norms of P, Q, R.  Clearing the
    denominators of the rational form, with M = P R and K = R* P* W Q* on
    ints, gives

        left  = (M p2 r2 - M K) / (d p2 r2)
        right = (R Q r2 q2 + (R K) Q) / (d r2 q2)

    Every product runs through the sign-table kernel, and each output
    coordinate is built as a Fraction once.
    """
    K = mul_ints(mul_ints(mul_ints(conj_coeffs(R), conj_coeffs(P)), W), conj_coeffs(Q))
    M = mul_ints(P, R)
    pr2, rq2 = p2 * r2, r2 * q2
    den = d * pr2
    left = tuple(Fraction(m * pr2 - t, den) for m, t in zip(M, mul_ints(M, K)))
    den = d * rq2
    right = tuple(Fraction(n * rq2 + t, den)
                  for n, t in zip(mul_ints(R, Q), mul_ints(mul_ints(R, K), Q)))
    return left, right


def join_mul_alg(X: JoinPoint, Y: JoinPoint, level: int) -> JoinPoint:
    """Oracle: multiply the embedded pairs as one element of the doubled algebra.

    Valid at levels 1..3: level 0 has no halves, and beyond level 3 the
    product of unit vectors leaves the unit sphere, so the output would
    leave the join model.  Every block must have dimension 2^(level - 1).
    """
    if not 1 <= level <= 3:
        raise UsageError(f"doubled product level must be within 1..3, not {level}")
    half = 1 << (level - 1)
    if not len(X.left) == len(X.right) == len(Y.left) == len(Y.right) == half:
        raise block_dim_error(half, X, Y)
    prod = mul_coeffs(X.flatten(), Y.flatten())
    return JoinPoint(prod[:half], prod[half:])


# ---------------------------------------------------------------------------
# samplers and suites


def sample_join_point(rng: CounterRng, inst: ImaginaroidInstance, view: str,
                      mode: str) -> JoinPoint:
    dim = inst.susp_dim
    zero = (Fraction(0) if mode == "exact" else 0.0,) * dim
    if view == "inl":
        return JoinPoint(rand_unit(rng, dim, mode), zero)
    if view == "inr":
        return JoinPoint(zero, rand_unit(rng, dim, mode))
    u = rand_unit(rng, dim, mode)
    v = rand_unit(rng, dim, mode)
    return arc_point(u, v, *rand_quarter_pair(rng, mode))


VIEW_KINDS = ("inl", "inr", "glue")


def _oracle_equivalence(inst, inputs):
    X, Y = inputs
    return compare(join_mul_syn(X, Y, inst), join_mul_alg(X, Y, inst.level + 1))


#: one law per view combination; the shape is the pair of views to sample
ORACLE_LAWS = tuple((f"oracle-equivalence[{kx},{ky}]", _oracle_equivalence, (kx, ky))
                    for kx in VIEW_KINDS for ky in VIEW_KINDS)


def oracle_equivalence_suite(inst: ImaginaroidInstance,
                             samples: int = 10000,
                             seed: int = 0,
                             mode: str = "exact",
                             *,
                             tolerance: float = 1e-9) -> list:
    """join_mul_syn against the doubled-algebra product, per view combination."""
    instance = JOIN_INSTANCE.get(inst.name, inst.name)
    return run_laws(
        ORACLE_LAWS, instance, inst,
        draw=lambda rng, views, i: tuple(sample_join_point(rng, inst, v, mode)
                                         for v in views),
        suite=lambda law: f"joinmul/{instance}/{law}/{mode}",
        samples=max(1, samples // 9), seed=seed, mode=mode, tolerance=tolerance)


def unit_law_check(inst: ImaginaroidInstance,
                   samples: int = 10000,
                   seed: int = 0,
                   mode: str = "exact",
                   *,
                   tolerance: float = 1e-9) -> list:
    """inl(1) X = X = X inl(1), exact on point constructors, sampled on arcs.

    The H-space unit laws of the join carrier, with samples cycling
    through the three views.
    """
    carrier = join_hspace_carrier(inst)
    return run_laws(
        HSPACE_UNIT_LAWS, carrier.name, carrier,
        structured=lambda arity: product(carrier.structured, repeat=arity),
        draw=lambda rng, arity, i: (sample_join_point(rng, inst, VIEW_KINDS[i % 3], mode),),
        suite=lambda law: f"joinmul/{carrier.name}/unit/{mode}", samples=samples,
        seed=seed, mode=mode, tolerance=tolerance)


# ---------------------------------------------------------------------------
# filler verification on a parameter grid: law(params, inputs) with params
# the quarter-circle grid and inputs = (x,), the corner that fixes D_x

_EDGE_ENDPOINTS = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def _edge_params(ends, params):
    """Boundary parameters in scan order: (end, t) and (t, end) for each end, then t."""
    return (pair for end in ends for t in params for pair in ((end, t), (t, end)))


def _lifted_corner(x: SpherePoint) -> tuple:
    """(one, x, d_x, lift_pairs): the corner's reduced-diamond data over d_x, and
    lift_pairs(pairs), each pair as (numerators, denominator).  An exact corner
    and its pairs are lifted to integers; a float corner is carried over 1 with
    `one` and the pairs in Fractions, the operands SquareFiller evaluation uses."""
    if is_exact(x.coords):
        xn, dx = lift(x.coords)
        return (basis_coords(len(xn), 0, dx), tuple(xn), dx,
                lambda pairs: [(tuple(n), d) for n, d in map(lift, pairs)])
    return SpherePoint.basis(x.dim, 0).coords, x.coords, 1, lambda pairs: [(p, 1) for p in pairs]


def _unit_residuals(params, x):
    """(residual, sigma, tau) for each grid point where |D_x|^2 is not 1."""
    one, xn, dx, lift_pairs = _lifted_corner(x)
    grid = list(zip(params, lift_pairs(params)))
    for sigma, (ns, ds) in grid:
        for tau, (nt, dt) in grid:
            left, right = _reduced_blocks(ns, nt, one, xn)
            d2 = (ds * dt * dx) ** 2    # |D_x|^2 = 1 scaled by the squared denominator
            diff = norm_coeffs(left) + norm_coeffs(right) - d2
            if diff:
                yield abs(diff) / Fraction(d2), sigma, tau


def _filler_unit_norm(params, inputs):
    (x,) = inputs
    worst, at = worst_of(_unit_residuals(params, x), itemgetter(0))
    if at is None:
        return 0, None, None
    return worst, at[1:], "unit"


def _worst_pair(pairs):
    """(residual, got, want) of the worst (got, want) pair; zero with no sides if none differ."""
    worst, bad = worst_of(pairs, lambda pair: max_abs_diff(*pair))
    if bad is None:
        return 0, None, None
    return worst, bad[0], bad[1]


def _boundary_pairs(params, x):
    """(filler value, edge value) for each boundary point where the two differ."""
    one, xn, dx, lift_pairs = _lifted_corner(x)
    minus_one = _neg(one)
    for (ns, ds), (nt, dt) in _edge_params(lift_pairs(_EDGE_ENDPOINTS), lift_pairs(params)):
        # one of ds, dt is 1 (an endpoint), so both sides are over ds * dt * dx
        left, right = _reduced_blocks(ns, nt, one, xn)
        edge_left, edge_right = _edge_blocks(ns, nt, minus_one, xn, one, xn)
        got, want = left + right, edge_left + edge_right
        if got != want:
            d = Fraction(ds * dt * dx)
            yield tuple(c / d for c in got), tuple(c / d for c in want)


def _filler_boundary(params, inputs):
    (x,) = inputs
    return _worst_pair(_boundary_pairs(params, x))


def _filler_pole_reduction(params, inputs):
    (x,) = inputs
    if x.coords not in (basis_coords(x.dim, 0, 1), basis_coords(x.dim, 0, -1)):
        return 0, None, None
    # at a pole D_x's diamond has one constant side, whose filler is written apart from D_x
    filler = reduced_diamond_filler(x)
    ref = fill_refl_diamond(filler.problem)
    return _worst_pair(
        (filler.evaluate(sigma, tau), ref.evaluate(sigma, tau))
        for sigma in params for tau in params)


DIAMOND_LAWS = (
    ("filler-unit-norm", _filler_unit_norm, 1),
    ("filler-boundary", _filler_boundary, 1),
    ("filler-pole-reduction", _filler_pole_reduction, 1),
)


def diamond_suite(inst: ImaginaroidInstance,
                  grid: int = 64,
                  samples: int = 100,
                  seed: int = 0,
                  mode: str = "exact",
                  *,
                  tolerance: float = 1e-9) -> list:
    """Grid checks of the reduced filler: norms, boundary edges, pole reductions.

    Samples 0 and 1 are the poles; the rest are random unit corners.
    """
    if grid < 1:
        raise UsageError("grid must be >= 1")
    instance = JOIN_INSTANCE.get(inst.name, inst.name)
    dim = inst.susp_dim

    def draw(rng, arity, i):
        if i < 2:
            return (SpherePoint.basis(dim, 0, 1 - 2 * i),)
        return (SpherePoint(rand_unit(rng, dim, mode)),)

    return run_laws(
        DIAMOND_LAWS, instance, quarter_grid(grid), draw=draw,
        suite=lambda law: f"diamond/{instance}/x/{mode}", samples=max(samples, 2),
        seed=seed, mode=mode, tolerance=tolerance)


# ---------------------------------------------------------------------------
# the join carrier as an H-space


def join_hspace_carrier(inst: ImaginaroidInstance) -> Carrier:
    """join(S, S) with the synthetic multiplication and the doubled conjugation.

    Its laws never negate, so the carrier has no negation.
    """
    dim = inst.susp_dim
    zero = (Fraction(0),) * dim

    def conj(X: JoinPoint) -> JoinPoint:
        flat = conj_coeffs(X.flatten())
        return JoinPoint(flat[:dim], flat[dim:])

    def sample(rng: CounterRng, mode: str) -> JoinPoint:
        return sample_join_point(rng, inst, VIEW_KINDS[rng.randint(0, 2)], mode)

    return Carrier(
        name=JOIN_INSTANCE.get(inst.name, inst.name),
        unit=JoinPoint(inst.unit, zero),
        mul=lambda X, Y: join_mul_syn(X, Y, inst),
        conj=conj,
        structured=tuple(JoinPoint(p, zero) for p in _signed_basis(dim))
        + tuple(JoinPoint(zero, p) for p in _signed_basis(dim)),
        sample=sample)
