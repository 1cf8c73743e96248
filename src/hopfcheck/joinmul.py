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
each grid law has one body.  A suite lifts its parameter pairs once and
each exact corner once: a grid point holds when |L|^2 + |R|^2 is the
squared denominator, a boundary point when its integers equal the edge's,
and at an exact pole D_x and the constant-side filler are evaluated on the
lifted pairs, as Lifted points.  Only a failure builds Fractions.  A float
corner runs the same bodies over denominator 1 and the Fraction pairs, so
its values are SquareFiller's and a broken filler fails.

join_mul_syn is the one place a join point's constructor view is
decided: a block is zero when its squared norm is zero, or at most
FLOAT_VIEW_EPS^2 once a coordinate is a float.  It has two forms.  On
lifted points, the form the suites sample, it builds no Fraction
(`_arc_blocks`); tuples of any scalars run the rational form.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Callable, NamedTuple

from .cdalg import conj_coeffs, mul_coeffs
from .checks import compare, max_abs_diff, require_samples, run_laws, worst_of
from .errors import InvariantViolation, UsageError
from .laws import (HSPACE_UNIT_LAWS, Carrier, ImaginaroidInstance, _require_assoc,
                   _carrier_laws, _signed_basis)
from .sampling import VIEW_KINDS, CounterRng, join_point_sample, quarter_grid
from .spheremodel import (FLOAT_VIEW_EPS, JoinPoint, Lifted, SpherePoint, _sum_squares,
                          basis_coords, block_dim_error, is_exact, lift, lifted, neg_coeffs)

#: report-instance names for the join carriers, keyed by imaginaroid name
JOIN_INSTANCE = {"empty": "s1", "s0": "s3", "s2": "s7"}


def _scale(s, vec: tuple) -> tuple:
    return tuple(s * c for c in vec)


def _comb(s, u: tuple, t, v: tuple) -> tuple:
    """s u + t v, in one pass over the coordinates."""
    return tuple([s * a + t * b for a, b in zip(u, v)])


# ---------------------------------------------------------------------------
# diamond problems and square fillers


class DiamondProblem(NamedTuple):
    """Corner data of a square in a join whose edges are glue arcs.

    a, a2 are the left-factor corners, b, b2 the right-factor corners; the
    square's corners are inl(a), inr(b), inl(a2), inr(b2) and its edges
    run a->b, a->b2, a2->b, a2->b2.
    """

    a: SpherePoint
    a2: SpherePoint
    b: SpherePoint
    b2: SpherePoint


class SquareFiller(NamedTuple):
    """A map from parameter pairs (sigma, tau) into a join, with its boundary contract.

    sigma and tau are exact quarter-circle pairs (c, s); the evaluator must
    agree with the four glue-arc edges of the underlying diamond problem.
    The fillers built here also take two `Lifted` pairs when their corners
    are exact, and then give the point as two `Lifted` blocks: the pole row
    of `diamond_suite` evaluates them that way.
    """

    problem: DiamondProblem
    evaluate: Callable          # (sigma, tau) -> JoinPoint


def _blocks_filler(problem: DiamondProblem, blocks: Callable, corners: tuple) -> SquareFiller:
    """The filler whose point at (sigma, tau) is JoinPoint(*blocks(sigma, tau, *corners)).

    blocks is scalar-generic.  Exact corners are lifted once over one
    denominator d, so two `Lifted` pairs give the same point on integer
    numerators, as `Lifted` blocks over d_sigma * d_tau * d; the point's
    unit check is then |n|^2 = den^2.
    """
    flat, ints = sum(corners, ()), None
    if is_exact(flat):
        nums, d = lift(flat)
        k = len(corners[0])
        ints = tuple(nums[i:i + k] for i in range(0, len(nums), k))

    def evaluate(sigma, tau):
        if ints is not None and type(sigma) is Lifted:
            den = sigma.den * tau.den * d
            left, right = blocks(sigma.nums, tau.nums, *ints)
            return JoinPoint(Lifted(left, den), Lifted(right, den))
        return JoinPoint(*blocks(sigma, tau, *corners))

    return SquareFiller(problem, evaluate)


def _edge_blocks(sigma, tau, a, a2, b, b2) -> tuple:
    """Blocks (left, right) that the glue-arc edges a->b, a2->b2, a->b2, a2->b demand.

    Scalar-generic.  On integer numerators the endpoints (1, 0) and (0, 1)
    lift to themselves over denominator 1, so the endpoint comparisons
    still find the edge, and the value comes out over the moving
    parameter's denominator times the corners' one.  Only the boundary
    law calls it, always on boundary pairs: an interior pair is a bug.
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
    raise InvariantViolation("edge expectation requested off the boundary")


def _horizontal_blocks(sigma, tau, a, a2, b):
    cs, ss = sigma
    ct, st = tau
    return _comb(cs * ct, a, ss * st, a2), _scale(ss * ct + cs * st, b)


def _vertical_blocks(sigma, tau, a, b, b2):
    cs, ss = sigma
    ct, st = tau
    return _scale(cs * ct + ss * st, a), _comb(ss * ct, b, cs * st, b2)


def fill_refl_diamond(problem: DiamondProblem) -> SquareFiller:
    """Filler for a diamond with one constant side, chosen by its corners.

    b = b2 with antipodal left corners gives the horizontal filler, and
    a = a2 with antipodal right corners the vertical one.  These are the
    configurations the pole diamonds produce; any other, a diamond with
    both sides constant included, raises.
    """
    a, a2, b, b2 = (problem.a.coords, problem.a2.coords,
                    problem.b.coords, problem.b2.coords)
    if b == b2 and a2 == neg_coeffs(a):
        return _blocks_filler(problem, _horizontal_blocks, (a, a2, b))
    if a == a2 and b2 == neg_coeffs(b):
        return _blocks_filler(problem, _vertical_blocks, (a, b, b2))
    raise UsageError("one side must be constant and the other's corners antipodal")


def reduced_diamond_filler(x: SpherePoint) -> SquareFiller:
    """Closed-form filler for the diamond with corners inl(-1), inr(1), inr(x), inl(x).

    D_x(sigma, tau) = (-cs*ct * 1 + ss*st * x, ss*ct * 1 + cs*st * x); the
    embedded norms satisfy |left|^2 + |right|^2 = 1 identically, and at
    the poles x = +-1 this reduces to the two constant-side fillers.  An
    exact x also takes lifted pairs (see `SquareFiller`); either way the
    point is `_reduced_blocks`.
    """
    unit = SpherePoint.basis(x.dim, 0)
    problem = DiamondProblem(a=-unit, a2=x, b=unit, b2=x)
    return _blocks_filler(problem, _reduced_blocks, (unit.coords, x.coords))


def _reduced_blocks(sigma, tau, one, x) -> tuple:
    """The blocks (left, right) of D_x(sigma, tau), for any scalar type, each in one pass.

    Fractions or floats give the point itself.  Integer numerators of
    sigma and tau (over d_sigma, d_tau) and of one and x (over d_x) give
    the point scaled by d_sigma * d_tau * d_x.
    """
    cs, ss = sigma
    ct, st = tau
    m, n, p, q = -(cs * ct), ss * st, ss * ct, cs * st
    return (tuple([m * u + n * v for u, v in zip(one, x)]),
            tuple([p * u + q * v for u, v in zip(one, x)]))


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

    One body serves two forms.  Lifted points give a lifted point, their
    views read off the numerators' squared norms and two arcs multiplied on
    integers (`_arc_blocks`).  Tuples of floats, exact scalars or a mix keep
    their scalars through the same view products and the rational form,
    their views exact unless a coordinate is a float; an operand with a
    float first coordinate, as in `is_exact`, needs no scan to tell.
    Every block must have the suspension's dimension.
    """
    _require_assoc(inst, allow_unverified)
    p, q = X.left, X.right
    r, w = Y.left, Y.right
    if not len(p) == len(q) == len(r) == len(w) == inst.susp_dim:
        raise block_dim_error(inst.susp_dim, X, Y)
    lifted_in = type(p) is Lifted or type(r) is Lifted
    if lifted_in:
        X, Y = lifted(X), lifted(Y)
        p, q, r, w = X.left, X.right, Y.left, Y.right
        # |b|^2 d^2 on the numerators: a block is zero exactly when its norm is
        norms, eps2 = [_sum_squares(b.nums) for b in (p, q, r, w)], 0
    else:
        norms = [_sum_squares(b) for b in (p, q, r, w)]
        floats = type(p[0]) is float or type(r[0]) is float or not is_exact(p + q + r + w)
        eps2 = FLOAT_VIEW_EPS ** 2 if floats else 0
    p2, q2, r2, w2 = norms
    mul, conj = mul_coeffs, conj_coeffs
    if q2 <= eps2:                      # X = inl(p)
        return JoinPoint(mul(p, r), mul(conj(p), w))
    if p2 <= eps2:                      # X = inr(q)
        return JoinPoint(neg_coeffs(mul(w, conj(q))), mul(r, q))
    if w2 <= eps2:                      # Y = inl(r)
        return JoinPoint(mul(p, r), mul(r, q))
    if r2 <= eps2:                      # Y = inr(w)
        return JoinPoint(neg_coeffs(mul(w, conj(q))), mul(conj(p), w))
    if lifted_in:                       # two lifted arcs, on integer numerators
        return _arc_blocks(p.nums, q.nums, r.nums, w.nums, p2, q2, r2, p.den * r.den)
    # two arcs: f, g transport of the reduced diamond, written homogeneously
    K = mul(mul(mul(conj(r), conj(p)), w), conj(q))
    M = mul(p, r)
    left = tuple(m - t / (p2 * r2) for m, t in zip(M, mul(M, K)))
    rq = mul(r, q)
    right = tuple(n + t / (r2 * q2) for n, t in zip(rq, mul(mul(r, K), q)))
    return JoinPoint(left, right)


def _arc_blocks(P, Q, R, W, p2, q2, r2, d) -> JoinPoint:
    """The two-arc product of join_mul_syn on integer numerators, as a lifted point.

    P, Q are X's blocks over d_X and R, W are Y's over d_Y, with
    d = d_X d_Y and p2, q2, r2 the squared norms of P, Q, R.  Clearing the
    denominators of the rational form, with M = P R and K = R* P* W Q* on
    ints and N = p2 r2 q2, gives

        left  = (M N - (M K) q2) / (d N)
        right = ((R Q) N + ((R K) Q) p2) / (d N)
    """
    mul = mul_coeffs
    K = mul(mul(mul(conj_coeffs(R), conj_coeffs(P)), W), conj_coeffs(Q))
    M = mul(P, R)
    N = p2 * r2 * q2
    left = tuple([m * N - t * q2 for m, t in zip(M, mul(M, K))])
    right = tuple([n * N + t * p2 for n, t in zip(mul(R, Q), mul(mul(R, K), Q))])
    return JoinPoint(Lifted(left, d * N), Lifted(right, d * N))


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
    """`join_point_sample`'s point of inst's join, with Fractions in exact mode."""
    X = join_point_sample(rng, inst.susp_dim, view, mode)
    return JoinPoint(tuple(X.left), tuple(X.right)) if mode == "exact" else X


def _oracle_equivalence(inst, inputs):
    X, Y = inputs
    return compare(join_mul_syn(X, Y, inst), join_mul_alg(X, Y, inst.level + 1))


#: one law per view combination, whose inputs are join points of those views
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
        ORACLE_LAWS, instance, inst, dim=inst.susp_dim, seed=seed, mode=mode,
        suite=lambda law: f"joinmul/{instance}/{law}/{mode}",
        samples=max(1, require_samples(samples) // 9), tolerance=tolerance)


def unit_law_check(inst: ImaginaroidInstance,
                   samples: int = 10000,
                   seed: int = 0,
                   mode: str = "exact",
                   *,
                   tolerance: float = 1e-9) -> list:
    """inl(1) X = X = X inl(1), exact on point constructors, sampled on arcs.

    The H-space unit laws of the join carrier, with samples cycling
    through the three views (kind `cycle`).
    """
    carrier = join_hspace_carrier(inst)._replace(kind="cycle")
    return _carrier_laws(
        HSPACE_UNIT_LAWS, carrier, mode=mode,
        suite=lambda law: f"joinmul/{carrier.name}/unit/{mode}", samples=samples,
        seed=seed, tolerance=tolerance)


# ---------------------------------------------------------------------------
# filler verification on a parameter grid: law(params, inputs) with params
# the quarter-circle grid as a `_LiftedGrid` and inputs = (x,), the corner
# that fixes D_x

_EDGE_ENDPOINTS = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def _edge_params(ends, params):
    """Boundary parameters in scan order: (end, t) and (t, end) for each end, then t."""
    return (pair for end in ends for t in params for pair in ((end, t), (t, end)))


class _LiftedGrid:
    """A quarter grid's pairs, lifted once for every corner and law of a suite.

    `rows[exact]` holds (pair, (numerators, denominator)) for each Fraction
    pair: integers for an exact corner, the pair itself over 1 for a float
    one.  `edges[exact]` holds the boundary parameters in scan order in the
    second form.
    """

    def __init__(self, pairs: list):
        self.rows, self.edges = {}, {}
        for exact, lift_pair in ((True, lift), (False, lambda pair: (pair, 1))):
            lifted_pairs = list(map(lift_pair, pairs))
            self.rows[exact] = list(zip(pairs, lifted_pairs))
            self.edges[exact] = list(_edge_params(map(lift_pair, _EDGE_ENDPOINTS), lifted_pairs))


def _lifted_corner(x: SpherePoint) -> tuple:
    """(one, x, d_x, exact): the corner's reduced-diamond data over d_x, on integers
    for an exact corner, and for a float one with d_x = 1 and x its floats."""
    exact = is_exact(x.coords)
    xn, dx = lift(x.coords) if exact else (x.coords, 1)
    return basis_coords(len(xn), 0, dx), xn, dx, exact


def _unit_residuals(grid: _LiftedGrid, x):
    """(residual, sigma, tau) for each grid point where |D_x|^2 is not 1."""
    one, xn, dx, exact = _lifted_corner(x)
    rows = grid.rows[exact]
    for sigma, (ns, ds) in rows:
        dsx = ds * dx
        for tau, (nt, dt) in rows:
            left, right = _reduced_blocks(ns, nt, one, xn)
            d = dsx * dt
            diff = _sum_squares(left) + _sum_squares(right) - d * d     # |D_x|^2 = 1, times d^2
            if diff:
                yield abs(diff) / Fraction(d * d), sigma, tau


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


def _boundary_pairs(grid: _LiftedGrid, x):
    """(filler value, edge value) for each boundary point where the two differ."""
    one, xn, dx, exact = _lifted_corner(x)
    minus_one = neg_coeffs(one)
    for (ns, ds), (nt, dt) in grid.edges[exact]:
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
    exact = is_exact(x.coords)
    # an exact pole is evaluated on the lifted pairs, a float one on the Fraction pairs
    pairs = [Lifted(*n) if exact else pair for pair, n in params.rows[True]]
    return _worst_pair(
        (filler.evaluate(sigma, tau), ref.evaluate(sigma, tau))
        for sigma in pairs for tau in pairs)


DIAMOND_LAWS = (
    ("filler-unit-norm", _filler_unit_norm, ("corner",)),
    ("filler-boundary", _filler_boundary, ("corner",)),
    ("filler-pole-reduction", _filler_pole_reduction, ("corner",)),
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
    return run_laws(
        DIAMOND_LAWS, instance, _LiftedGrid(quarter_grid(grid)), dim=inst.susp_dim,
        suite=lambda law: f"diamond/{instance}/x/{mode}",
        samples=max(require_samples(samples), 2), seed=seed, mode=mode, tolerance=tolerance)


# ---------------------------------------------------------------------------
# the join carrier as an H-space


def join_hspace_carrier(inst: ImaginaroidInstance) -> Carrier:
    """join(S, S) with the synthetic multiplication and the doubled conjugation.

    Its laws never negate, so the carrier has no negation.  Its conjugation
    (p, q)* = (p*, -q) works on the blocks, so a lifted point stays lifted.
    """
    dim = inst.susp_dim
    zero = (Fraction(0),) * dim

    def conj(X: JoinPoint) -> JoinPoint:
        return JoinPoint(conj_coeffs(X.left), neg_coeffs(X.right))

    return Carrier(
        name=JOIN_INSTANCE.get(inst.name, inst.name),
        unit=JoinPoint(basis_coords(dim, 0, 1), (0,) * dim),
        mul=lambda X, Y: join_mul_syn(X, Y, inst),
        conj=conj,
        structured=tuple(JoinPoint(p, zero) for p in _signed_basis(dim))
        + tuple(JoinPoint(zero, p) for p in _signed_basis(dim)),
        kind="join", dim=dim)
