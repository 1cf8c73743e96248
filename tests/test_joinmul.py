"""Square fillers and the join multiplication against the doubled-algebra oracle."""

import json
from contextlib import nullcontext
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from hopfcheck import cdalg, checks, hopf, joinmul, laws, sampling, spheremodel
from hopfcheck.cdalg import conj_coeffs, mul_coeffs, norm_coeffs
from hopfcheck.checks import compare, max_abs_diff, run_laws
from hopfcheck.cli import main
from hopfcheck.errors import InvariantViolation, PreconditionError, UsageError
from hopfcheck.hopf import fiber_check, hopf_instance
from hopfcheck.joinmul import (DIAMOND_LAWS, VIEW_KINDS, DiamondProblem, _LiftedGrid,
                               diamond_suite, fill_refl_diamond, join_mul_alg, join_mul_syn,
                               join_hspace_carrier, oracle_equivalence_suite,
                               reduced_diamond_filler, sample_join_point, unit_law_check)
from hopfcheck.laws import (_signed_basis, assoc_check, hspace_check, imaginaroid_instance,
                            spheroid_instance)
from hopfcheck.sampling import CounterRng, join_point_sample, quarter_grid, rand_unit
from hopfcheck.spheremodel import (FLOAT_VIEW_EPS, JoinPoint, Lifted, SpherePoint, arc_point,
                                   basis_coords, is_exact, lift)


def F(n, d=1):
    return Fraction(n, d)


E0 = (F(1), F(0))
ARC = (F(3, 5), F(4, 5))
ARC2 = (F(5, 13), F(12, 13))


def verified(name):
    inst = imaginaroid_instance(name)
    assoc_check(inst, samples=60, seed=0)
    assert inst.assoc_verified
    return inst


def unit_sphere(dim, seed, index=0):
    return SpherePoint(rand_unit(CounterRng(seed, "test/joinmul", index), dim, "exact"))


# --- constant-side fillers ----------------------------------------------------

def test_horizontal_pole_filler():
    one = SpherePoint(E0)
    filler = fill_refl_diamond(DiamondProblem(a=-one, a2=one, b=one, b2=one))
    corner = filler.evaluate((F(1), F(0)), (F(1), F(0)))
    assert (corner.left, corner.right) == ((-one).coords, (0, 0))
    # along cs*ct = ss*st the left factor vanishes: a pure inr(1) point
    locus = filler.evaluate((F(3, 5), F(4, 5)), (F(4, 5), F(3, 5)))
    assert (locus.left, locus.right) == ((0, 0), one.coords)


def test_vertical_pole_filler():
    one = SpherePoint(E0)
    filler = fill_refl_diamond(DiamondProblem(a=-one, a2=-one, b=one, b2=-one))
    # left block is a positive multiple of -1: cs*ct + ss*st = 63/65
    pt = filler.evaluate(ARC, ARC2)
    assert pt.left == (F(-63, 65), 0)
    # right block is (ss*ct - cs*st) * 1, which flips sign across sigma = tau
    before = filler.evaluate(ARC2, ARC)   # sigma angle > tau angle
    assert before.right == (F(16, 65), 0)
    assert pt.right == (F(-16, 65), 0)


def test_refl_filler_preconditions():
    a = unit_sphere(2, 3)
    b = unit_sphere(2, 4)
    other = unit_sphere(2, 5)
    # (a, b) is the diamond with both sides constant
    for a2, b2 in ((other, other), (other, b), (a, other), (-a, -b), (a, b)):
        with pytest.raises(UsageError):
            fill_refl_diamond(DiamondProblem(a=a, a2=a2, b=b, b2=b2))


def _kind_filler(kind, problem):
    """The reference: the filler of the named kind, with that kind's preconditions."""
    a, a2, b, b2 = (problem.a.coords, problem.a2.coords,
                    problem.b.coords, problem.b2.coords)
    if kind == "horizontal":
        if b != b2 or a2 != tuple(-c for c in a):
            raise UsageError("horizontal filler needs b = b2 and a2 = -a")

        def evaluate(sigma, tau):
            (cs, ss), (ct, st) = sigma, tau
            return JoinPoint(tuple(cs * ct * p + ss * st * p2 for p, p2 in zip(a, a2)),
                             tuple((ss * ct + cs * st) * q for q in b))

        return joinmul.SquareFiller(problem, evaluate)
    if a != a2 or b2 != tuple(-c for c in b):
        raise UsageError("vertical filler needs a = a2 and b2 = -b")

    def evaluate(sigma, tau):
        (cs, ss), (ct, st) = sigma, tau
        return JoinPoint(tuple((cs * ct + ss * st) * p for p in a),
                         tuple(ss * ct * q + cs * st * q2 for q, q2 in zip(b, b2)))

    return joinmul.SquareFiller(problem, evaluate)


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_refl_filler_matches_the_kind_reference(dim):
    # every configuration some kind accepts gives that kind's values on a grid
    a, b = unit_sphere(dim, 8), unit_sphere(dim, 9)
    cases = [("horizontal", (a, -a, b, b)), ("vertical", (a, a, b, -b))]
    for kind, corners in cases:
        problem = DiamondProblem(*corners)
        got, want = fill_refl_diamond(problem), _kind_filler(kind, problem)
        for sigma in quarter_grid(6):
            for tau in quarter_grid(6):
                assert got.evaluate(sigma, tau).flatten() == want.evaluate(sigma, tau).flatten()


def test_refl_fillers_meet_boundary_contract():
    one = SpherePoint(E0)
    fillers = [
        fill_refl_diamond(DiamondProblem(a=-one, a2=one, b=one, b2=one)),
        fill_refl_diamond(DiamondProblem(a=-one, a2=-one, b=one, b2=-one)),
    ]
    params = quarter_grid(8)
    ends = [(F(1), F(0)), (F(0), F(1))]
    for filler in fillers:
        p = filler.problem
        corners = (p.a.coords, p.a2.coords, p.b.coords, p.b2.coords)
        for fixed in ends:
            for t in params:
                for sigma, tau in ((fixed, t), (t, fixed)):
                    got = filler.evaluate(sigma, tau)
                    assert (got.left, got.right) == joinmul._edge_blocks(sigma, tau, *corners)


def test_edge_blocks_meet_at_the_diamond_corners():
    # corners inl(a), inr(b), inr(b2), inl(a2), and each edge is its glue arc
    a, a2, b, b2 = (unit_sphere(2, 40 + i).coords for i in range(4))
    zero = (F(0),) * 2
    one, end = (F(1), F(0)), (F(0), F(1))
    corners = {(one, one): (a, zero), (end, one): (zero, b),
               (one, end): (zero, b2), (end, end): (a2, zero)}
    for (sigma, tau), blocks in corners.items():
        assert joinmul._edge_blocks(sigma, tau, a, a2, b, b2) == blocks
    c, s = ARC
    assert joinmul._edge_blocks(ARC, one, a, a2, b, b2) == (
        tuple(c * t for t in a), tuple(s * t for t in b))
    assert joinmul._edge_blocks(one, ARC, a, a2, b, b2) == (
        tuple(c * t for t in a), tuple(s * t for t in b2))


def test_edge_blocks_reject_interior_parameters():
    # only the boundary law asks, always on boundary pairs: reaching this is a bug
    a, b = unit_sphere(2, 44).coords, unit_sphere(2, 45).coords
    with pytest.raises(InvariantViolation, match="off the boundary"):
        joinmul._edge_blocks(ARC, ARC2, a, tuple(-t for t in a), b, b)


# --- the reduced diamond filler ------------------------------------------------

def test_reduced_filler_corners_and_edges():
    x = unit_sphere(4, 6)
    filler = reduced_diamond_filler(x)
    one = (F(1),) + (F(0),) * 3
    # sigma = (1,0): the arc from inl(-1) to inr(x)
    for ct, st in quarter_grid(6):
        pt = filler.evaluate((F(1), F(0)), (ct, st))
        assert pt.left == tuple(-ct * c for c in one)
        assert pt.right == tuple(st * c for c in x.coords)
    zero = (F(0),) * 4
    corners = {   # blocks of inl(-1), inr(1), inr(x), inl(x)
        ((F(1), F(0)), (F(1), F(0))): (tuple(-c for c in one), zero),
        ((F(0), F(1)), (F(1), F(0))): (zero, one),
        ((F(1), F(0)), (F(0), F(1))): (zero, x.coords),
        ((F(0), F(1)), (F(0), F(1))): (x.coords, zero),
    }
    for (sigma, tau), blocks in corners.items():
        pt = filler.evaluate(sigma, tau)
        assert (pt.left, pt.right) == blocks


def test_reduced_filler_unit_norm_identity():
    for idx in range(6):
        x = unit_sphere(4, 7, idx)
        filler = reduced_diamond_filler(x)
        for sigma in quarter_grid(5):
            for tau in quarter_grid(5):
                pt = filler.evaluate(sigma, tau)
                assert norm_coeffs(pt.left) + norm_coeffs(pt.right) == 1


def test_reduced_filler_pole_reductions():
    one = SpherePoint(E0)
    north = reduced_diamond_filler(one)
    south = reduced_diamond_filler(-one)
    horiz = fill_refl_diamond(DiamondProblem(a=-one, a2=one, b=one, b2=one))
    vert = fill_refl_diamond(DiamondProblem(a=-one, a2=-one, b=one, b2=-one))
    # the pole row builds its reference from these diamonds
    assert (north.problem, south.problem) == (horiz.problem, vert.problem)
    for sigma in quarter_grid(7):
        for tau in quarter_grid(7):
            assert north.evaluate(sigma, tau).flatten() == \
                horiz.evaluate(sigma, tau).flatten()
            assert south.evaluate(sigma, tau).flatten() == \
                vert.evaluate(sigma, tau).flatten()


def test_reduced_filler_rejects_non_unit():
    with pytest.raises(UsageError):
        reduced_diamond_filler(SpherePoint((F(1, 2), F(1, 2))))


# --- the multiplication table ---------------------------------------------------

def test_point_constructor_table():
    inst = verified("s0")
    a = unit_sphere(2, 8, 0)
    c = unit_sphere(2, 8, 1)
    d = unit_sphere(2, 8, 2)
    b = unit_sphere(2, 8, 3)
    zero = (F(0), F(0))

    def inl(p):
        return JoinPoint(p.coords, zero)

    def inr(p):
        return JoinPoint(zero, p.coords)

    assert join_mul_syn(inl(a), inl(c), inst).flatten() == \
        mul_coeffs(a.coords, c.coords) + zero
    assert join_mul_syn(inl(a), inr(d), inst).flatten() == \
        zero + mul_coeffs(conj_coeffs(a.coords), d.coords)
    assert join_mul_syn(inr(b), inl(c), inst).flatten() == \
        zero + mul_coeffs(c.coords, b.coords)
    assert join_mul_syn(inr(b), inr(d), inst).flatten() == \
        tuple(-t for t in mul_coeffs(d.coords, conj_coeffs(b.coords))) + zero


def test_glue_times_point_rows():
    inst = verified("s0")
    a = unit_sphere(2, 9, 0)
    b = unit_sphere(2, 9, 1)
    c = unit_sphere(2, 9, 2)
    X = JoinPoint(tuple(ARC[0] * t for t in a.coords),
                  tuple(ARC[1] * t for t in b.coords))
    Y = JoinPoint(c.coords, (F(0), F(0)))
    out = join_mul_syn(X, Y, inst)
    ac = mul_coeffs(a.coords, c.coords)
    cb = mul_coeffs(c.coords, b.coords)
    assert out.left == tuple(ARC[0] * t for t in ac)
    assert out.right == tuple(ARC[1] * t for t in cb)


def test_syn_requires_verified_associativity():
    inst = imaginaroid_instance("s2")
    X = sample_join_point(CounterRng(0, "t", 0), inst, "glue", "exact")
    Y = sample_join_point(CounterRng(0, "t", 1), inst, "glue", "exact")
    with pytest.raises(PreconditionError):
        join_mul_syn(X, Y, inst)


def test_alg_oracle_level_cap():
    inst = verified("s2")
    X = sample_join_point(CounterRng(0, "t", 2), inst, "inl", "exact")
    for level in (0, 4):    # level 0 has no halves to double
        with pytest.raises(UsageError, match="within 1..3"):
            join_mul_alg(X, X, level)


def test_alg_oracle_unit_case():
    inst = verified("s0")
    one = JoinPoint((F(1), F(0)), (F(0), F(0)))
    X = sample_join_point(CounterRng(0, "t", 3), inst, "glue", "exact")
    assert join_mul_alg(one, X, 1 + inst.level).flatten() == X.flatten()


#: operand pairs with a block whose dimension is not 2, the s0 suspension's
WRONG_DIMENSION_PAIRS = [
    (JoinPoint((F(1), F(0)), (F(0),)), JoinPoint((F(0), F(1)), (F(0),))),
    (JoinPoint((F(1),), (F(0), F(0))), JoinPoint((F(1), F(0)), (F(0), F(0)))),
    (JoinPoint((F(1), F(0)), (F(0), F(0))), JoinPoint((F(0), F(0), F(1)), (F(0),))),
]


@pytest.mark.parametrize("X,Y", WRONG_DIMENSION_PAIRS)
def test_syn_rejects_blocks_of_the_wrong_dimension(X, Y):
    with pytest.raises(UsageError, match="must have dimension 2"):
        join_mul_syn(X, Y, imaginaroid_instance("s0"), allow_unverified=True)


@pytest.mark.parametrize("X,Y", WRONG_DIMENSION_PAIRS)
def test_alg_oracle_rejects_blocks_of_the_wrong_dimension(X, Y):
    with pytest.raises(UsageError, match="must have dimension 2"):
        join_mul_alg(X, Y, 2)


# --- oracle equivalence (the module's central claim) ----------------------------

@pytest.mark.parametrize("name", ["empty", "s0", "s2"])
def test_oracle_equivalence_exact_all_view_combinations(name):
    inst = verified(name)
    reports = oracle_equivalence_suite(inst, samples=450, seed=13)
    assert len(reports) == 9
    for r in reports:
        assert r.holds, (r.law, r.witness)
        assert r.status == "holds-exact"


def test_oracle_equivalence_float_residuals():
    inst = verified("s2")
    reports = oracle_equivalence_suite(inst, samples=900, seed=14, mode="float")
    assert all(r.holds for r in reports)
    assert max(r.max_residual for r in reports) < 1e-9


def test_syn_agrees_on_alternative_representatives():
    # the arc formula at sigma = (1, 0) must not depend on the right factor b:
    # feeding the pure-inl embedded point gives the same closed form
    inst = verified("s2")
    rngs = [CounterRng(15, "test/rep", i) for i in range(4)]
    a, b, c, d = (SpherePoint(rand_unit(r, 4, "exact")) for r in rngs)
    tau = ARC2
    X = JoinPoint(a.coords, (F(0),) * 4)
    Y = JoinPoint(tuple(tau[0] * t for t in c.coords),
                  tuple(tau[1] * t for t in d.coords))
    got = join_mul_syn(X, Y, inst).flatten()
    # the glue-glue closed form evaluated at cs=1, ss=0 with an arbitrary b
    ac = mul_coeffs(a.coords, c.coords)
    ad = mul_coeffs(conj_coeffs(a.coords), d.coords)
    want = tuple(tau[0] * t for t in ac) + tuple(tau[1] * t for t in ad)
    assert got == want


def test_glue_glue_matches_filler_transport_route():
    # where the factor norms are rational the normalized route is available:
    # evaluate the reduced filler at (sigma, tau) and push it through the
    # factor maps, then compare with the homogeneous implementation
    inst = verified("s2")
    for idx in range(12):
        rngs = [CounterRng(40, "test/filler-route", 4 * idx + k) for k in range(4)]
        a, b, c, d = (rand_unit(r, 4, "exact") for r in rngs)
        sigma, tau = (ARC, ARC2) if idx % 2 else (ARC2, ARC)
        X = JoinPoint(tuple(sigma[0] * t for t in a), tuple(sigma[1] * t for t in b))
        Y = JoinPoint(tuple(tau[0] * t for t in c), tuple(tau[1] * t for t in d))
        ac = mul_coeffs(a, c)
        xhat = mul_coeffs(mul_coeffs(mul_coeffs(conj_coeffs(c), conj_coeffs(a)), d),
                          conj_coeffs(b))
        D = reduced_diamond_filler(SpherePoint(xhat)).evaluate(sigma, tau)
        want_left = tuple(-t for t in mul_coeffs(ac, D.left))
        want_right = mul_coeffs(mul_coeffs(c, D.right), b)
        got = join_mul_syn(X, Y, inst)
        assert got.left == want_left
        assert got.right == want_right


def test_chained_products_stay_exact():
    # products of products have irrational block norms; the multiplication
    # must still chain exactly on the embedded coordinates
    inst = verified("s2")
    pts = [sample_join_point(CounterRng(41, "test/chain", i), inst, "glue", "exact")
           for i in range(3)]
    x, y, z = pts
    lhs = join_mul_syn(join_mul_syn(x, y, inst), z, inst)
    rhs = join_mul_syn(x, join_mul_syn(y, z, inst), inst)
    assert sum(c * c for c in lhs.flatten()) == 1
    assert sum(c * c for c in rhs.flatten()) == 1
    # chained syn products agree with chained oracle products
    lvl = inst.level + 1
    lhs_alg = join_mul_alg(join_mul_alg(x, y, lvl), z, lvl)
    assert lhs.flatten() == lhs_alg.flatten()


def test_glue_degenerates_continuously_to_inl_row():
    inst = verified("s2")
    rng = CounterRng(16, "test/degenerate", 0)
    a = rand_unit(rng, 4, "float")
    b = rand_unit(rng, 4, "float")
    c = rand_unit(rng, 4, "float")
    d = rand_unit(rng, 4, "float")
    eps = 1e-10
    cs = (1 - eps * eps) ** 0.5
    X_arc = JoinPoint(tuple(cs * t for t in a), tuple(eps * t for t in b))
    X_inl = JoinPoint(a, (0.0,) * 4)
    Y = JoinPoint(tuple(ARC2[0] * float(t) for t in c),
                  tuple(ARC2[1] * float(t) for t in d))
    far = join_mul_syn(X_arc, Y, inst).flatten()
    near = join_mul_syn(X_inl, Y, inst).flatten()
    assert max(abs(p - q) for p, q in zip(far, near)) < 1e-9


def test_views_and_products_share_one_zero_block_rule():
    # |q| = 1e-12 is not below FLOAT_VIEW_EPS, but |q|^2 is at most its square:
    # the product calls this point inl
    X = JoinPoint((1.0, 0.0), (1e-12, 0.0))
    inst = verified("s0")
    Y = sample_join_point(CounterRng(0, "test/zero-block", 0), inst, "glue", "float")
    got = join_mul_syn(X, Y, inst)
    assert got.left == mul_coeffs(X.left, Y.left)
    assert got.right == mul_coeffs(conj_coeffs(X.left), Y.right)


def test_exact_zero_block_rule_has_no_slack():
    # |q| = 2e-13 / (1 + 1e-26) is under FLOAT_VIEW_EPS: the float copy is inl,
    # the exact point is an arc and multiplies as one, exactly as the oracle
    t = F(1, 10 ** 13)
    c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    inst = verified("s0")
    rng = CounterRng(0, "test/exact-zero-block", 0)
    X = arc_point(rand_unit(rng, 2, "exact"), rand_unit(rng, 2, "exact"), c, s)
    Y = sample_join_point(rng, inst, "glue", "exact")
    inl_row = (mul_coeffs(X.left, Y.left), mul_coeffs(conj_coeffs(X.left), Y.right))
    got = join_mul_syn(X, Y, inst)
    assert got.flatten() == join_mul_alg(X, Y, inst.level + 1).flatten()
    assert (got.left, got.right) != inl_row
    Xf, Yf = (JoinPoint(tuple(map(float, P.left)), tuple(map(float, P.right)))
              for P in (X, Y))
    got_f = join_mul_syn(Xf, Yf, inst)
    assert got_f.left == mul_coeffs(Xf.left, Yf.left)
    assert got_f.right == mul_coeffs(conj_coeffs(Xf.left), Yf.right)
    assert max(abs(a - float(b)) for a, b in zip(got_f, got)) < 1e-12


# --- the lifted products against the rational form they replaced ----------------

def _rational_join_mul(X, Y, inst):
    """join_mul_syn's body before exact operands were lifted to integers."""
    mul, conj = mul_coeffs, conj_coeffs
    p, q = X.left, X.right
    r, w = Y.left, Y.right
    p2, q2 = norm_coeffs(p), norm_coeffs(q)
    r2, w2 = norm_coeffs(r), norm_coeffs(w)
    eps2 = 0 if is_exact(X.flatten() + Y.flatten()) else FLOAT_VIEW_EPS ** 2

    def neg(u):
        return tuple(-a for a in u)

    if q2 <= eps2:
        return JoinPoint(mul(p, r), mul(conj(p), w))
    if p2 <= eps2:
        return JoinPoint(neg(mul(w, conj(q))), mul(r, q))
    if w2 <= eps2:
        return JoinPoint(mul(p, r), mul(r, q))
    if r2 <= eps2:
        return JoinPoint(neg(mul(w, conj(q))), mul(conj(p), w))
    K = mul(mul(mul(conj(r), conj(p)), w), conj(q))
    M = mul(p, r)
    left = tuple(m - t / (p2 * r2) for m, t in zip(M, mul(M, K)))
    rq = mul(r, q)
    right = tuple(n + t / (r2 * q2) for n, t in zip(rq, mul(mul(r, K), q)))
    return JoinPoint(left, right)


#: level -> imaginaroid; level 3 is the non-associative octonion control
LEVEL_INSTANCES = {1: "s0", 2: "s2", 3: "octonion-control"}
ARCS = (ARC, ARC2, (F(8, 17), F(15, 17)))


def _operand(data, inst, view):
    """A join point of the given view: sampled (exact or float) or built from
    signed basis vectors, with any integral Fraction coordinate possibly an int."""
    dim = inst.susp_dim
    if data.draw(st.booleans()):
        rng = CounterRng(data.draw(st.integers(0, 2 ** 32)), "test/lifted-syn", 0)
        X = sample_join_point(rng, inst, view, data.draw(st.sampled_from(("exact", "float"))))
    else:
        u, v = (data.draw(st.sampled_from(_signed_basis(dim))) for _ in range(2))
        c, s = {"inl": E0, "inr": E0[::-1]}.get(view) or data.draw(st.sampled_from(ARCS))
        X = JoinPoint(tuple(c * t for t in u), tuple(s * t for t in v))
    to_int = data.draw(st.lists(st.booleans(), min_size=2 * dim, max_size=2 * dim))
    coords = tuple(int(c) if flag and type(c) is Fraction and c.denominator == 1 else c
                   for c, flag in zip(X.flatten(), to_int))
    return JoinPoint(coords[:dim], coords[dim:])


@pytest.mark.parametrize("view_y", VIEW_KINDS)
@pytest.mark.parametrize("view_x", VIEW_KINDS)
@pytest.mark.parametrize("level", sorted(LEVEL_INSTANCES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_lifted_join_mul_matches_rational_form(level, view_x, view_y, data):
    # inl/inr on either side reach the four zero-norm branches, glue x glue
    # the integer arc; equal values and equal scalar types, int mixes included
    inst = imaginaroid_instance(LEVEL_INSTANCES[level])
    X, Y = _operand(data, inst, view_x), _operand(data, inst, view_y)
    got = join_mul_syn(X, Y, inst, allow_unverified=True)
    assert _typed(got) == _typed(_rational_join_mul(X, Y, inst))


def _without_k_terms(original):
    # K = R* P* W Q* vanishes with W: drops M K from left and (R K) Q from right
    def perturbed(P, Q, R, W, p2, q2, r2, d):
        return original(P, Q, R, [0] * len(W), p2, q2, r2, d)
    return perturbed


def _operands_swapped(original):
    # the product Y X in place of X Y: still a unit point, so only the oracle sees it
    def perturbed(P, Q, R, W, p2, q2, r2, d):
        return original(R, W, P, Q, r2, sum(c * c for c in W), p2, d)
    return perturbed


def test_broken_lifted_arc_fails_oracle_equivalence(monkeypatch):
    monkeypatch.setattr(joinmul, "_arc_blocks", _operands_swapped(joinmul._arc_blocks))
    reports = {r.law: r for r in oracle_equivalence_suite(verified("s2"), samples=90, seed=20)}
    assert {law for law, r in reports.items() if r.status == "fails"} == {
        "oracle-equivalence[glue,glue]"}
    witness = reports["oracle-equivalence[glue,glue]"].witness
    assert len(witness["inputs"]) == 2 and witness["lhs"] != witness["rhs"]


def test_lifted_arc_without_k_terms_leaves_the_sphere(monkeypatch):
    monkeypatch.setattr(joinmul, "_arc_blocks", _without_k_terms(joinmul._arc_blocks))
    inst = verified("s2")
    X, Y = (join_point_sample(CounterRng(21, "test/no-k", i), inst.susp_dim, "glue", "exact")
            for i in range(2))
    with pytest.raises(UsageError, match="not on the unit sphere"):
        join_mul_syn(X, Y, inst)


#: level -> imaginaroid for the lifted tests, levels 0-3
LIFTED_INSTANCES = {0: "empty", **LEVEL_INSTANCES}


@pytest.mark.parametrize("view_y", VIEW_KINDS)
@pytest.mark.parametrize("view_x", VIEW_KINDS)
@pytest.mark.parametrize("level", sorted(LIFTED_INSTANCES))
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_lifted_operands_give_the_rational_form(level, view_x, view_y, seed):
    # lifted points multiply to a lifted point with the rational form's values;
    # their Fraction copies take the rational form itself, in Fractions
    inst = imaginaroid_instance(LIFTED_INSTANCES[level])
    X, Y = (join_point_sample(CounterRng(seed, "test/lifted-operands", i), inst.susp_dim, view,
                              "exact") for i, view in enumerate((view_x, view_y)))
    got = join_mul_syn(X, Y, inst, allow_unverified=True)
    assert type(got.left) is Lifted and got.left.den == got.right.den
    fx, fy = (JoinPoint(tuple(P.left), tuple(P.right)) for P in (X, Y))
    want = _rational_join_mul(fx, fy, inst)
    assert tuple(got) == tuple(want)
    assert _typed(join_mul_syn(fx, fy, inst, allow_unverified=True)) == _typed(want)
    assert max_abs_diff(got, want) == 0


def test_lifted_products_build_no_fraction(monkeypatch):
    # three chained products and a compare on lifted s7 points: no Fraction is
    # built and nothing is lifted again; a report then builds the Fractions
    inst = verified("s2")
    X, Y, Z = (join_point_sample(CounterRng(7, "test/no-fraction", i), inst.susp_dim, "glue",
                                 "exact") for i in range(3))
    counts = {"Fraction": 0, "lift": 0}

    class CountingFraction(Fraction):
        def __new__(cls, *args):
            counts["Fraction"] += 1
            return super().__new__(cls, *args)

    def counting_lift(a):
        counts["lift"] += 1
        return lift(a)

    for module in (spheremodel, cdalg, joinmul, checks, hopf, laws, sampling):
        for name, stand_in in (("Fraction", CountingFraction), ("lift", counting_lift)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, stand_in)
    level = inst.level + 1
    lhs = join_mul_syn(join_mul_syn(join_mul_syn(X, Y, inst), Z, inst), X, inst)
    rhs = join_mul_alg(join_mul_alg(join_mul_alg(X, Y, level), Z, level), X, level)
    residual, _, _ = compare(lhs, rhs)
    assert residual == 0 and counts == {"Fraction": 0, "lift": 0}
    assert len(checks.coeffs_to_json(lhs)) == 8 and counts == {"Fraction": 8, "lift": 0}


def _sign_flipped(original):
    def flipped(a, b):      # one output coordinate with the wrong sign
        out = original(a, b)
        return out[:-1] + (-out[-1],)
    return flipped


def test_broken_kernel_fails_the_lifted_suites(monkeypatch):
    # every lifted product runs on the traced kernel, read from cdalg at call time
    inst = verified("s2")
    original = cdalg._traced_kernel
    monkeypatch.setattr(cdalg, "_traced_kernel", lambda n: _sign_flipped(original(n)))
    reports = (hspace_check(join_hspace_carrier(inst), samples=20, seed=4)
               + hspace_check(spheroid_instance("s3"), samples=20, seed=4)
               + fiber_check(hopf_instance("quaternionic"), samples=20, seed=4))
    failed = [r for r in reports if not r.holds]
    assert {r.law for r in failed} >= {"left-unit", "right-unit", "fiber-completeness"}
    for r in failed:
        assert not r.expected and {"inputs", "lhs", "rhs"} <= set(r.witness)
        assert all("/" in c for x in r.witness["inputs"] for c in _scalars(x))


def _scalars(value):
    return [c for v in value for c in _scalars(v)] if isinstance(value, list) else [value]


@pytest.mark.parametrize("argv", [("hspace", "--instance", "s7"),
                                  ("fibration", "--instance", "quaternionic")])
def test_cli_reports_a_raising_join_law_as_a_failure(argv, monkeypatch, tmp_path, capsys):
    # the broken product leaves the sphere, so JoinPoint raises inside the laws
    monkeypatch.setattr(joinmul, "_arc_blocks", _without_k_terms(joinmul._arc_blocks))
    monkeypatch.delenv("HOPFCHECK_SEED", raising=False)
    path = tmp_path / "out.json"
    assert main([*argv, "--samples", "90", "--format", "json", "--output", str(path)]) == 1
    assert capsys.readouterr().err == ""
    raised = [r for r in json.loads(path.read_text())["reports"]
              if "error" in r.get("witness", {})]
    assert raised
    for r in raised:
        assert r["status"] == "fails" and not r["expected"]
        assert r["witness"]["error"].startswith(
            "UsageError: join point is not on the unit sphere")
        assert len(r["witness"]["inputs"]) == 2


# --- unit laws and the grid suite ------------------------------------------------

@pytest.mark.parametrize("name", ["empty", "s0", "s2"])
def test_unit_laws(name):
    inst = verified(name)
    reports = unit_law_check(inst, samples=120, seed=17)
    assert {r.law for r in reports} == {"left-unit", "right-unit"}
    assert all(r.holds for r in reports)
    sampled = unit_law_check(inst, samples=300, seed=17, mode="float")
    assert all(r.holds for r in sampled)
    assert max(r.max_residual for r in sampled) < 1e-9


def test_diamond_suite_exact():
    inst = imaginaroid_instance("s2")
    reports = diamond_suite(inst, grid=8, samples=12, seed=18)
    assert {r.law for r in reports} == {
        "filler-unit-norm", "filler-boundary", "filler-pole-reduction"}
    assert all(r.holds for r in reports)
    assert all(r.status == "holds-exact" for r in reports)


@pytest.mark.parametrize("grid", [0, -3])
def test_diamond_suite_rejects_an_empty_grid(grid):
    # an empty grid would pass every law on zero grid points
    with pytest.raises(UsageError, match="grid must be >= 1"):
        diamond_suite(imaginaroid_instance("s2"), grid=grid, samples=2)


# --- the exact grid laws against the Fraction bodies they replaced -------------

def _fraction_unit_norm(params, inputs):
    (x,) = inputs
    filler = reduced_diamond_filler(x)
    worst = 0
    at = None
    for sigma in params:
        for tau in params:
            pt = filler.evaluate(sigma, tau)
            r = norm_coeffs(pt.left) + norm_coeffs(pt.right) - 1
            if r < 0:
                r = -r
            if r > worst:
                worst, at = r, (sigma, tau)
    if worst > 0:
        return worst, at, "unit"
    return 0, None, None


def _fraction_boundary(params, inputs):
    (x,) = inputs
    filler = reduced_diamond_filler(x)
    p = filler.problem
    corners = (p.a.coords, p.a2.coords, p.b.coords, p.b2.coords)
    worst = 0
    bad = None
    for fixed in ((F(1), F(0)), (F(0), F(1))):
        for t in params:
            for sigma, tau in ((fixed, t), (t, fixed)):
                got = filler.evaluate(sigma, tau)
                want = JoinPoint(*joinmul._edge_blocks(sigma, tau, *corners))
                r = max_abs_diff(got, want)
                if r > worst:
                    worst, bad = r, (got, want)
    if worst > 0:
        return worst, bad[0], bad[1]
    return 0, None, None


def _fraction_pole_reduction(params, inputs):
    (x,) = inputs
    if x.coords not in (basis_coords(x.dim, 0, 1), basis_coords(x.dim, 0, -1)):
        return 0, None, None
    filler = reduced_diamond_filler(x)
    ref = fill_refl_diamond(filler.problem)
    worst = 0
    bad = None
    for sigma in params:
        for tau in params:
            got, want = filler.evaluate(sigma, tau), ref.evaluate(sigma, tau)
            r = max_abs_diff(got, want)
            if r > worst:
                worst, bad = r, (got, want)
    if worst > 0:
        return worst, bad[0], bad[1]
    return 0, None, None


_GRID_LAW_REFERENCES = ((joinmul._filler_unit_norm, _fraction_unit_norm),
                        (joinmul._filler_boundary, _fraction_boundary),
                        (joinmul._filler_pole_reduction, _fraction_pole_reduction))


def _typed(value):
    """The value with each scalar tagged by its type; points and pairs become tuples."""
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (tuple, list, JoinPoint)):
        return tuple(_typed(v) for v in value)
    return type(value).__name__, value


@st.composite
def exact_corners(draw):
    dim = draw(st.sampled_from((1, 2, 4)))
    if draw(st.booleans()):
        return SpherePoint.basis(dim, 0, draw(st.sampled_from((1, -1))))
    rng = CounterRng(draw(st.integers(0, 2 ** 32)), "test/filler-grid", 0)
    return SpherePoint(rand_unit(rng, dim, "exact"))


def _swapped_blocks(sigma, tau, one, x, original=joinmul._reduced_blocks):
    # still on the unit sphere, so the Fraction bodies run; off every edge value
    return original(sigma, tau, one, x)[::-1]


@settings(max_examples=60, deadline=None)
@given(exact_corners(), st.integers(1, 8), st.booleans())
def test_exact_grid_laws_match_fraction_bodies(x, grid, perturbed):
    params = quarter_grid(grid)
    lifted_grid = _LiftedGrid(params)
    patch = mock.patch.object(joinmul, "_reduced_blocks", _swapped_blocks)
    with patch if perturbed else nullcontext():
        for fast, reference in _GRID_LAW_REFERENCES:
            assert _typed(fast(lifted_grid, (x,))) == _typed(reference(params, (x,)))
        if perturbed:
            assert joinmul._filler_boundary(lifted_grid, (x,))[0] > 0
            if x.coords in (basis_coords(x.dim, 0, 1), basis_coords(x.dim, 0, -1)):
                assert joinmul._filler_pole_reduction(lifted_grid, (x,))[0] > 0


@st.composite
def float_corners(draw):
    dim = draw(st.sampled_from((1, 2, 4)))
    if draw(st.booleans()):
        sign = draw(st.sampled_from((1, -1)))
        return SpherePoint(tuple(float(c) for c in SpherePoint.basis(dim, 0, sign).coords))
    rng = CounterRng(draw(st.integers(0, 2 ** 32)), "test/filler-grid/float", 0)
    return SpherePoint(rand_unit(rng, dim, "float"))


@settings(max_examples=40, deadline=None)
@given(float_corners(), st.integers(1, 8), st.booleans())
@example(SpherePoint((1.0,)), 6, False)
@example(SpherePoint((-1.0,)), 6, True)
@example(SpherePoint((1.0, 0.0, 0.0, 0.0)), 5, True)
@example(SpherePoint((-1.0, 0.0, 0.0, 0.0)), 5, False)
def test_float_grid_laws_match_square_filler_bodies(x, grid, perturbed):
    # the reference bodies evaluate through SquareFiller: same values, bit for bit
    params = quarter_grid(grid)
    lifted_grid = _LiftedGrid(params)
    patch = mock.patch.object(joinmul, "_reduced_blocks", _swapped_blocks)
    with patch if perturbed else nullcontext():
        for fast, reference in _GRID_LAW_REFERENCES:
            assert _typed(fast(lifted_grid, (x,))) == _typed(reference(params, (x,)))


def _dropped_left(original):
    # shrinks the norm, so the residual |L|^2 + |R|^2 - 1 is negative
    def perturbed(*args):
        left, right = original(*args)
        return tuple(0 * c for c in left), right
    return perturbed


def _negated_right(original):
    def perturbed(*args):
        left, right = original(*args)
        return left, tuple(-c for c in right)
    return perturbed


_ALL_GRID_LAWS = {"filler-unit-norm", "filler-boundary", "filler-pole-reduction"}


@pytest.mark.parametrize("target, perturb, failing, mode", [
    ("_reduced_blocks", _dropped_left, _ALL_GRID_LAWS, "exact"),
    ("_edge_blocks", _negated_right, {"filler-boundary"}, "exact"),
    ("_reduced_blocks", _dropped_left, _ALL_GRID_LAWS, "float"),
    ("_edge_blocks", _negated_right, {"filler-boundary"}, "float"),
], ids=["filler", "edge", "filler-float", "edge-float"])
def test_broken_filler_fails_its_grid_laws(target, perturb, failing, mode, monkeypatch):
    monkeypatch.setattr(joinmul, target, perturb(getattr(joinmul, target)))

    def draw_input(kind, rng, dim, mode, i, drawn, tolerance):
        # samples 3 and 4 are the poles, so the pole row runs on them
        if i >= 3:
            return SpherePoint.basis(4, 0, 7 - 2 * i)
        return SpherePoint(rand_unit(rng, 4, mode))

    monkeypatch.setattr(checks, "draw_input", draw_input)
    reports = run_laws(
        DIAMOND_LAWS, "s7", _LiftedGrid(quarter_grid(6)), dim=4,
        suite=lambda law: "test/broken-filler", samples=5, seed=19, mode=mode)
    by_law = {r.law: r for r in reports}
    assert {law for law, r in by_law.items() if r.status == "fails"} == failing
    for law in failing:
        assert by_law[law].witness is not None
    if "filler-pole-reduction" in failing:
        # the pole row evaluates through JoinPoint, whose unit check raises
        # on the broken filler: the law fails with the error as its witness
        pole = by_law["filler-pole-reduction"].witness
        assert pole["inputs"] == [["1/1", "0/1", "0/1", "0/1"]]
        assert pole["error"].startswith("UsageError: join point is not on the unit sphere")
    if "filler-unit-norm" in failing:
        unit = by_law["filler-unit-norm"]
        scalar = Fraction if mode == "exact" else float
        (x,) = (tuple(map(scalar, coords)) for coords in unit.witness["inputs"])
        sigma, tau = (tuple(map(Fraction, pair)) for pair in unit.witness["lhs"])
        one = (F(1),) + (F(0),) * (len(x) - 1)
        left, right = joinmul._reduced_blocks(sigma, tau, one, x)
        assert unit.witness["rhs"] == "unit"
        assert float(abs(norm_coeffs(left) + norm_coeffs(right) - 1)) == unit.max_residual


def _lifted_pair(pair):
    return Lifted(*lift(pair))


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_lifted_evaluate_matches_the_fraction_one(dim):
    # the pole row evaluates both fillers on lifted pairs: same points, as Lifted blocks
    a, b = unit_sphere(dim, 8), unit_sphere(dim, 9)
    corners = (unit_sphere(dim, 10), SpherePoint.basis(dim, 0), SpherePoint.basis(dim, 0, -1))
    fillers = [reduced_diamond_filler(x) for x in corners] + [
        fill_refl_diamond(DiamondProblem(a, -a, b, b)),
        fill_refl_diamond(DiamondProblem(a, a, b, -b))]
    params = quarter_grid(8)
    for filler in fillers:
        for sigma in params:
            for tau in params:
                got = filler.evaluate(_lifted_pair(sigma), _lifted_pair(tau))
                assert type(got.left) is Lifted and type(got.right) is Lifted
                assert tuple(got) == tuple(filler.evaluate(sigma, tau))


def test_lifted_evaluate_reports_an_off_sphere_point_as_the_fraction_one(monkeypatch):
    monkeypatch.setattr(joinmul, "_reduced_blocks", _dropped_left(joinmul._reduced_blocks))
    filler = reduced_diamond_filler(unit_sphere(4, 11))
    for sigma, tau in ((ARC, ARC2), (E0, ARC), (ARC2, E0)):
        with pytest.raises(UsageError) as fraction_route:
            filler.evaluate(sigma, tau)
        with pytest.raises(UsageError) as lifted_route:
            filler.evaluate(_lifted_pair(sigma), _lifted_pair(tau))
        message = str(lifted_route.value)
        assert message == str(fraction_route.value)
        assert message.startswith("join point is not on the unit sphere: |x|^2 = ")


@pytest.mark.parametrize("x", [SpherePoint.basis(dim, 0, sign) for dim in (1, 4) for sign in (1, -1)]
                         + [unit_sphere(dim, 12) for dim in (2, 4)],
                         ids=["n1", "s1", "n4", "s4", "r2", "r4"])
def test_exact_grid_laws_stay_on_integers(x, monkeypatch):
    # a correct filler on an exact corner builds no Fraction, takes no generic norm,
    # and the pole row evaluates both fillers on lifted pairs
    def fallback(*args):
        raise AssertionError("an exact grid law left the integer path")

    def on_lifted_pairs(make):
        def wrapped(*args):
            filler = make(*args)

            def evaluate(sigma, tau):
                assert type(sigma) is Lifted and type(tau) is Lifted
                point = filler.evaluate(sigma, tau)
                assert type(point.left) is Lifted and type(point.right) is Lifted
                return point

            return joinmul.SquareFiller(filler.problem, evaluate)
        return wrapped

    monkeypatch.setattr(joinmul, "Fraction", fallback)
    for name in ("reduced_diamond_filler", "fill_refl_diamond"):
        monkeypatch.setattr(joinmul, name, on_lifted_pairs(getattr(joinmul, name)))
    grid = _LiftedGrid(quarter_grid(8))
    for law, evaluate, _ in DIAMOND_LAWS:
        assert evaluate(grid, (x,)) == (0, None, None), law


# --- two float points in join_mul_syn against the rational form's scans ----------

def _as_floats(a: tuple) -> tuple:
    """The reference conversion of an exact point: exact zeros stay int 0."""
    return tuple([float(x) if x else 0 for x in a])


def _float_view_points(inst, seed):
    """Float join points of each view: samples, signed zero blocks, a block whose
    squared norm is exactly FLOAT_VIEW_EPS ** 2 (zero) or just above it (an arc),
    the carrier's int unit and its float form, whose zeros are ints."""
    dim = inst.susp_dim
    rng = CounterRng(seed, "test/float-syn", dim)
    points = {view: [join_point_sample(rng, dim, view, "float") for _ in range(4)]
              for view in VIEW_KINDS}
    u = sampling.rand_point(rng, dim, "float")
    signed = ((-0.0,) * dim, tuple(-0.0 if k % 2 else 0.0 for k in range(dim)))
    at_eps = (FLOAT_VIEW_EPS,) + (-0.0,) * (dim - 1)
    above = (FLOAT_VIEW_EPS * (1 + 2 ** -40),) + (0.0,) * (dim - 1)
    assert spheremodel._sum_squares(at_eps) == FLOAT_VIEW_EPS ** 2
    points["inl"] += [JoinPoint(u, z) for z in signed + (at_eps,)]
    points["inl"] += [JoinPoint(_as_floats(basis_coords(dim, 0, Fraction(1))), (0,) * dim),
                      join_hspace_carrier(inst).unit]
    points["inr"] += [JoinPoint(z, u) for z in signed + (at_eps,)]
    points["glue"] += [JoinPoint(u, above), JoinPoint(above, u)]
    return points


@pytest.mark.parametrize("view_y", VIEW_KINDS)
@pytest.mark.parametrize("view_x", VIEW_KINDS)
@pytest.mark.parametrize("level", sorted(LEVEL_INSTANCES))
def test_float_join_mul_matches_the_generic_branch(level, view_x, view_y, monkeypatch):
    # two float points skip the scans; the product is the rational form's, bit for
    # bit, signed zeros included (the reference reads norms through norm_coeffs and
    # the zero-block bound through is_exact)
    inst = imaginaroid_instance(LEVEL_INSTANCES[level])
    points = _float_view_points(inst, level)

    def scanned(*args):
        raise AssertionError("the float branch scanned an operand")

    monkeypatch.setattr(joinmul, "is_exact", scanned)
    for X in points[view_x]:
        for Y in points[view_y]:
            if type(X.left[0]) is not float and type(Y.left[0]) is not float:
                continue    # the int unit times itself: an exact product, scanned
            got = join_mul_syn(X, Y, inst, allow_unverified=True)
            assert repr(tuple(got)) == repr(tuple(_rational_join_mul(X, Y, inst)))


# --- the join carrier's conjugation on blocks ---------------------------------------

def _block_forms(X):
    """Each block's numerators and denominator if lifted, else its repr (signed zeros
    and scalar types included)."""
    return tuple((b.nums, b.den) if type(b) is Lifted else repr(b) for b in (X.left, X.right))


@pytest.mark.parametrize("level", sorted(LIFTED_INSTANCES))
def test_join_carrier_conjugates_as_the_flattened_point(level):
    # (p, q)* = (p*, -q) on the blocks is the doubled conjugation of the flattened
    # point, sliced back: float points with signed zeros and the float unit's int
    # zeros, the carrier's unit and structured points, lifted and Fraction samples
    inst = imaginaroid_instance(LIFTED_INSTANCES[level])
    dim, carrier = inst.susp_dim, join_hspace_carrier(inst)
    points = [X for view_points in _float_view_points(inst, level).values() for X in view_points]
    points += [carrier.unit, *carrier.structured]
    rng = CounterRng(level, "test/join-conj", 0)
    points += [X for view in VIEW_KINDS for X in (join_point_sample(rng, dim, view, "exact"),
                                                   sample_join_point(rng, inst, view, "exact"))]
    for X in points:
        flat = conj_coeffs(X.flatten())
        assert _block_forms(carrier.conj(X)) == _block_forms(JoinPoint(flat[:dim], flat[dim:]))
