"""Sphere, suspension and join coordinate models."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfcheck import hopf, spheremodel
from hopfcheck.cdalg import _structured_elements
from hopfcheck.errors import UsageError
from hopfcheck.sampling import CounterRng, rand_point, rand_quarter_pair, rand_unit, stereographic
from hopfcheck.joinmul import join_hspace_carrier, reduced_diamond_filler
from hopfcheck.laws import _signed_basis, _sphere_carrier, imaginaroid_instance, spheroid_instance
from hopfcheck.spheremodel import (FLOAT_POINT_EPS, JoinPoint, Lifted, SpherePoint,
                                   _check_unit, _sum_squares, arc_point, basis_coords,
                                   block_dim_error, is_exact, join_embed, lift, lifted,
                                   neg_coeffs, norm_coeffs)


def F(n, d=1):
    return Fraction(n, d)


def rational_unit(dim, seed, index=0):
    return SpherePoint(rand_unit(CounterRng(seed, "test/unit", index), dim, "exact"))


# --- sphere points ----------------------------------------------------------

def test_sphere_point_requires_unit_norm():
    SpherePoint((F(3, 5), F(4, 5)))
    with pytest.raises(UsageError):
        SpherePoint((F(1, 2), F(1, 2)))


@pytest.mark.parametrize("make,message", [
    (lambda: SpherePoint((F(1, 2), F(1, 2))), "sphere point is not on the unit sphere: |x|^2 = 1/2"),
    (lambda: SpherePoint((1, 1)), "sphere point is not on the unit sphere: |x|^2 = 2"),
    (lambda: JoinPoint((F(3, 5),), (F(4, 5), F(1, 7))),
     "join point is not on the unit sphere: |x|^2 = 50/49"),
    (lambda: JoinPoint((), ()), "join point is not on the unit sphere: |x|^2 = 0"),
])
def test_off_sphere_exact_point_message(make, message):
    with pytest.raises(UsageError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize("coords", [
    (math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0), (math.nan, F(1)),
])
def test_non_finite_point_is_rejected(coords):
    with pytest.raises(UsageError):
        SpherePoint(coords)
    with pytest.raises(UsageError):
        JoinPoint(coords[:1], coords[1:])


# --- the unit check against the body it replaced ------------------------------------

def _check_unit_before(coords, what):
    """_check_unit's body before a float first coordinate skipped the exactness scan."""
    if not any(isinstance(c, float) for c in coords):
        n, d = lift(coords)
        if _sum_squares(n) != d * d:
            raise UsageError(
                f"{what} is not on the unit sphere: |x|^2 = {norm_coeffs(coords)}")
        return
    total = _sum_squares(coords)
    if not abs(total - 1) <= FLOAT_POINT_EPS:
        raise UsageError(f"{what} is off the unit sphere by {abs(total - 1):.3e}")


def _unit_message(check, coords):
    try:
        check(coords, "point")
    except UsageError as err:
        return str(err)
    return None


@pytest.mark.parametrize("coords", [
    (1.0, 0.0), (0.6, 0.8), (-0.0, 1.0), (1.0, 1.0), (0.5, 0.5),          # float first
    (math.nan, 0.0), (math.inf, 0.0), (math.nan, F(1)), (0.6, F(4, 5)),
    (F(3, 5), F(4, 5)), (1, 0), (F(1, 2), F(1, 2)), (1, 1), (F(2),),    # exact first
    (F(1), math.nan), (F(3, 5), 0.8), (0, 1.0), (F(1), 0.0, 0.5),        # mixed
    (),
], ids=repr)
def test_check_unit_matches_the_body_it_replaced(coords):
    assert is_exact(coords) == (not any(isinstance(c, float) for c in coords))
    assert _unit_message(_check_unit, coords) == _unit_message(_check_unit_before, coords)


def _message(make):
    try:
        make()
    except UsageError as err:
        return str(err)
    return None


_INSIDE, _OUTSIDE = math.sqrt(0.9 * FLOAT_POINT_EPS), math.sqrt(1.1 * FLOAT_POINT_EPS)


@pytest.mark.parametrize("left,right", [
    ((1.0, 0.0), (0.0, 0.0)), ((0.6,), (0.8,)), ((-0.0, 0.6), (-0.8, -0.0)),
    ((1.0, 0, 0, 0), (0, 0, 0, 0)),            # a float unit with int zeros
    ((math.nan, 0.0), (0.0, 0.0)), ((0.6,), (math.nan,)),
    ((math.inf,), (0.0,)), ((0.0,), (-math.inf,)), ((math.inf,), (-math.inf,)),
    ((1.0,), (_INSIDE,)), ((1.0,), (_OUTSIDE,)),
    ((math.sqrt(1 - 0.9 * FLOAT_POINT_EPS),), (0.0,)),
    ((math.sqrt(1 - 1.1 * FLOAT_POINT_EPS),), (0.0,)),
    ((0.5, 0.5), (0.5, 0.4)), ((0.6,), (F(4, 5),)), ((0.0,), ()),
], ids=repr)
def test_float_join_point_check_matches_the_concatenated_one(left, right, monkeypatch):
    want = _message(lambda: _check_unit(left + right, "join point"))
    # a float first coordinate takes one running sum, never the concatenated check
    monkeypatch.setattr(spheremodel, "_check_unit", None)
    assert _message(lambda: JoinPoint(left, right)) == want


def test_points_are_values():
    p, q = (F(3, 5), F(4, 5)), (0.6, 0.8)
    assert SpherePoint(p) == SpherePoint(p) and SpherePoint(p) != SpherePoint(q)
    assert JoinPoint(p, ()) == JoinPoint(p, ()) != JoinPoint((), p)
    assert len({SpherePoint(p), SpherePoint(tuple(p)), JoinPoint(p, ()), JoinPoint(p, ())}) == 2
    assert SpherePoint(p) != p and JoinPoint(p, ()) != (p, ())
    for x, name in ((SpherePoint(p), "coords"), (JoinPoint(p, ()), "left")):
        with pytest.raises(AttributeError):
            setattr(x, name, q)
        with pytest.raises(AttributeError):
            delattr(x, name)
        with pytest.raises(AttributeError):
            x.other = q
    assert repr(JoinPoint((1,), ())) == "JoinPoint(left=(1,), right=())"


def test_point_check_is_a_class_hook(monkeypatch):
    # a profiler counts point checks by rebinding __post_init__ on the class
    seen = []
    for cls in (SpherePoint, JoinPoint):
        def hook(self, check=cls.__post_init__):
            seen.append(type(self))
            check(self)
        monkeypatch.setattr(cls, "__post_init__", hook)
    SpherePoint((1, 0))
    with pytest.raises(UsageError):
        JoinPoint((1,), (1,))
    assert seen == [SpherePoint, JoinPoint]


def test_stereographic_lands_on_sphere():
    for vec in [(F(1, 3),), (F(2), F(-5, 7)), (F(0), F(0), F(4, 9))]:
        pt = SpherePoint(stereographic(vec))
        assert sum(c * c for c in pt.coords) == 1


# --- the embedding ----------------------------------------------------------

def test_embed_endpoints_give_injections():
    u = rational_unit(2, 1)
    v = rational_unit(2, 2)
    zero = (F(0),) * 2
    left = join_embed(u, v, F(1), F(0))
    assert (left.left, left.right) == (u.coords, zero)
    right = join_embed(u, v, F(0), F(1))
    assert (right.left, right.right) == (zero, v.coords)


def test_embed_interior_is_unit_and_recovers_exactly():
    u = rational_unit(4, 3)
    v = rational_unit(4, 4)
    x = join_embed(u, v, F(3, 5), F(4, 5))
    assert x.left == tuple(F(3, 5) * c for c in u.coords)
    assert x.right == tuple(F(4, 5) * c for c in v.coords)
    assert sum(c * c for c in x.flatten()) == 1


def test_embed_rejects_bad_arc_parameters():
    u = rational_unit(2, 5)
    v = rational_unit(2, 6)
    with pytest.raises(UsageError):
        join_embed(u, v, F(1, 2), F(1, 2))
    with pytest.raises(UsageError):
        join_embed(u, v, F(-3, 5), F(4, 5))


def test_embed_accepts_float_arc_parameters_within_the_point_slack():
    u = SpherePoint((1.0, 0.0))
    v = SpherePoint((0.0, 1.0))
    c = 0.6
    s = math.sqrt(1 - c * c + 0.5 * FLOAT_POINT_EPS)
    x = join_embed(u, v, c, s)
    assert (x.left, x.right) == ((c, 0.0), (0.0, s))
    with pytest.raises(UsageError, match="quarter circle"):
        join_embed(u, v, c, math.sqrt(1 - c * c + 10 * FLOAT_POINT_EPS))
    with pytest.raises(UsageError, match="quarter circle"):
        join_embed(u, v, -0.6, 0.8)


def test_arc_point_leaves_the_quarter_check_to_join_embed():
    # a negative parameter still gives a unit point, so only join_embed refuses it
    u = rational_unit(2, 7)
    v = rational_unit(2, 8)
    x = arc_point(u.coords, v.coords, F(-3, 5), F(4, 5))
    assert x.left == tuple(F(-3, 5) * c for c in u.coords)
    assert x.right == tuple(F(4, 5) * c for c in v.coords)
    with pytest.raises(UsageError, match="join point"):
        arc_point(u.coords, v.coords, F(1, 2), F(1, 2))


def test_block_dim_error_names_every_operands_blocks():
    X = JoinPoint((F(1), F(0)), (F(0),))
    Y = JoinPoint((F(0), F(0), F(1)), (F(0),))
    err = block_dim_error(2, X, Y)
    assert isinstance(err, UsageError)
    assert str(err) == "join point blocks must have dimension 2, got 2 and 1; 3 and 1"


# --- suspension negation and conjugation on the suspension carrier ----------

MERIDIAN_PARAMS = ((F(5, 13), F(12, 13)), (F(-3, 5), F(4, 5)), (F(8, 17), F(-15, 17)))


@pytest.mark.parametrize("name", ["empty", "s0", "s2"])
def test_suspension_carrier_maps_follow_the_meridians(name):
    # the spheroid structure on susp(A) that the imaginaroid suites run: conj fixes
    # both poles and sends the meridian through a to the one through -a, neg swaps
    # the poles; (c, s) runs over the full circle
    inst = imaginaroid_instance(name)
    carrier = _sphere_carrier(f"susp({name})", inst.susp_dim)
    conj, neg = carrier.conj, carrier.neg
    north, south = (basis_coords(inst.susp_dim, 0, F(sign)) for sign in (1, -1))
    assert conj(north) == north and conj(south) == south
    assert neg(north) == south and neg(south) == north
    points = [north, south]
    for idx in range(4 if inst.base_dim else 0):
        a = rand_unit(CounterRng(13, "test/meridian", idx), inst.base_dim, "exact")
        for c, s in MERIDIAN_PARAMS:
            x = (c,) + tuple(s * t for t in a)
            assert conj(x) == (c,) + tuple(-s * t for t in a)
            assert neg(x) == (-c,) + tuple(-s * t for t in a)
            points.append(x)
    for x in points:
        assert conj(conj(x)) == x and neg(neg(x)) == x
        assert conj(neg(x)) == neg(conj(x))
        for y in (conj(x), neg(x)):
            assert norm_coeffs(y) == 1 and is_exact(y)


# --- suspension as join with S^0 --------------------------------------------

def test_suspension_agrees_with_s0_join():
    # join(S^0, S^n) embeds as S^(n+1) with the axis coordinate first
    a = rational_unit(3, 17)
    for pole, c, s in [(1, F(3, 5), F(4, 5)), (-1, F(8, 17), F(15, 17))]:
        u = SpherePoint((F(pole),))
        j = join_embed(u, a, c, s)
        assert SpherePoint(tuple(j)).coords == (pole * c,) + tuple(s * x for x in a.coords)


# --- join associativity via the flat embedding ------------------------------

def test_nested_joins_embed_to_identical_vectors():
    # block norms 153/697, 104/697, 672/697: both partial sums are exact
    # squares (185^2 and 680^2), so both nestings stay rational
    n1, n2, n3 = F(153, 697), F(104, 697), F(672, 697)
    u = rational_unit(2, 19, 0)
    v = rational_unit(3, 19, 1)
    w = rational_unit(2, 19, 2)
    blocks = (tuple(n1 * c for c in u.coords)
              + tuple(n2 * c for c in v.coords)
              + tuple(n3 * c for c in w.coords))
    assert sum(c * c for c in blocks) == 1

    # left nesting: join(join(U, V), W)
    inner_l = join_embed(u, v, F(153, 185), F(104, 185))
    outer_l = join_embed(SpherePoint(inner_l.flatten()), w, F(185, 697), F(672, 697))
    # right nesting: join(U, join(V, W))
    inner_r = join_embed(v, w, F(13, 85), F(84, 85))
    outer_r = join_embed(u, SpherePoint(inner_r.flatten()), F(153, 697), F(680, 697))

    assert outer_l.flatten() == blocks
    assert outer_r.flatten() == blocks


def test_flat_unit_vector_splits_into_both_nestings():
    rng = CounterRng(23, "test/reassoc", 0)
    flat = rand_unit(rng, 7, "exact")
    left_nested = JoinPoint(flat[:5], flat[5:])   # join(join(2+3), 2)
    right_nested = JoinPoint(flat[:2], flat[2:])  # join(2, join(3+2))
    assert left_nested.flatten() == right_nested.flatten() == flat


# --- sphere-join-sphere round trip ------------------------------------------

def test_join_of_spheres_covers_ambient_sphere():
    # every unit vector of R^8 is join_embed of its normalized blocks at (|p|, |q|)
    for idx in range(25):
        rng = CounterRng(29, "test/surjective", idx)
        flat = rand_unit(rng, 8, "float")
        p, q = flat[:4], flat[4:]
        c, s = math.sqrt(_sum_squares(p)), math.sqrt(_sum_squares(q))
        back = join_embed(SpherePoint(tuple(t / c for t in p)),
                          SpherePoint(tuple(t / s for t in q)), c, s)
        assert max(abs(a - b) for a, b in zip(back.flatten(), flat)) < 1e-12


# --- signed basis vectors: one builder, each caller's scalar type ------------------

def _types(coords):
    return tuple(type(c) for c in coords)


def test_basis_coords_takes_the_scalar_type():
    assert basis_coords(3, 1, F(-1)) == (0, -1, 0)
    assert _types(basis_coords(3, 1, F(-1))) == (Fraction,) * 3
    assert _types(basis_coords(2, 0, 5)) == (int, int)
    assert basis_coords(1, 0, 7) == (7,)


def test_basis_callers_keep_their_scalar_types():
    # the units and poles the package builds are ints; every other caller keeps Fractions
    fractions = [SpherePoint.basis(4, 2, -1).coords, basis_coords(4, 0, Fraction(1)),
                 reduced_diamond_filler(SpherePoint.basis(4, 1)).problem.b.coords,
                 *_signed_basis(3)]
    for coords in fractions:
        assert _types(coords) == (Fraction,) * len(coords)
    join_unit = join_hspace_carrier(imaginaroid_instance("s2")).unit
    ints = [*hopf._poles(3), spheroid_instance("s3").unit, join_unit.left, join_unit.right]
    for coords in ints:
        assert _types(coords) == (int,) * len(coords)
    assert hopf._poles(2) == ((1, 0, 0), (-1, 0, 0))
    assert _signed_basis(2) == ((1, 0), (-1, 0), (0, 1), (0, -1))
    singles, _ = _structured_elements(2)
    assert all(_types(c) == (int,) * 4 for c in singles)


# --- the Lifted form -------------------------------------------------------------

def test_lifted_stands_for_its_fraction_tuple():
    x = Lifted((3, -4, 0), 5)
    assert (len(x), x[1], tuple(x)) == (3, F(-4, 5), (F(3, 5), F(-4, 5), F(0)))
    assert (x[1:].nums, x[1:].den) == ((-4, 0), 5)
    assert tuple(neg_coeffs(x)) == (F(-3, 5), F(4, 5), F(0))
    y = lifted((F(1, 2), 3, F(-1, 3)))
    assert (y.nums, y.den, lifted(y)) == ((3, 18, -2), 6, y)
    SpherePoint(x)
    with pytest.raises(UsageError, match=r"\|x\|\^2 = 26/25"):
        SpherePoint(Lifted((3, -4, 1), 5))


def test_lifted_join_point_blocks_over_one_denominator():
    X = JoinPoint(Lifted((3, 0), 5), Lifted((0, 4), 5))
    assert tuple(X) == (F(3, 5), F(0), F(0), F(4, 5))
    assert lifted(JoinPoint(tuple(X.left), tuple(X.right))).flatten().nums == (3, 0, 0, 4)
    assert lifted(X) is X
    with pytest.raises(UsageError, match="not on the unit sphere"):
        JoinPoint(Lifted((3, 0), 5), Lifted((0, 3), 5))


@pytest.mark.parametrize("left, right", [
    (Lifted((3, 0), 5), Lifted((4, 0), 10)),     # read as (3/5, 0, 4/5, 0), off the sphere
    (Lifted((3, 0), 5), Lifted((8, 0), 10)),     # on the sphere, once rejected as |x|^2 = 73/25
    (Lifted((3, 0), 5), (F(4, 5), F(0))),
    ((0.6, 0.0), Lifted((4, 0), 5)),
], ids=["unequal-off", "unequal-on", "lifted-tuple", "tuple-lifted"])
def test_join_point_blocks_of_two_forms_are_refused(left, right):
    # every reader of a lifted point takes both blocks over the left one's denominator
    with pytest.raises(UsageError, match="blocks must be tuples or Lifted over one denominator"):
        JoinPoint(left, right)


@pytest.mark.parametrize("dim", [1, 2, 4, 8])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32), ends=st.sampled_from(["sampled", (1, 0), (0, 1)]))
def test_lifted_arc_point_matches_the_tuple_form(dim, seed, ends):
    # levels 0-3: factor points of dimension 1, 2, 4 and 8
    rng = CounterRng(seed, "test/lifted-arc", 0)
    u, v = rand_point(rng, dim, "exact"), rand_point(rng, dim, "exact")
    c, s = rand_quarter_pair(rng, "exact") if ends == "sampled" else ends
    X = arc_point(u, v, c, s)
    assert type(X.left) is Lifted and X.left.den == X.right.den
    want = arc_point(tuple(u), tuple(v), c, s)
    assert (tuple(X.left), tuple(X.right)) == (want.left, want.right)
