"""Sphere, suspension and join coordinate models."""

import math
from fractions import Fraction

import pytest

from hopfcheck import hopf
from hopfcheck.cdalg import _structured_elements, mul_coeffs
from hopfcheck.errors import UsageError
from hopfcheck.sampling import CounterRng, rand_unit, stereographic
from hopfcheck.joinmul import reduced_diamond_filler
from hopfcheck.laws import _signed_basis, _sphere_carrier, imaginaroid_instance, spheroid_instance
from hopfcheck.spheremodel import (FLOAT_POINT_EPS, JoinPoint, SpherePoint, _check_orthonormal,
                                   _check_unit, _sum_squares, basis_coords, exact_sqrt, is_exact,
                                   join_embed, join_functor, join_view, lift, norm_coeffs)


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


def test_stereographic_lands_on_sphere():
    for vec in [(F(1, 3),), (F(2), F(-5, 7)), (F(0), F(0), F(4, 9))]:
        pt = SpherePoint(stereographic(vec))
        assert sum(c * c for c in pt.coords) == 1


# --- the embedding ----------------------------------------------------------

def test_embed_endpoints_give_injections():
    u = rational_unit(2, 1)
    v = rational_unit(2, 2)
    left = join_embed(u, v, F(1), F(0))
    assert join_view(left).kind == "inl"
    assert join_view(left).u.coords == u.coords
    right = join_embed(u, v, F(0), F(1))
    assert join_view(right).kind == "inr"
    assert join_view(right).v.coords == v.coords


def test_embed_interior_is_unit_and_recovers_exactly():
    u = rational_unit(4, 3)
    v = rational_unit(4, 4)
    x = join_embed(u, v, F(3, 5), F(4, 5))
    assert x.left == tuple(F(3, 5) * c for c in u.coords)
    assert sum(c * c for c in x.flatten()) == 1
    view = join_view(x)
    assert view.kind == "glue"
    assert view.u.coords == u.coords
    assert view.v.coords == v.coords
    assert (view.c, view.s) == (F(3, 5), F(4, 5))


def test_embed_rejects_bad_arc_parameters():
    u = rational_unit(2, 5)
    v = rational_unit(2, 6)
    with pytest.raises(UsageError):
        join_embed(u, v, F(1, 2), F(1, 2))
    with pytest.raises(UsageError):
        join_embed(u, v, F(-3, 5), F(4, 5))


def test_view_round_trip_float_mode():
    rng = CounterRng(9, "test/float-roundtrip", 0)
    flat = rand_unit(rng, 6, "float")
    x = JoinPoint(flat[:3], flat[3:])
    view = join_view(x)
    assert view.kind == "glue"
    back = join_embed(view.u, view.v, view.c, view.s)
    assert max(abs(a - b) for a, b in zip(back.flatten(), x.flatten())) < 1e-12


def test_exact_sqrt():
    assert exact_sqrt(F(9, 25)) == F(3, 5)
    with pytest.raises(UsageError):
        exact_sqrt(F(2))


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
    for idx in range(25):
        rng = CounterRng(29, "test/surjective", idx)
        flat = rand_unit(rng, 8, "float")
        x = JoinPoint(flat[:4], flat[4:])
        view = join_view(x)
        back = join_embed(view.u, view.v, view.c, view.s) if view.kind == "glue" \
            else x
        assert max(abs(a - b) for a, b in zip(back.flatten(), flat)) < 1e-12


# --- the functorial action --------------------------------------------------

def test_join_functor_identity_and_inl_preservation():
    u = rational_unit(2, 31)
    v = rational_unit(2, 32)
    x = join_embed(u, v, F(1), F(0))
    ident = lambda t: t
    y = join_functor(ident, ident, x)
    assert y.flatten() == x.flatten()
    assert join_view(y).kind == "inl"


def test_join_functor_rejects_non_isometries():
    x = join_embed(rational_unit(2, 33), rational_unit(2, 34), F(3, 5), F(4, 5))
    with pytest.raises(UsageError):
        join_functor(lambda t: tuple(2 * c for c in t), lambda t: t, x)


def test_join_functor_by_unit_quaternion_keeps_norm():
    w = rational_unit(4, 35).coords
    x = join_embed(rational_unit(4, 36), rational_unit(4, 37), F(5, 13), F(12, 13))
    y = join_functor(lambda t: mul_coeffs(w, t), lambda t: mul_coeffs(t, w), x)
    assert sum(c * c for c in y.flatten()) == 1


# probe images whose inner product is 1e-9 plus rounding: summed left to right it
# lies above the 1e-9 slack, correctly rounded (math.fsum, or the compensated
# sum() of Python 3.12 and later) it lies below
SLANTED_IMAGES = ((0.4650124371325089, 0.5225845047530341, 0.4825981172171566, 0.5270369303593118),
                  (0.5395167758215431, -0.3912165909757872, 0.5038897363514542, -0.5495146596334555))


def test_orthonormality_probe_sums_left_to_right():
    u, w = SLANTED_IMAGES
    products = [x * y for x, y in zip(u, w)]
    left_to_right = ((products[0] + products[1]) + products[2]) + products[3]
    assert math.fsum(products) <= 1e-9 < left_to_right
    with pytest.raises(UsageError, match="left map is not norm-preserving"):
        _check_orthonormal(lambda e: SLANTED_IMAGES[e.index(1)], 2, "left map")


# --- signed basis vectors: one builder, each caller's scalar type ------------------

def _types(coords):
    return tuple(type(c) for c in coords)


def test_basis_coords_takes_the_scalar_type():
    assert basis_coords(3, 1, F(-1)) == (0, -1, 0)
    assert _types(basis_coords(3, 1, F(-1))) == (Fraction,) * 3
    assert _types(basis_coords(2, 0, 5)) == (int, int)
    assert basis_coords(1, 0, 7) == (7,)


def test_basis_callers_keep_their_scalar_types():
    poles = [exact for exact, _ in hopf._poles(3)]
    fractions = [SpherePoint.basis(4, 2, -1).coords, *poles, spheroid_instance("s3").unit,
                 imaginaroid_instance("s2").unit,
                 reduced_diamond_filler(SpherePoint.basis(4, 1)).problem.b.coords,
                 *_signed_basis(3)]
    for coords in fractions:
        assert _types(coords) == (Fraction,) * len(coords)
    assert hopf._poles(2)[1][0] == (-1, 0, 0)
    assert _signed_basis(2) == ((1, 0), (-1, 0), (0, 1), (0, -1))
    singles, _ = _structured_elements(2)
    assert all(_types(c) == (int,) * 4 for c in singles)
    # the orthonormality probes of join_functor are Fraction basis vectors
    probes = []
    join_functor(lambda v: probes.append(v) or v, lambda v: v,
                 JoinPoint((F(0), F(1)), (F(0),)))
    assert probes[:2] == [(1, 0), (0, 1)] and all(_types(p) == (Fraction,) * 2 for p in probes)
