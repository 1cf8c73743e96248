"""The projection join(G, G) -> susp(G) and its fiber structure."""

import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from hopfcheck import checks, hopf
from hopfcheck.cdalg import mul_coeffs, norm_coeffs
from hopfcheck.checks import STATUS_FAILS, coeffs_to_json, execute_check, max_abs_diff, worst_of
from hopfcheck.hopf import (FIBRATIONS, HopfInstance, dimension_report, fiber_check,
                            fibration_report, hopf_instance, hopf_map)
from hopfcheck.sampling import (CounterRng, draw_input, join_point_sample, rand_quarter_pair,
                                rand_unit)
from hopfcheck.errors import UsageError
from hopfcheck.laws import imaginaroid_instance
from hopfcheck.spheremodel import JoinPoint, Lifted, SpherePoint, arc_point, basis_coords, lifted


def F(n, d=1):
    return Fraction(n, d)


def pole(dim, sign):
    """The north (sign 1) or south (sign -1) pole of susp(G) for G in R^dim."""
    return basis_coords(dim + 1, 0, F(sign))


def rational_pair(inst, seed, index=0):
    rng = CounterRng(seed, "test/hopf", index)
    dim = inst.fiber_dim
    u = rand_unit(rng, dim, "exact")
    v = rand_unit(rng, dim, "exact")
    c, s = rand_quarter_pair(rng, "exact")
    return u, v, c, s


# --- the projection -----------------------------------------------------------

@pytest.mark.parametrize("name", ["real", "complex", "quaternionic"])
def test_poles(name):
    inst = hopf_instance(name)
    u, v, _, _ = rational_pair(inst, 1)
    dim = inst.fiber_dim
    zero = (F(0),) * dim
    assert hopf_map(JoinPoint(u, zero), inst).coords == pole(dim, 1)
    assert hopf_map(JoinPoint(zero, v), inst).coords == pole(dim, -1)


def test_arc_lands_on_meridian_through_product():
    inst = hopf_instance("quaternionic")
    u, v, c, s = rational_pair(inst, 2)
    X = JoinPoint(tuple(c * a for a in u), tuple(s * b for b in v))
    out = hopf_map(X, inst)
    assert out.coords[0] == c * c - s * s
    assert out.coords[1:] == tuple(2 * c * s * t for t in mul_coeffs(u, v))


def test_equator_at_balanced_arc():
    inst = hopf_instance("complex")
    u, v, _, _ = rational_pair(inst, 3)
    r = 2 ** -0.5
    X = JoinPoint(tuple(r * float(a) for a in u), tuple(r * float(b) for b in v))
    out = hopf_map(X, inst)
    assert abs(out.coords[0]) < 1e-12
    prod = mul_coeffs(tuple(map(float, u)), tuple(map(float, v)))
    assert max(abs(x - y) for x, y in zip(out.coords[1:], prod)) < 1e-12


def test_projection_is_unit_norm_exact():
    inst = hopf_instance("quaternionic")
    for idx in range(10):
        u, v, c, s = rational_pair(inst, 4, idx)
        X = JoinPoint(tuple(c * a for a in u), tuple(s * b for b in v))
        out = hopf_map(X, inst)
        assert sum(t * t for t in out.coords) == 1


def test_real_projection_is_the_squaring_map():
    inst = hopf_instance("real")
    # (p, q) on the circle goes to (p^2 - q^2, 2pq): the double cover
    p, q = F(3, 5), F(4, 5)
    out = hopf_map(JoinPoint((p,), (q,)), inst)
    assert isinstance(out, SpherePoint)
    assert out.coords == (F(-7, 25), F(24, 25))


@pytest.mark.parametrize("name,blocks", [
    ("complex", ((F(3, 5),), (F(4, 5), F(0)))),
    ("complex", ((F(3, 5), F(0)), (F(4, 5),))),
    ("real", ((F(3, 5), F(0)), (F(4, 5), F(0)))),
    ("quaternionic", ((F(3, 5), F(0)), (F(4, 5), F(0)))),
])
def test_projection_rejects_blocks_of_the_wrong_dimension(name, blocks):
    inst = hopf_instance(name)
    with pytest.raises(UsageError, match=f"dimension {inst.fiber_dim}"):
        hopf_map(JoinPoint(*blocks), inst)


def test_inl_copy_collapses_to_north():
    inst = hopf_instance("quaternionic")
    dim = inst.fiber_dim
    zero = (F(0),) * dim
    for idx in range(8):
        rng = CounterRng(5, "test/inl", idx)
        u = rand_unit(rng, dim, "exact")
        assert hopf_map(JoinPoint(u, zero), inst).coords == pole(dim, 1)


# --- fibers --------------------------------------------------------------------

@pytest.mark.parametrize("name", ["complex", "quaternionic"])
def test_fiber_structure_exact(name):
    inst = hopf_instance(name)
    reports = fiber_check(inst, samples=200, seed=6)
    assert {r.law for r in reports} == {
        "fiber-membership", "fiber-completeness", "fiber-separation", "fiber-polar"}
    for r in reports:
        assert r.holds, (r.law, r.witness)
        assert r.status == "holds-exact"


def test_fiber_structure_float():
    inst = hopf_instance("quaternionic")
    reports = fiber_check(inst, samples=400, seed=7, mode="float")
    assert all(r.holds for r in reports)
    assert max(r.max_residual for r in reports) < 1e-9


def test_real_fiber_structure():
    reports = fiber_check(hopf_instance("real"), samples=100, seed=8)
    assert all(r.holds for r in reports)


# negative controls: inputs that reach the witness branches of two fiber laws


def _fiber_law_report(law, evaluate, inputs):
    inst = hopf_instance("complex")
    return execute_check(law, inst.name, lambda x: evaluate((inst, 0), x), structured=[inputs])


def test_equal_translations_fail_fiber_separation_with_witness():
    u, v, c, s = rational_pair(hopf_instance("complex"), 10)
    w = rand_unit(CounterRng(10, "test/hopf/w", 0), 2, "exact")
    report = _fiber_law_report("fiber-separation", hopf._fiber_separation, ((u, v, c, s), w, w))
    assert report.status == STATUS_FAILS
    assert report.max_residual == 1
    translated = coeffs_to_json(hopf._translate(u, v, w))
    assert report.witness["lhs"] == report.witness["rhs"] == translated


# the witness of `fiber --instance complex --mode float --tolerance 0.5 --samples 20 --seed 0`
# while separation compared the translates' largest coordinate difference with the tolerance
FAR_PAIR = (((-0.71828420308189, -0.6957498139439307), (-0.9353817309191929, -0.35363967178841055),
             0.7672419743721616, 0.6413577416399583),
            (-0.9463067698099125, 0.3232700069785773), (-0.9762836476731143, -0.21649535626908606))


def test_far_translations_separate_in_euclidean_distance():
    # w1 - w2 has a largest coordinate of 0.54, the translate differences only 0.41 and 0.49:
    # a translation keeps the Euclidean distance, not the largest coordinate difference
    (u, v, _, _), w1, w2 = FAR_PAIR
    (u1, v1), (u2, v2) = hopf._translate(u, v, w1), hopf._translate(u, v, w2)
    assert max_abs_diff(w1, w2) > 0.5 > max(max_abs_diff(u1, u2), max_abs_diff(v1, v2))
    assert hopf._fiber_separation((hopf_instance("complex"), 0.5), FAR_PAIR) == (0, None, None)
    assert hopf._fiber_separation((hopf_instance("complex"), 0.8), FAR_PAIR)[0] == 1   # 0.76 apart


def test_polar_arc_fails_fiber_polar_interior_with_witness():
    u, v, _, _ = rational_pair(hopf_instance("complex"), 11)
    w = rand_unit(CounterRng(11, "test/hopf/w", 0), 2, "exact")
    # (c, s) = (1, 0) is the inl end of the arc: it lands on the north pole
    report = _fiber_law_report("fiber-polar", hopf._fiber_polar, ((u, v, F(1), F(0)), w))
    assert report.status == STATUS_FAILS
    assert report.max_residual == 1
    assert report.witness["lhs"] == ["1/1", "0/1", "0/1"]
    assert report.witness["rhs"] == "interior"


def _fiber_polar_before(ctx, inputs):
    """_fiber_polar's body before the poles were built once: it always paired the
    north end with the north pole, whichever pole failed."""
    inst, _ = ctx
    (u, v, c, s), _ = inputs
    north = hopf_map(arc_point(u, v, 1, 0), inst)
    south = hopf_map(arc_point(u, v, 0, 1), inst)
    want_n = pole(len(u), 1)
    want_s = pole(len(u), -1)
    r, _ = worst_of((max_abs_diff(north.coords, want_n), max_abs_diff(south.coords, want_s)))
    if not r <= 0:
        return r, north.coords, want_n
    mixed = hopf_map(arc_point(u, v, c, s), inst)
    if abs(mixed.coords[0]) >= 1:
        return 1, mixed.coords, "interior"
    return 0, None, None


def _polar_inputs(name, mode, index):
    inst = hopf_instance(name)
    rng = CounterRng(12, f"test/hopf/polar/{mode}", index)
    dim = inst.fiber_dim
    arc = (rand_unit(rng, dim, mode), rand_unit(rng, dim, mode)) + rand_quarter_pair(rng, mode)
    return (inst, 0), (arc, rand_unit(rng, dim, mode))


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", ["real", "complex", "quaternionic"])
def test_fiber_polar_matches_the_body_it_replaced(name, mode):
    # same residual, value and type; the same sides unless only the south end fails
    for index in range(40):
        ctx, inputs = _polar_inputs(name, mode, index)
        r, lhs, rhs = hopf._fiber_polar(ctx, inputs)
        r_before, lhs_before, rhs_before = _fiber_polar_before(ctx, inputs)
        assert repr((type(r), r)) == repr((type(r_before), r_before))
        (u, v, _, _), _ = inputs
        north = hopf_map(arc_point(u, v, 1, 0), ctx[0]).coords
        if r > 0 and max_abs_diff(north, rhs_before) < r:
            south = hopf_map(arc_point(u, v, 0, 1), ctx[0]).coords
            assert repr((lhs, rhs)) == repr((south, pole(len(u), -1)))
        else:
            assert repr((lhs, rhs)) == repr((lhs_before, rhs_before))


def test_fiber_polar_witness_names_the_failing_pole():
    # the north end lands on its pole exactly; the south end misses by one rounding
    u = (1.0, 0.0, 0.0, 0.0)
    v = rand_unit(CounterRng(1, "y", 0), 4, "float")
    ctx, inputs = (hopf_instance("quaternionic"), 0), ((u, v, 0.6, 0.8), u)
    r, lhs, rhs = hopf._fiber_polar(ctx, inputs)
    assert r == 2.220446049250313e-16
    assert rhs == pole(4, -1)
    assert lhs == hopf_map(arc_point(u, v, 0, 1), ctx[0]).coords
    assert max_abs_diff(lhs, rhs) == r
    # the body it replaced showed the north pair, whose sides agree
    _, lhs_before, rhs_before = _fiber_polar_before(ctx, inputs)
    assert max_abs_diff(lhs_before, rhs_before) == 0


def test_exact_fiber_polar_lifts_no_pole(monkeypatch):
    # lifted ends meet the poles as `Lifted` values, so max_abs_diff lifts no pole
    handed = []

    def recording(x):
        handed.append(x)
        return lifted(x)

    monkeypatch.setattr(checks, "lifted", recording)
    assert all(r.holds for r in fiber_check(hopf_instance("quaternionic"), samples=20))
    assert handed and all(type(x) is Lifted for x in handed)
    # a lifted end that misses its pole still has the pole's Fractions as its rhs
    inst, rng = hopf_instance("complex"), CounterRng(3, "test/hopf/lifted-polar", 0)
    inputs = (draw_input("arc", rng, 2, "exact", 0, [], 0),
              draw_input("point", rng, 2, "exact", 0, [], 0))
    original = hopf.hopf_map

    def off_pole(x, inst):
        c = original(x, inst).coords
        return SimpleNamespace(coords=Lifted((c.nums[0] - 1,) + c.nums[1:], c.den))

    monkeypatch.setattr(hopf, "hopf_map", off_pole)
    r, lhs, rhs = hopf._fiber_polar((inst, 0), inputs)
    assert type(lhs) is Lifted and r == F(1, lhs.den)
    assert _typed(rhs) == _typed((F(1), F(0), F(0)))


def test_translate_with_unit_is_identity():
    inst = hopf_instance("complex")
    u, v, c, s = rational_pair(inst, 9)
    X = JoinPoint(tuple(c * a for a in u), tuple(s * b for b in v))
    one = (F(1), F(0))
    u2 = mul_coeffs(u, one)
    v2 = mul_coeffs(one, v)
    X2 = JoinPoint(tuple(c * a for a in u2), tuple(s * b for b in v2))
    assert X2.flatten() == X.flatten()


# --- the aggregate report -------------------------------------------------------

def test_dimension_bookkeeping():
    expectations = {"real": (2, 2), "complex": (4, 3), "quaternionic": (8, 5)}
    for name, (total, base) in expectations.items():
        inst = hopf_instance(name)
        X = JoinPoint(basis_coords(inst.fiber_dim, 0, F(1)), (F(0),) * inst.fiber_dim)
        assert (len(X.flatten()), hopf_map(X, inst).dim) == (total, base)
        assert dimension_report(inst).holds


def test_dimension_bookkeeping_measures_the_model(monkeypatch):
    original = hopf.hopf_map
    monkeypatch.setattr(hopf, "hopf_map",
                        lambda x, inst: SpherePoint(original(x, inst).coords[:-1]))
    for name in FIBRATIONS:
        report = dimension_report(hopf_instance(name))
        assert report.status == STATUS_FAILS and not report.expected
        assert report.witness["lhs"][1] == report.witness["rhs"][1] - 1


@pytest.mark.parametrize("name", ["real", "complex", "quaternionic"])
def test_fibration_report_passes(name):
    reports = fibration_report(hopf_instance(name), samples=150, seed=10)
    assert all(r.expected for r in reports)
    laws = {r.law for r in reports}
    assert "fiber-membership" in laws
    assert "left-unit" in laws
    assert "dimension-bookkeeping" in laws
    assert any(law.startswith("oracle-equivalence") for law in laws)


# --- the projection of lifted points against the formula it replaced ---------------

def _hopf_map_before(x):
    """hopf_map's body before exact points were lifted: (|p|^2 - |q|^2, 2 p q)."""
    return (norm_coeffs(x.left) - norm_coeffs(x.right),) + tuple(
        2 * c for c in mul_coeffs(x.left, x.right))


@pytest.mark.parametrize("view", ["inl", "inr", "glue"])
@pytest.mark.parametrize("name", ["empty", "s0", "s2", "octonion-control"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_lifted_projection_matches_the_formula(name, view, seed):
    # levels 0-3; the lifted image has the Fraction point's values, and the
    # public path keeps Fractions in, Fractions out
    imag = imaginaroid_instance(name)
    inst = HopfInstance(name, imag)
    X = join_point_sample(CounterRng(seed, "test/lifted-hopf", 0), imag.susp_dim, view, "exact")
    image = hopf_map(X, inst).coords
    assert type(image) is Lifted
    public = hopf_map(JoinPoint(tuple(X.left), tuple(X.right)), inst).coords
    assert _typed(public) == _typed(_hopf_map_before(JoinPoint(tuple(X.left), tuple(X.right))))
    assert tuple(image) == public


def test_projection_keeps_int_points_int():
    inst = hopf_instance("complex")
    assert _typed(hopf_map(JoinPoint((0, 1), (0, 0)), inst).coords) == _typed((1, 0, 0))
    assert _typed(hopf_map(JoinPoint((0, F(1)), (0, 0)), inst).coords) == _typed(
        (F(1), F(0), F(0)))


def _typed(values):
    return tuple((type(c), c) for c in values)


@pytest.mark.parametrize("call", ["fiber_check", "fibration_report"])
@pytest.mark.parametrize("tolerance", ["float('nan')", "1.0"])
def test_fiber_checks_refuse_a_tolerance_no_pair_exceeds(child_env, call, tolerance):
    # in a child with a timeout: a NaN tolerance once left the separation draw looping
    code = ("from hopfcheck.errors import UsageError\n"
            f"from hopfcheck.hopf import {call}, hopf_instance\n"
            "try:\n"
            f"    {call}(hopf_instance('complex'), 5, 1, 'float', tolerance={tolerance})\n"
            "except UsageError as err:\n"
            "    print(err)\n")
    done = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "fiber checks need a float tolerance < 1\n"
