"""Spheroid, imaginaroid, associativity and H-space suites."""

import json
from fractions import Fraction
from itertools import product

import pytest

from hopfcheck import cdalg, checks, hopf, joinmul, laws, sampling, spheremodel
from hopfcheck.cdalg import mul_coeffs
from hopfcheck.checks import ReportDocument, run_laws
from hopfcheck.cli import emit
from hopfcheck.errors import PreconditionError, UsageError
from hopfcheck.joinmul import join_hspace_carrier, unit_law_check
from hopfcheck.laws import (assoc_check, corner_transport_check,
                            corner_transport_suite,
                            hspace_check, imaginaroid_check, imaginaroid_instance,
                            spheroid_check, spheroid_instance)
from hopfcheck.spheremodel import JoinPoint, basis_coords


def F(n, d=1):
    return Fraction(n, d)


def all_hold(reports):
    return all(r.holds for r in reports)


# --- spheroids ---------------------------------------------------------------

def test_sign_group_spheroid_exact():
    reports = spheroid_check(spheroid_instance("s0"), samples=50, seed=1)
    assert all_hold(reports)
    assert all(r.status == "holds-exact" for r in reports)


def test_circle_spheroid_exact():
    reports = spheroid_check(spheroid_instance("s1"), samples=200, seed=1)
    assert all_hold(reports)


def test_quaternion_spheroid_exact_and_float():
    exact = spheroid_check(spheroid_instance("s3"), samples=200, seed=2)
    assert all_hold(exact)
    sampled = spheroid_check(spheroid_instance("s3"), samples=500, seed=2,
                             mode="float")
    assert all_hold(sampled)
    assert max(r.max_residual for r in sampled) < 1e-9


def test_circle_conjugation_inverts_points():
    inst = spheroid_instance("s1")
    x = (F(3, 5), F(4, 5))
    assert inst.mul(inst.conj(x), x) == (F(1), F(0))


def test_spheroid_laws_include_derived_pair():
    names = {r.law for r in spheroid_check(spheroid_instance("s0"), samples=5)}
    assert {"star-right-inverse", "neg-mul"} <= names
    assert {"one-star", "mul-neg", "star-mul", "star-left-inverse"} <= names


def test_broken_conjugation_produces_witness():
    # conjugation deliberately wrong
    broken = spheroid_instance("s1")._replace(name="broken", conj=lambda x: x)
    reports = {r.law: r for r in spheroid_check(broken, samples=50, seed=3)}
    assert not reports["star-left-inverse"].holds
    assert reports["star-left-inverse"].witness is not None


# --- imaginaroids ------------------------------------------------------------

@pytest.mark.parametrize("name", ["empty", "s0", "s2"])
def test_imaginaroid_suites_hold_exact(name):
    reports = imaginaroid_check(imaginaroid_instance(name), samples=150, seed=4)
    assert all_hold(reports)
    assert {r.law for r in reports} >= {
        "base-neg-involution", "mul-neg", "star-right-inverse", "star-mul",
        "one-mul", "mul-one"}
    # the induced spheroid on the suspension is part of the suite
    assert any(r.instance == f"susp({name})" for r in reports)


def test_imaginaroid_float_residuals_small():
    reports = imaginaroid_check(imaginaroid_instance("s2"), samples=400, seed=5,
                                mode="float")
    assert all_hold(reports)
    assert max(r.max_residual for r in reports) < 1e-9


# --- associativity -----------------------------------------------------------

def test_assoc_holds_for_circle_and_quaternions():
    for name in ("empty", "s0", "s2"):
        inst = imaginaroid_instance(name)
        report = assoc_check(inst, samples=100, seed=6)
        assert report.holds
        assert inst.assoc_verified


def test_assoc_fails_for_octonions_with_exact_witness():
    inst = imaginaroid_instance("octonion-control")
    report = assoc_check(inst, samples=50, seed=6)
    assert not report.holds
    assert report.expected
    assert report.witness is not None
    assert not inst.assoc_verified


# --- corner transport --------------------------------------------------------

def test_corner_transport_trivial_tuple():
    inst = imaginaroid_instance("s0")
    assoc_check(inst, samples=50, seed=7)
    one = basis_coords(inst.susp_dim, 0, Fraction(1))
    report = corner_transport_check(inst, one, one, one, one)
    assert report.holds


def test_corner_transport_complex_example():
    # a = c = i, b = d = 1: f(-1) = ac = -1 and g(1) = cb = i
    inst = imaginaroid_instance("s0")
    assoc_check(inst, samples=50, seed=7)
    i = (F(0), F(1))
    one = basis_coords(inst.susp_dim, 0, Fraction(1))
    ac = mul_coeffs(i, i)
    assert ac == (F(-1), F(0))
    cb = mul_coeffs(i, one)
    assert cb == i
    report = corner_transport_check(inst, i, one, i, one)
    assert report.holds


def test_corner_transport_random_quaternions_exact():
    inst = imaginaroid_instance("s2")
    assoc_check(inst, samples=100, seed=8)
    report = corner_transport_suite(inst, samples=300, seed=8)
    assert report.holds
    assert report.status == "holds-exact"


def test_corner_transport_requires_verified_associativity():
    inst = imaginaroid_instance("s2")  # fresh instance: not yet verified
    with pytest.raises(PreconditionError):
        corner_transport_suite(inst, samples=10, seed=9)


def test_corner_transport_octonion_negative_control():
    inst = imaginaroid_instance("octonion-control")
    report = corner_transport_suite(inst, samples=200, seed=9, allow_unverified=True)
    e = [tuple(F(int(k == j)) for k in range(8)) for j in range(8)]
    # one failing tuple: the check reads the ladder as the suite does
    check = corner_transport_check(inst, e[1], e[2], e[4], e[7], allow_unverified=True)
    for report in (report, check):
        assert not report.holds
        assert report.witness is not None
        assert report.expected


def test_derived_laws_follow_when_primaries_hold():
    # whenever the six primary spheroid laws hold on an instance, the two
    # derived ones must as well
    for name in ("s0", "s1", "s3"):
        reports = {r.law: r for r in
                   spheroid_check(spheroid_instance(name), samples=100, seed=10)}
        primaries = ["one-star", "neg-star", "neg-involution", "star-involution",
                     "mul-neg", "star-mul", "star-left-inverse"]
        if all(reports[p].holds for p in primaries):
            assert reports["star-right-inverse"].holds
            assert reports["neg-mul"].holds


# --- H-spaces ----------------------------------------------------------------

@pytest.mark.parametrize("name", ["s0", "s1", "s3"])
def test_sphere_hspace_checks_exact(name):
    reports = hspace_check(spheroid_instance(name), samples=150, seed=11)
    assert all_hold(reports)
    assert {r.law for r in reports} == {
        "left-unit", "right-unit",
        "left-translation-inverse", "left-translation-inverse-alt",
        "right-translation-inverse", "right-translation-inverse-alt"}


@pytest.mark.parametrize("kind", ["sphere", "join"])
def test_hspace_detects_broken_unit(kind):
    if kind == "sphere":
        carrier, unit = spheroid_instance("s1"), (F(0), F(1))
    else:
        inst = imaginaroid_instance("s0")
        assert assoc_check(inst, samples=20, seed=12).holds
        # inr(1) in place of the unit inl(1)
        unit = JoinPoint((F(0), F(0)), basis_coords(inst.susp_dim, 0, Fraction(1)))
        carrier = join_hspace_carrier(inst)
    broken = carrier._replace(name="broken", unit=unit)
    reports = hspace_check(broken, samples=40, seed=12)
    assert not {r.law: r for r in reports}["left-unit"].holds
    doc = json.loads(emit(ReportDocument("0", {}, reports).finalize(), "json"))
    (left_unit,) = [r for r in doc["reports"] if r["law"] == "left-unit"]
    (x,) = left_unit["witness"]["inputs"]
    assert len(x) == len(tuple(unit))
    assert all(isinstance(c, str) for c in x + left_unit["witness"]["lhs"])


@pytest.mark.parametrize("kind", ["sphere", "join"])
def test_exact_suites_refuse_a_carrier_with_float_points(kind, monkeypatch):
    # exact suites carry integer numerators; a float unit cannot be lifted
    if kind == "sphere":
        carrier, unit = spheroid_instance("s1"), (1.0, 0.0)
    else:
        inst = imaginaroid_instance("s0")
        assert assoc_check(inst, samples=20, seed=12).holds
        carrier, unit = join_hspace_carrier(inst), JoinPoint((1.0, 0.0), (0.0, 0.0))
    carrier = carrier._replace(unit=unit)
    with pytest.raises(UsageError, match="exact mode needs exact points"):
        hspace_check(carrier, samples=4, seed=12)
    # in float mode the Fraction structured points stay unlifted: a Lifted
    # operand would lift the float unit in every product with it
    seen = []

    def recording_run_laws(rows, *args, structured, **kw):
        seen.extend(x for (x,) in structured(("point",)))
        return run_laws(rows, *args, structured=structured, **kw)

    monkeypatch.setattr(laws, "run_laws", recording_run_laws)
    reports = hspace_check(carrier, samples=4, seed=12, mode="float")
    assert all(r.holds for r in reports)
    assert not any("error" in (r.witness or ()) for r in reports)
    assert all(x is p for x, p in zip(seen, carrier.structured, strict=True))
    assert all(type(c) is Fraction for x in carrier.structured for c in x)


# --- the float structured phase on lifted points ------------------------------

def _unlifted_carrier_laws(rows, carrier, *, mode, **kw):
    """`laws._carrier_laws` in float mode as it was: the structured points unlifted."""
    assert mode == "float"
    return run_laws(
        [(law, evaluate, (carrier.kind,) * len(kinds)) for law, evaluate, kinds in rows],
        carrier.name, carrier, dim=carrier.dim, mode=mode,
        structured=lambda kinds: product(carrier.structured, repeat=len(kinds)), **kw)


FLOAT = dict(samples=30, seed=9, mode="float")


def _verified(name):
    inst = imaginaroid_instance(name)
    assert assoc_check(inst, **FLOAT).holds
    return inst


FLOAT_SUITES = {
    "spheroid-s1": lambda: (spheroid_check(spheroid_instance("s1"), **FLOAT)
                            + hspace_check(spheroid_instance("s1"), **FLOAT)),
    "spheroid-s3": lambda: (spheroid_check(spheroid_instance("s3"), **FLOAT)
                            + hspace_check(spheroid_instance("s3"), **FLOAT)),
    "imaginaroid-s0": lambda: (imaginaroid_check(imaginaroid_instance("s0"), **FLOAT)
                               + [assoc_check(imaginaroid_instance("s0"), **FLOAT)]),
    "imaginaroid-s2": lambda: (imaginaroid_check(imaginaroid_instance("s2"), **FLOAT)
                               + [assoc_check(imaginaroid_instance("s2"), **FLOAT)]),
    "join-s0": lambda: (hspace_check(join_hspace_carrier(_verified("s0")), **FLOAT)
                        + unit_law_check(_verified("s0"), **FLOAT)),
    "join-s2": lambda: (hspace_check(join_hspace_carrier(_verified("s2")), **FLOAT)
                        + unit_law_check(_verified("s2"), **FLOAT)),
}
# negative controls: each fails on a structured input
FLOAT_CONTROLS = {
    "octonion-assoc": lambda: [assoc_check(imaginaroid_instance("octonion-control"), **FLOAT)],
    "broken-conj": lambda: spheroid_check(
        spheroid_instance("s1")._replace(name="broken", conj=lambda x: x), **FLOAT),
    "inr-unit": lambda: hspace_check(
        join_hspace_carrier(_verified("s0"))._replace(
            name="broken", unit=JoinPoint((F(0), F(0)), (F(1), F(0)))), **FLOAT),
}


def _without_durations(reports):
    return [json.dumps({k: v for k, v in r.to_dict().items() if k != "duration_ms"})
            for r in reports]


@pytest.mark.parametrize("name", sorted({**FLOAT_SUITES, **FLOAT_CONTROLS}))
def test_lifted_float_structured_phase_matches_the_unlifted_path(name, monkeypatch):
    suite = {**FLOAT_SUITES, **FLOAT_CONTROLS}[name]
    lifted_reports = suite()
    for module in (laws, joinmul):
        monkeypatch.setattr(module, "_carrier_laws", _unlifted_carrier_laws)
    assert _without_durations(lifted_reports) == _without_durations(suite())
    failed = [r for r in lifted_reports if not r.holds]
    assert bool(failed) == (name in FLOAT_CONTROLS)
    for r in failed:    # structured witnesses keep their exact "p/q" strings
        values = [c for x in r.witness["inputs"] + [r.witness["lhs"]] for c in x]
        assert values and all(isinstance(c, str) and "/" in c for c in values)
        if name == "broken-conj":   # x x* = 1 fails, and 1 is the package's int unit
            assert r.witness["rhs"] == [1, 0]
        else:
            assert all(isinstance(c, str) and "/" in c for c in r.witness["rhs"])


def test_float_structured_phase_lifts_each_point_once(monkeypatch):
    # each structured point is lifted once, and the int unit once for each
    # unit-law input it meets; before, every product lifted its operands
    carrier = join_hspace_carrier(_verified("s2"))
    calls = []
    original = spheremodel.lift
    for module in (spheremodel, cdalg, joinmul, checks, hopf, laws, sampling):
        if hasattr(module, "lift"):
            monkeypatch.setattr(module, "lift", lambda a: calls.append(a) or original(a))
    reports = hspace_check(carrier, samples=20, seed=3, mode="float")
    assert all(r.holds for r in reports)
    assert 0 < len(calls) <= 3 * len(carrier.structured)


# --- the int unit meets floats as its float form --------------------------------

PACKAGE_CARRIERS = {
    "s0": lambda: spheroid_instance("s0"),
    "s1": lambda: spheroid_instance("s1"),
    "s3": lambda: spheroid_instance("s3"),
    "join-s1": lambda: join_hspace_carrier(_verified("empty")),
    "join-s3": lambda: join_hspace_carrier(_verified("s0")),
    "join-s7": lambda: join_hspace_carrier(_verified("s2")),
}


def _as_floats(a: tuple) -> tuple:
    """The reference conversion of an exact point: exact zeros stay int 0."""
    return tuple([float(x) if x else 0 for x in a])


@pytest.mark.parametrize("name", sorted(PACKAGE_CARRIERS))
def test_int_unit_products_match_the_float_unit(name):
    # the carrier's int unit meets float points with the bits of its float form,
    # exact zeros kept as int 0, in both operand orders; a suite keeps the unit
    carrier = PACKAGE_CARRIERS[name]()
    unit = carrier.unit
    assert all(type(c) is int for c in unit)
    suite = laws._suite_carrier(carrier, "float")
    assert suite.unit is unit
    if type(unit) is JoinPoint:
        float_unit = JoinPoint(_as_floats(unit.left), _as_floats(unit.right))
    else:
        float_unit = _as_floats(unit)
    dim = len(unit.left if type(unit) is JoinPoint else unit)
    # signed zeros tell the float unit's int zeros from float ones
    signed = [tuple(1.0 if k == i else -0.0 for k in range(dim)) for i in range(dim)]
    if type(unit) is JoinPoint:
        signed = [JoinPoint(*pair) for x in signed for pair in ((x, (-0.0,) * dim),
                                                               ((-0.0,) * dim, x))]
    samples = [x for (x,) in sampling.law_samples(2, f"test/float-unit/{name}", 60,
                                                  (carrier.kind,), carrier.dim, "float", 1e-9)]
    for x in signed + samples:
        for args, float_args in (((unit, x), (float_unit, x)), ((x, unit), (x, float_unit))):
            got = carrier.mul(*args)
            assert repr(got) == repr(carrier.mul(*float_args))
            assert all(type(c) is float for c in got)
    for p in suite.structured:      # a Lifted operand meets the int unit on integers
        for args in ((unit, p), (p, unit)):
            got = carrier.mul(*args)
            assert spheremodel.Lifted in {type(got), type(getattr(got, "left", None))}
