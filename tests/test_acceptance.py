"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to watch
them).  Exact-mode checks carry zero tolerance; float-mode checks use the
stated residual bounds.  Time-bounded criteria assert their bounds.
"""

import json
import time
from fractions import Fraction

from hopfcheck.cdalg import mul_coeffs, norm_coeffs, zero_divisor_search
from hopfcheck.cli import main
from hopfcheck.hopf import fiber_check, hopf_instance
from hopfcheck.joinmul import (join_hspace_carrier, oracle_equivalence_suite,
                               unit_law_check)
from hopfcheck.laws import (assoc_check, corner_transport_suite, hspace_check,
                            imaginaroid_check, imaginaroid_instance)
from hopfcheck.sampling import CounterRng, rand_coeffs


def record(num, ok, text):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def cli_json(tmp_path, name, *argv):
    path = tmp_path / name
    code = main(list(argv) + ["--format", "json", "--output", str(path)])
    return code, json.loads(path.read_text())


def test_criterion_01_property_ladder(tmp_path):
    """Levels 0-4 reproduce the ladder exactly, with witnesses, in under 10 s."""
    want_holds = {
        0: {"realness", "commutativity", "associativity", "alternativity",
            "nicely-normed", "norm-multiplicativity"},
        1: {"commutativity", "associativity", "alternativity", "nicely-normed",
            "norm-multiplicativity"},
        2: {"associativity", "alternativity", "nicely-normed",
            "norm-multiplicativity"},
        3: {"alternativity", "nicely-normed", "norm-multiplicativity"},
        4: {"nicely-normed"},
    }
    t0 = time.perf_counter()
    ok = True
    for level in range(5):
        code, doc = cli_json(
            tmp_path, f"laws{level}.json", "laws", "--level", str(level),
            "--mode", "exact", "--samples", "150")
        ok &= code == 0 and doc["overall"] == "pass"
        for r in doc["reports"]:
            should_hold = r["law"] in want_holds[level]
            ok &= (r["status"] == "holds-exact") == should_hold
            ok &= (r["status"] == "fails") == (not should_hold)
            ok &= r["tolerance"] is None
            if not should_hold:
                ok &= r.get("witness") is not None
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    record(1, ok, f"ladder levels 0-4 exact with witnesses in {elapsed:.1f}s (< 10s)")


def test_criterion_02_norm_multiplicativity_and_zero_divisors(tmp_path):
    """|ab| = |a||b| exactly below the sedenions; zero divisors appear there."""
    ok = True
    for level in range(4):
        n = 1 << level
        for i in range(1000):
            rng = CounterRng(2, f"acceptance/norm-mult/{level}", i)
            a = rand_coeffs(rng, n, "exact")
            b = rand_coeffs(rng, n, "exact")
            if norm_coeffs(mul_coeffs(a, b)) != norm_coeffs(a) * norm_coeffs(b):
                ok = False
                break
    for level in range(4):
        ok &= zero_divisor_search(level) is None
    t0 = time.perf_counter()
    code, doc = cli_json(tmp_path, "zd4.json", "zerodiv", "--level", "4")
    elapsed = time.perf_counter() - t0
    (zd,) = doc["reports"]
    ok &= code == 0 and zd["status"] == "fails" and zd["expected"]
    a, b = zd["witness"]["inputs"]
    prod = mul_coeffs(tuple(Fraction(c) for c in a), tuple(Fraction(c) for c in b))
    ok &= any(Fraction(c) != 0 for c in a) and any(Fraction(c) != 0 for c in b)
    ok &= not any(prod)
    ok &= elapsed < 60.0
    record(2, ok, f"norm multiplicative at levels 0-3 (1000 exact pairs each); "
                  f"level-4 zero divisor found in {elapsed:.1f}s (< 60s)")


def test_criterion_03_spheroid_and_imaginaroid_suites():
    """Both instances pass: exact at 1000 points per law, float at 10^4 under 1e-9."""
    ok = True
    for name in ("s0", "s2"):
        inst = imaginaroid_instance(name)
        exact = imaginaroid_check(inst, samples=1000, seed=3)
        ok &= all(r.status == "holds-exact" for r in exact)
        sampled = imaginaroid_check(inst, samples=10000, seed=3, mode="float")
        ok &= all(r.holds for r in sampled)
        ok &= max(r.max_residual for r in sampled) < 1e-9
    record(3, ok, "spheroid+imaginaroid suites exact at 10^3 points/law and "
                  "float at 10^4 points with residual < 1e-9")


def test_criterion_04_corner_transport_identities():
    """All four identities hold exactly on 1000 quaternion 4-tuples; the
    octonion control fails with a witness."""
    inst = imaginaroid_instance("s2")
    assoc_check(inst, samples=200, seed=4)
    report = corner_transport_suite(inst, samples=1000, seed=4)
    ok = report.status == "holds-exact"
    control = corner_transport_suite(
        imaginaroid_instance("octonion-control"), samples=500, seed=4,
        allow_unverified=True)
    ok &= control.status == "fails" and control.witness is not None
    record(4, ok, "corner identities exact on 1000 quaternion 4-tuples; "
                  "octonion control fails with witness")


def test_criterion_05_oracle_equivalence():
    """Synthetic join product equals the doubled-algebra product: exactly on
    >= 10^4 rational inputs and within 1e-9 on 10^5 float samples, per
    instance, in under 60 s."""
    t0 = time.perf_counter()
    ok = True
    for name in ("s0", "s2"):
        inst = imaginaroid_instance(name)
        assoc_check(inst, samples=100, seed=5)
        exact = oracle_equivalence_suite(inst, samples=10008, seed=5)
        ok &= all(r.status == "holds-exact" for r in exact)
        ok &= sum(r.samples for r in exact) >= 10000
        sampled = oracle_equivalence_suite(inst, samples=100008, seed=5, mode="float")
        ok &= all(r.holds for r in sampled)
        ok &= max(r.max_residual for r in sampled) < 1e-9
        ok &= sum(r.samples for r in sampled) >= 100000
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    record(5, ok, f"oracle equivalence: exact 10^4 + float 10^5 per instance, "
                  f"all 9 view combinations, in {elapsed:.1f}s (< 60s)")


def test_criterion_06_unit_laws():
    """inl(1) X = X = X inl(1): exact on point constructors, sampled under 1e-9."""
    ok = True
    for name in ("s0", "s2"):
        inst = imaginaroid_instance(name)
        assoc_check(inst, samples=100, seed=6)
        exact = unit_law_check(inst, samples=2000, seed=6)
        ok &= all(r.status == "holds-exact" for r in exact)
        sampled = unit_law_check(inst, samples=10000, seed=6, mode="float")
        ok &= all(r.holds for r in sampled)
        ok &= max(r.max_residual for r in sampled) < 1e-9
    record(6, ok, "join unit laws exact at point constructors, "
                  "sampled residual < 1e-9")


def test_criterion_07_filler_contracts(tmp_path):
    """Grid-64 filler verification: boundaries, pole reductions and the
    unit-norm identity, all exact, over 100 rational points."""
    code, doc = cli_json(
        tmp_path, "diamond.json", "diamond", "--instance", "s2",
        "--grid", "64", "--samples", "100", "--mode", "exact")
    ok = code == 0 and doc["overall"] == "pass"
    by_law = {r["law"]: r for r in doc["reports"]}
    for law in ("filler-unit-norm", "filler-boundary", "filler-pole-reduction"):
        ok &= by_law[law]["status"] == "holds-exact"
        ok &= by_law[law]["samples"] >= 100
    record(7, ok, "grid-64 filler boundary, pole reduction and unit-norm "
                  "checks exact for 100 rational points")


def test_criterion_08_fiber_structure(tmp_path):
    """Fiber properties exact at 10^3 samples and float under 1e-9; the three
    fibration reports pass in under 120 s."""
    ok = True
    for name in ("complex", "quaternionic"):
        inst = hopf_instance(name)
        exact = fiber_check(inst, samples=1000, seed=8)
        ok &= all(r.status == "holds-exact" for r in exact)
        sampled = fiber_check(inst, samples=2000, seed=8, mode="float")
        ok &= all(r.holds for r in sampled)
        ok &= max(r.max_residual for r in sampled) < 1e-9
    t0 = time.perf_counter()
    code, doc = cli_json(
        tmp_path, "fibration.json", "fibration", "--instance", "all",
        "--samples", "1000")
    elapsed = time.perf_counter() - t0
    ok &= code == 0 and doc["overall"] == "pass"
    prefixes = {r["instance"].split(":")[0] for r in doc["reports"]}
    ok &= prefixes == {"real", "complex", "quaternionic"}
    ok &= elapsed < 120.0
    record(8, ok, f"fiber structure exact+float for complex/quaternionic; "
                  f"all three fibration reports pass in {elapsed:.1f}s (< 120s)")


def test_criterion_09_associativity_hypotheses():
    """The circle and quaternion multiplications associate exactly; the join
    multiplication on the 7-sphere does not, yet keeps two-sided conjugate
    inverses."""
    ok = True
    for name in ("s0", "s2"):
        report = assoc_check(imaginaroid_instance(name), samples=500, seed=9)
        ok &= report.status == "holds-exact"

    inst = imaginaroid_instance("s2")
    assoc_check(inst, samples=100, seed=9)
    carrier = join_hspace_carrier(inst)
    witness = None
    for x in carrier.structured:
        for y in carrier.structured:
            xy = carrier.mul(x, y)
            for z in carrier.structured:
                lhs = carrier.mul(xy, z).flatten()
                rhs = carrier.mul(x, carrier.mul(y, z)).flatten()
                if lhs != rhs:
                    witness = (x, y, z, lhs, rhs)
                    break
            if witness:
                break
        if witness:
            break
    ok &= witness is not None
    inverses = {r.law: r for r in hspace_check(carrier, samples=500, seed=9)}
    for law in ("left-translation-inverse", "left-translation-inverse-alt",
                "right-translation-inverse", "right-translation-inverse-alt"):
        ok &= inverses[law].status == "holds-exact"
    record(9, ok, "circle/quaternion multiplications associate exactly; the "
                  "7-sphere join multiplication has an exact associativity "
                  "witness while conjugate inverses hold")


def test_criterion_10_determinism(tmp_path):
    """Identical seeds and different worker counts give identical reports."""
    docs = []
    for workers in ("1", "4"):
        _, doc = cli_json(
            tmp_path, f"det{workers}.json", "fibration", "--instance", "complex",
            "--samples", "500", "--seed", "10", "--mode", "float",
            "--workers", workers)
        for r in doc["reports"]:
            r["duration_ms"] = None
        docs.append((doc["overall"], doc["reports"]))
    ok = docs[0] == docs[1]
    record(10, ok, "reports identical for 1 vs 4 workers (modulo durations)")
