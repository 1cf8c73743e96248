"""Symbolic identities through the code that runs.

`hopfcheck.symbolic.Poly` variables go through the package's own kernels and
formulas, so an identity whose residual is the zero polynomial holds for all
real inputs of that dimension, and a nonzero residual is a polynomial that
some real input does not zero.  The ladder identities run the two products
the ladder takes, the traced kernel (samples) and the sign table's
`mul_ints` (int tuples and the proofs), both read from `cdalg` at call
time; `nicely-normed` branches on values and is left to the sampled
ladder.  The ladder's own proof (`cdalg._proved`) is tested against the
structured scan it replaces.  The join product's arc formula and the Hopf
projection run `joinmul._arc_blocks` and `hopf._projection` themselves.
"""

import json
from math import prod

import pytest
from test_joinmul import _operands_swapped, _sign_flipped

from hopfcheck import cdalg, cli, hopf, joinmul
from hopfcheck.cdalg import LADDER, MAX_LEVEL, STRUCTURED_CAP, mul_coeffs, structured_tuples
from hopfcheck.checks import run_laws
from hopfcheck.symbolic import Poly, elements


def sum_squares(a) -> Poly:
    return sum((c * c for c in a), Poly({}))


def total_terms(a) -> int:
    """The number of terms in all coordinates of a coordinate tuple together."""
    return sum(len(c) if type(c) is Poly else int(c != 0) for c in a)


def value(p, point):
    """The polynomial p at point, whose entry k is the value of variable k."""
    if type(p) is not Poly:
        return p
    return sum(c * prod(point[i] for i in m) for m, c in p.terms.items())


def _diff(lhs, rhs) -> tuple:
    return tuple(x - y for x, y in zip(lhs, rhs))


def _flexibility(mul, x, y):
    return _diff(mul(mul(x, y), x), mul(x, mul(y, x)))


#: (name, levels where it holds, arity, residual(mul, *inputs)), the residual a
#: coordinate tuple of polynomials; flexibility and power-associativity hold in
#: every Cayley-Dickson algebra (Schafer 1954)
IDENTITIES = (
    ("commutativity", LADDER["commutativity"], 2,
     lambda mul, a, b: _diff(mul(a, b), mul(b, a))),
    ("associativity", LADDER["associativity"], 3,
     lambda mul, a, b, c: _diff(mul(mul(a, b), c), mul(a, mul(b, c)))),
    ("left-alternativity", LADDER["alternativity"], 2,
     lambda mul, x, y: _diff(mul(mul(x, x), y), mul(x, mul(x, y)))),
    ("right-alternativity", LADDER["alternativity"], 2,
     lambda mul, x, y: _diff(mul(mul(x, y), y), mul(x, mul(y, y)))),
    ("norm-multiplicativity", LADDER["norm-multiplicativity"], 2,
     lambda mul, a, b: (sum_squares(mul(a, b)) - sum_squares(a) * sum_squares(b),)),
    ("flexibility", lambda level: True, 2, _flexibility),
    ("power-associativity", lambda level: True, 1,
     lambda mul, x: _diff(mul(mul(x, x), x), mul(x, mul(x, x)))),
)
BY_NAME = {row[0]: row for row in IDENTITIES}

KERNELS = {"traced": lambda level: cdalg._traced_kernel(1 << level),
           "mul_ints": lambda level: cdalg.mul_ints}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("level", range(1, MAX_LEVEL + 1))
@pytest.mark.parametrize("name", BY_NAME)
def test_identity_is_zero_exactly_where_it_holds(name, level, kernel):
    _, holds, arity, residual = BY_NAME[name]
    terms = total_terms(residual(KERNELS[kernel](level), *elements(arity, 1 << level)))
    assert (terms == 0) == holds(level), terms


@pytest.mark.parametrize("level", (4, 5))
def test_flexibility_finds_a_flipped_mul_ints(level):
    # the ladder's mul_ints with its last output coordinate negated
    x, y = elements(2, 1 << level)
    assert total_terms(_flexibility(_sign_flipped(cdalg.mul_ints), x, y)) > 0


@pytest.mark.parametrize("name", ("associativity", "left-alternativity", "right-alternativity"))
def test_identities_find_a_flipped_traced_kernel(name):
    # the patched kernel of test_cli's broken-kernel test, at level 2, where these hold
    _, _, arity, residual = BY_NAME[name]
    assert total_terms(residual(_sign_flipped(cdalg._traced_kernel(4)), *elements(arity, 4))) > 0


def _arc_residual(dim: int) -> tuple:
    """left + right - N (P + Q)(R + W) of `_arc_blocks` on symbolic blocks of dim."""
    P, Q, R, W = elements(4, dim)
    left, right, N = joinmul._arc_blocks(P, Q, R, W, sum_squares(P), sum_squares(Q),
                                         sum_squares(R))
    return _diff(left + right, [N * c for c in mul_coeffs(P + Q, R + W)])


# Block dim 8, the non-associative octonion control, is left to the sampled
# oracle tests: the identity does not hold there, and building its residual
# symbolically takes seconds.
@pytest.mark.parametrize("dim", (1, 2, 4))
def test_arc_blocks_are_the_doubled_product_over_n(dim):
    assert total_terms(_arc_residual(dim)) == 0


@pytest.mark.parametrize("dim", (2, 4))   # at dim 1 the doubled product commutes
def test_arc_identity_finds_swapped_operands(dim, monkeypatch):
    monkeypatch.setattr(joinmul, "_arc_blocks", _operands_swapped(joinmul._arc_blocks))
    assert total_terms(_arc_residual(dim)) > 0


def _projection_residual(dim: int):
    """|h|^2 - (|P|^2 + |Q|^2)^2 for the projection h of symbolic blocks of dim."""
    P, Q = elements(2, dim)
    norm = sum_squares(P) + sum_squares(Q)
    return sum_squares(hopf._projection(P, Q)) - norm * norm


@pytest.mark.parametrize("dim", (1, 2, 4))
def test_hopf_projection_keeps_the_squared_norm(dim):
    assert total_terms([_projection_residual(dim)]) == 0


# --- the ladder's proof against the structured scan it replaces ------------------

def test_poly_orders_only_as_a_constant():
    x, = elements(1, 1)[0]
    assert Poly({}) <= 0 and not Poly({}) < 0 and Poly({(): 3}) > 2 and -3 < Poly({(): 2})
    for compare in (lambda: x < 0, lambda: x <= 0, lambda: x > 0, lambda: x >= 0,
                    lambda: 0 < x - x + x):
        with pytest.raises(TypeError):
            compare()


@pytest.mark.parametrize("level", range(MAX_LEVEL + 1))
def test_the_proof_accepts_exactly_the_polynomial_rows_that_hold(level):
    for law, (_, _, polynomial) in cdalg._LADDER_ROWS.items():
        assert cdalg._proved(law, level) == (polynomial and LADDER[law](level)), law
    assert level <= 3 or not any(cdalg._proved(law, level) for law in cdalg._LADDER_ROWS)


@pytest.mark.parametrize("level", range(4))
def test_a_proved_row_passes_its_whole_structured_scan(level):
    n = 1 << level
    proved = [row for row in cdalg.LADDER_LAWS if cdalg._proved(row[0], level)]
    assert proved
    for law, evaluate, kinds in proved:
        tuples = list(structured_tuples(level, len(kinds), STRUCTURED_CAP))
        assert tuples and all(evaluate(n, t)[0] == 0 for t in tuples), law


def _forced_scan(level, seed, samples):
    """`law_suite(level)` with every row's structured scan, proved or not."""
    return run_laws(
        cdalg.LADDER_LAWS, f"level-{level}", 1 << level, dim=1 << level,
        structured=lambda law, kinds: structured_tuples(level, len(kinds), cdalg.STRUCTURED_CAP),
        suite=lambda law: f"cdalg/{law}/level-{level}/exact",
        expect=lambda law: LADDER[law](level), samples=samples, seed=seed)


def _doc(reports):
    return json.dumps([{**r.to_dict(), "duration_ms": 0} for r in reports])


@pytest.mark.parametrize("level", range(4))
def test_proved_rows_report_what_the_scan_reports(level):
    assert _doc(cdalg.law_suite(level, samples=30, seed=7)) == _doc(_forced_scan(level, 7, 30))


def _last_two_swapped(original):
    def swapped(a, b):      # the last two output coordinates exchanged
        out = original(a, b)
        return out[:-2] + (out[-1], out[-2])
    return swapped


# (level, patched kernel at its dimension, the rows it breaks there); a sign flip
# and a swap keep every |ab|^2, so norm multiplicativity is still proved
KERNEL_MUTANTS = {
    "sign-flipped-dim-4": (2, _sign_flipped, {"associativity", "alternativity"}),
    "last-two-swapped-dim-8": (3, _last_two_swapped, {"alternativity"}),
}


@pytest.mark.parametrize("mutant", KERNEL_MUTANTS)
def test_a_patched_kernel_reaches_the_proof_and_the_scan_finds_it(mutant, monkeypatch):
    # the proof and the structured scan multiply with `mul_ints`
    level, patch, broken = KERNEL_MUTANTS[mutant]
    original, n = cdalg.mul_ints, 1 << level
    patched = patch(original)
    monkeypatch.setattr(cdalg, "mul_ints",
                        lambda a, b: (patched if len(a) == n else original)(a, b))
    rejected = {law for law in cdalg._LADDER_ROWS
                if LADDER[law](level) and not cdalg._proved(law, level)}
    assert rejected == broken | {"nicely-normed"}
    reports = cdalg.law_suite(level, samples=30, seed=1)
    assert _doc(reports) == _doc(_forced_scan(level, 1, 30))
    failed = {r.law: r for r in reports if not r.expected}
    assert set(failed) == broken
    for r in failed.values():
        assert not r.holds and r.max_residual > 0 and {"inputs", "lhs", "rhs"} <= set(r.witness)
        assert all(type(c) is int for x in r.witness["inputs"] for c in x)   # a structured witness


@pytest.mark.parametrize("mutant", KERNEL_MUTANTS)
def test_a_patched_traced_kernel_fails_the_sampled_phase(mutant, monkeypatch):
    # the samples multiply with the traced kernel, which the proof does not take
    level, patch, broken = KERNEL_MUTANTS[mutant]
    original, n = cdalg._traced_kernel, 1 << level
    monkeypatch.setattr(cdalg, "_traced_kernel",
                        lambda dim: patch(original(dim)) if dim == n else original(dim))
    rejected = {law for law in cdalg._LADDER_ROWS
                if LADDER[law](level) and not cdalg._proved(law, level)}
    assert rejected == {"nicely-normed"}
    reports = cdalg.law_suite(level, samples=30, seed=1)
    failed = {r.law: r for r in reports if not r.expected}
    assert set(failed) == broken
    for r in failed.values():
        assert not r.holds and r.max_residual > 0 and {"inputs", "lhs", "rhs"} <= set(r.witness)
        assert all("/" in c for x in r.witness["inputs"] for c in x)   # a sampled witness


@pytest.mark.parametrize("level", range(MAX_LEVEL + 1))
def test_the_proof_multiplies_with_mul_ints_alone(level, monkeypatch):
    calls = {"mul_ints": 0, "traced": 0}
    mul_ints, traced = cdalg.mul_ints, cdalg._traced_kernel

    def recording_mul_ints(a, b):
        calls["mul_ints"] += 1
        return mul_ints(a, b)

    def recording_traced(dim):
        calls["traced"] += 1
        return traced(dim)

    monkeypatch.setattr(cdalg, "mul_ints", recording_mul_ints)
    monkeypatch.setattr(cdalg, "_traced_kernel", recording_traced)
    assert cdalg._proved("commutativity", level) == LADDER["commutativity"](level)
    assert calls == {"mul_ints": 2, "traced": 0}


def test_the_associativity_residual_gives_the_reported_level_3_witness():
    # the nonzero residual polynomial, evaluated at the structured witness that
    # `laws --level 3` reports, is that witness's lhs - rhs
    residual = BY_NAME["associativity"][3](cdalg._traced_kernel(8), *elements(3, 8))
    assert total_terms(residual) == 168
    doc = cli.run(cli.RunConfig("laws", level=3, samples=1)).to_dict()
    (report,) = [r for r in doc["reports"] if r["law"] == "associativity"]
    witness = report["witness"]
    point = [x for element in witness["inputs"] for x in element]
    assert all(type(x) is int for x in point)
    assert tuple(value(p, point) for p in residual) == _diff(witness["lhs"], witness["rhs"])
    assert report["max_residual"] == max(abs(value(p, point)) for p in residual) > 0
