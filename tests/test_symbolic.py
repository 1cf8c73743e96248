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
projection run `joinmul._arc_blocks` and `hopf._projection` themselves.  The
exact diamond's proofs of its unit-norm and boundary rows
(`joinmul._grid_proved`) are tested against the grids they replace, which a
test forces by patching the proof to False.
"""

import json
from fractions import Fraction
from math import prod

import pytest
from test_joinmul import (_dropped_left, _negated_right, _operands_swapped, _sign_flipped,
                          _swapped_blocks)

from hopfcheck import cdalg, cli, hopf, joinmul
from hopfcheck.cdalg import LADDER, MAX_LEVEL, STRUCTURED_CAP, mul_coeffs, structured_tuples
from hopfcheck.checks import run_laws
from hopfcheck.laws import imaginaroid_instance
from hopfcheck.sampling import CounterRng, quarter_grid, rand_unit
from hopfcheck.spheremodel import SpherePoint, basis_coords
from hopfcheck.symbolic import Poly, elements, reduce_squares, sphere_rule


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


# --- the exact diamond's grid rows: proofs against the grids they replace --------

DIAMOND_DIMS = (1, 2, 4, 8)
GRID_ROWS = ("filler-unit-norm", "filler-boundary")


def test_reduce_squares_rewrites_each_square_by_its_rule():
    x0, x1, d = elements(1, 3)[0]
    rules = dict([sphere_rule((x0, x1), d)])
    assert rules == {0: d * d - x1 * x1}
    assert not reduce_squares(x0 * x0 + x1 * x1 - d * d, rules)
    assert reduce_squares(x0 * x0 * x0 * x1, rules) == x0 * x1 * (d * d - x1 * x1)
    assert reduce_squares(x0 * x1 - d, rules) == x0 * x1 - d    # no square, no change


def _proved_at(law, dim):
    """Whether the row's proof stands in for an exact grid at an exact corner of dim."""
    grid = joinmul._LiftedGrid(quarter_grid(2))
    return joinmul._grid_proved(grid, law, SpherePoint.basis(dim, 0))


@pytest.mark.parametrize("dim", DIAMOND_DIMS)
def test_both_diamond_proofs_hold(dim):
    assert joinmul._unit_norm_identity(dim) and joinmul._boundary_identity(dim)
    assert all(_proved_at(law, dim) for law in GRID_ROWS)


@pytest.mark.parametrize("dim", DIAMOND_DIMS)
def test_the_proof_builds_the_corner_as_the_grid_does(dim):
    # at a corner's lifted values the symbolic (one, x, d_x) is `_lifted_corner`'s
    one, x, dx, *_ = joinmul._symbols(dim)
    for i in range(4):
        corner = (SpherePoint.basis(dim, 0, 1 - 2 * i) if i < 2
                  else SpherePoint(rand_unit(CounterRng(3, "test/diamond-corner", i), dim, "exact")))
        want_one, want_x, want_dx, exact = joinmul._lifted_corner(corner)
        point = [0] * 6 + [want_dx] + list(want_x)      # variable 6 is d_x, 7 on are x
        assert exact and value(dx, point) == want_dx
        assert tuple(value(c, point) for c in x) == want_x
        assert tuple(value(c, point) for c in one) == want_one == basis_coords(dim, 0, want_dx)


def _forced_grid(monkeypatch):
    monkeypatch.setattr(joinmul, "_grid_proved", lambda grid, law, x: False)


def _diamond_json(argv, capsys):
    code = cli.main(argv + ["--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    del doc["duration_ms"]
    return code, _doc_reports(doc.pop("reports")), doc


def _doc_reports(reports):
    return [{**(r if type(r) is dict else r.to_dict()), "duration_ms": 0} for r in reports]


@pytest.mark.parametrize("seed", (1, 7))
@pytest.mark.parametrize("grid", (1, 8, 16))
@pytest.mark.parametrize("instance", ("empty", "s0", "s2", "octonion-control"))
def test_proved_rows_report_what_the_grid_reports(instance, grid, seed, monkeypatch, capsys):
    # octonion-control is no CLI instance, so it runs through the library suite
    if instance == "octonion-control":
        def run():
            return _doc_reports(joinmul.diamond_suite(
                imaginaroid_instance(instance), grid=grid, samples=30, seed=seed))
    else:
        def run():
            return _diamond_json(["diamond", "--instance", instance, "--grid", str(grid),
                                  "--samples", "30", "--seed", str(seed)], capsys)
    proved = run()
    with monkeypatch.context() as patch:
        _forced_grid(patch)
        assert run() == proved


@pytest.mark.parametrize("mode", ("exact", "float"))
def test_only_an_exact_diamond_skips_its_grids(mode, monkeypatch):
    proofs, calls = [], {"_unit_residuals": 0, "_boundary_pairs": 0}
    original = joinmul._grid_proved

    def recording_proof(grid, law, x):
        proofs.append(original(grid, law, x))
        return proofs[-1]

    def recording(name):
        grid_body = getattr(joinmul, name)

        def recorded(grid, x):
            calls[name] += 1
            return grid_body(grid, x)
        return recorded

    monkeypatch.setattr(joinmul, "_grid_proved", recording_proof)
    for name in calls:
        monkeypatch.setattr(joinmul, name, recording(name))
    reports = joinmul.diamond_suite(imaginaroid_instance("s2"), grid=8, samples=6, mode=mode)
    assert all(r.holds for r in reports) and len(proofs) == 12    # two rows, six corners
    if mode == "exact":
        assert all(proofs) and calls == {"_unit_residuals": 0, "_boundary_pairs": 0}
    else:       # the float poles are exact corners, and run their grids too
        assert not any(proofs) and calls == {"_unit_residuals": 6, "_boundary_pairs": 6}


def _m_flipped(sigma, tau, one, x):
    # `_reduced_blocks` with +cs*ct in place of m = -cs*ct: off the sphere inside
    # the square, and off the edges sigma = (1, 0) and tau = (1, 0)
    cs, ss = sigma
    ct, st = tau
    m, n, p, q = cs * ct, ss * st, ss * ct, cs * st
    return (tuple([m * u + n * v for u, v in zip(one, x)]),
            tuple([p * u + q * v for u, v in zip(one, x)]))


#: (patched function, its mutant, the grid rows whose proofs it breaks)
DIAMOND_MUTANTS = {
    "m-sign-flipped": ("_reduced_blocks", lambda original: _m_flipped, set(GRID_ROWS)),
    "dropped-left": ("_reduced_blocks", _dropped_left, set(GRID_ROWS)),
    "swapped-blocks": ("_reduced_blocks", lambda original: _swapped_blocks, {"filler-boundary"}),
    "edge-right-negated": ("_edge_blocks", _negated_right, {"filler-boundary"}),
}


@pytest.mark.parametrize("mutant", DIAMOND_MUTANTS)
def test_a_mutant_fails_exactly_the_proofs_it_breaks(mutant, monkeypatch, capsys):
    target, perturb, broken = DIAMOND_MUTANTS[mutant]
    argv = ["diamond", "--instance", "s2", "--grid", "8", "--samples", "12", "--seed", "1"]
    sound = _diamond_json(argv, capsys)
    monkeypatch.setattr(joinmul, target, perturb(getattr(joinmul, target)))
    for dim in DIAMOND_DIMS:
        assert {law for law in GRID_ROWS if not _proved_at(law, dim)} == broken
    proved = _diamond_json(argv, capsys)
    with monkeypatch.context() as patch:
        _forced_grid(patch)
        assert _diamond_json(argv, capsys) == proved
    code, reports, _ = proved
    failed = {r["law"] for r in reports if r["status"] == "fails"}
    assert code == 1 and sound[0] == 0 and broken <= failed
    for r in reports:
        assert (r["status"] == "fails") == ("witness" in r)


def test_an_off_circle_grid_pair_fails_the_unit_norm_with_its_witness(monkeypatch):
    pairs = quarter_grid(4)
    pairs[2] = (Fraction(3, 5), Fraction(3, 5))         # 9 + 9 != 25
    grid = joinmul._LiftedGrid(pairs)
    assert grid.proofs == ("filler-boundary",)
    assert set(joinmul._LiftedGrid(quarter_grid(4)).proofs) == set(GRID_ROWS)
    assert joinmul._LiftedGrid(quarter_grid(4), prove=False).proofs == ()

    def run():
        return run_laws(joinmul.DIAMOND_LAWS, "s7", grid, dim=4,
                        suite=lambda law: "diamond/s7/x/exact", samples=6, seed=1)

    reports = run()
    with monkeypatch.context() as patch:
        _forced_grid(patch)
        assert _doc_reports(run()) == _doc_reports(reports)
    unit = {r.law: r for r in reports}["filler-unit-norm"]
    assert unit.status == "fails" and unit.max_residual > 0
    assert ["3/5", "3/5"] in unit.witness["lhs"] and unit.witness["rhs"] == "unit"
    assert {r.law: r for r in reports}["filler-boundary"].status == "holds-exact"
