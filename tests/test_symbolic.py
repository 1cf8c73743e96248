"""Symbolic identities through the code that runs.

`symbolic.Poly` variables go through the package's own kernels and formulas,
so an identity whose residual is the zero polynomial holds for all real
inputs of that dimension, and a nonzero residual is a polynomial that some
real input does not zero.  The ladder identities run the two products the
ladder takes, the traced kernel and the sign table's `mul_ints`, both read
from `cdalg` at call time; `nicely-normed` branches on values and is left to
the sampled ladder.  The join product's arc formula and the Hopf projection
run `joinmul._arc_blocks` and `hopf._projection` themselves.
"""

import pytest
from symbolic import elements, sum_squares, total_terms
from test_joinmul import _operands_swapped, _sign_flipped

from hopfcheck import cdalg, hopf, joinmul
from hopfcheck.cdalg import LADDER, MAX_LEVEL, mul_coeffs


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

