"""Cayley-Dickson algebra tower.

Level n is the algebra of dimension 2^n over the reals: n = 0, 1, 2, 3, 4
give the reals, complexes, quaternions, octonions and sedenions.  Each
level doubles the previous one with

    (a, b) (c, d) = (ac - d b*,  a* d + c b)
    (a, b)*       = (a*, -b)
    1             = (1, 0)

taken literally, so the induced quaternion basis satisfies e1 e2 = -e3
(the mirror of the textbook orientation; every law checked here is
orientation-independent).  An element is a tuple of its 2^n coefficients,
e0 first; coefficients are exact rationals or floats (levels are capped
at 5).

One module picks the kernel, by operand form.  `mul_coeffs` sends
`Lifted` numerators (over the product of the denominators, staying
`Lifted`), int tuples and float tuples through a straight-line kernel per
level, traced once from the recursion (`_mul_recursive`) on first use: it
takes every product, sum and difference of the recursion in its order,
because float addition does not associate and the summation order is part
of the result.  Exact tuples holding a Fraction are lifted once, multiplied
on their numerators and come back as Fractions: the one lift of a library
caller's tuples, whose norms, join products and Hopf images take the plain
formulas.  Any other mix enters the kernel as it is, on Python's mixed
arithmetic (exact x * float y is float(x) * y); an operand with a float
first coordinate skips the type scan.  No exact value becomes a float: the
units and poles the package builds are ints, and an int meets a float as
its float form does.  The kernel gives what the recursion gives, bit for bit.
The same tracer (`_Traced`, `_straight_line`) compiles `sampling`'s float
readers, which divide, take constants and reuse values; it records
arithmetic alone, so the code it writes names nothing.  The recursion uses
no value twice, so the kernel has no local but its negations.

Basis products satisfy e_i e_j = +-e_(i xor j) at every level, so a
per-level sign table, read off the recursion on first use, gives products
of ints in one loop that skips zero coefficients (`mul_ints`).  Ladder law
bodies take their product as an argument, and one wrapper (`_ladder_law`)
picks it by operand form alone: an all-int tuple, as every structured one
is, takes the sign table at every level; a sample takes the traced kernel,
a `Lifted` one on its numerators, and only a failing one goes through
`mul_coeffs`, for its witness.  A row expected to hold whose body is
polynomial (all but `nicely-normed`) first runs once on symbolic variables
through `mul_ints` (`_proved`); a zero residual proves it on every
structured tuple, so `law_suite` hands the row none, and the sampled phase
runs as before.  The zero-divisor search reads products of two-term sums
off the sign table (`zero_pairs`) and confirms its witness on the traced
kernel, which does not read it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, islice, product
from typing import Callable, Iterator, Optional

from .checks import compare, max_abs_diff, run_laws, worst_of
from .errors import InvariantViolation, UsageError
from .spheremodel import Lifted, basis_coords, lifted, norm_coeffs

MAX_LEVEL = 5
STRUCTURED_CAP = 6000   # structured inputs scanned per ladder law

# The property ladder: which laws are expected to hold at each level.
LADDER = {
    "realness": lambda level: level == 0,
    "commutativity": lambda level: level <= 1,
    "associativity": lambda level: level <= 2,
    "alternativity": lambda level: level <= 3,
    "nicely-normed": lambda level: True,
    "norm-multiplicativity": lambda level: level <= 3,
    "zero-divisor-search": lambda level: level <= 3,
}


# ---------------------------------------------------------------------------
# kernel on raw coefficient tuples


def conj_coeffs(a):
    # (a, b)* = (a*, -b) unrolled: negate every coefficient except the real one
    if type(a) is Lifted:
        return Lifted(conj_coeffs(a.nums), a.den)
    return (a[0],) + tuple([-c for c in a[1:]])


_EXACT = frozenset((int, Fraction))


def mul_ints(a, b) -> tuple:
    """Product of int coefficient sequences of one level, through the sign table.
    A ladder row takes it for every all-int tuple (`_ladder_law`), and proves with it
    (`_proved`)."""
    n = len(a)
    signs = _sign_table(n)
    out = [0] * n
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            row = signs[i]
            for j, y in terms:
                if row[j]:
                    out[i ^ j] -= x * y
                else:
                    out[i ^ j] += x * y
    return tuple(out)


def mul_coeffs(a, b):
    """Product of two elements of one level on the traced kernel, in the operands' form."""
    if type(a) is Lifted or type(b) is Lifted:
        a, b = lifted(a), lifted(b)
        return Lifted(_traced_kernel(len(a))(a.nums, b.nums), a.den * b.den)
    if type(a[0]) is not float and type(b[0]) is not float:   # a float operand skips the scan
        kinds = {*map(type, a), *map(type, b)}
        if Fraction in kinds and kinds <= _EXACT:
            return tuple(mul_coeffs(lifted(a), lifted(b)))
    return _traced_kernel(len(a))(a, b)


def _mul_recursive(a: tuple, b: tuple) -> tuple:
    """The doubling formula applied recursively; traced into `_traced_kernel`."""
    n = len(a)
    if n == 1:
        return (a[0] * b[0],)
    if n == 2:
        a0, a1 = a
        c0, c1 = b
        return (a0 * c0 - c1 * a1, a0 * c1 + c0 * a1)
    h = n // 2
    p, q = a[:h], a[h:]
    r, w = b[:h], b[h:]
    left = _mul_recursive(p, r)
    sub = _mul_recursive(w, conj_coeffs(q))
    right = _mul_recursive(conj_coeffs(p), w)
    add = _mul_recursive(r, q)
    return (tuple(x - y for x, y in zip(left, sub))
            + tuple(x + y for x, y in zip(right, add)))


@cache
def _sign_table(n: int) -> tuple:
    """Row i, entry j is True when e_i e_j = -e_(i xor j) at dimension n.

    Read off the recursion: e_i (1, 2, ..., n) holds -(j+1) at coordinate
    i xor j exactly when the sign is negative.
    """
    ramp = tuple(range(1, n + 1))
    rows = (_mul_recursive(basis_coords(n, i, 1), ramp) for i in range(n))
    return tuple(tuple(row[i ^ j] < 0 for j in range(n)) for i, row in enumerate(rows))


class _Traced:
    """A value inside a traced function, held as the source text of its expression.

    `*`, `+`, `-` and `/` combine two values, or a value and an int or float
    constant (written as its `repr`, which reads back as the same float), on
    either side of `*`, `+` and `-` and on the right of `/`.  `tape` maps each
    expression, in the order first built, to [operator, operands, uses], each
    operand written as its text, and uses counting the expressions built on
    it; an expression built again is the same value.  Unary `-` returns a
    local that holds the negation, one per distinct operand, recorded in
    `negs` (expression -> local name, in the order first needed) and on the
    tape.  `_straight_line` makes a local of each expression used more than
    once too, so none is computed twice, and writes every other one where it
    is used.
    """

    __slots__ = ("src", "tape", "negs")

    def __init__(self, src: str, tape: dict, negs: dict):
        self.src = src
        self.tape = tape
        self.negs = negs

    def _node(self, src: str, op: str, args: tuple) -> "_Traced":
        tape = self.tape
        if src not in tape:
            for x in args:
                entry = tape.get(x)
                if entry is not None:
                    entry[2] += 1
            tape[src] = [op, args, 0]
        return _Traced(src, tape, self.negs)

    def _op(self, op: str, reflected: bool, other):
        if type(other) is _Traced:
            y = other.src
        elif type(other) in (int, float):
            y = repr(other)
        else:
            return NotImplemented
        args = (y, self.src) if reflected else (self.src, y)
        return self._node(f"({args[0]} {op} {args[1]})", op, args)

    def __mul__(self, other):
        return self._op("*", False, other)

    def __rmul__(self, other):
        return self._op("*", True, other)

    def __add__(self, other):
        return self._op("+", False, other)

    def __radd__(self, other):
        return self._op("+", True, other)

    def __sub__(self, other):
        return self._op("-", False, other)

    def __rsub__(self, other):
        return self._op("-", True, other)

    def __truediv__(self, other):
        return self._op("/", False, other)

    def __neg__(self):
        name = self.negs.get(self.src)
        if name is None:
            name = self.negs[self.src] = f"n{len(self.negs)}"
            self._node(name, "-", (self.src,))
        return _Traced(name, self.tape, self.negs)


def _text(x):
    """x, a traced value, an int, a float or a tuple of them, with each value as its text."""
    if type(x) is tuple:
        return tuple([_text(y) for y in x])
    return x.src if type(x) is _Traced else repr(x)


def _texts_in(x):
    """The texts in x, a text or a tuple of texts and tuples."""
    if type(x) is tuple:
        for y in x:
            yield from _texts_in(y)
    else:
        yield x


def _source(x, text) -> str:
    """x, a text or a tuple of them, as source, each text written as text(x)."""
    if type(x) is tuple:
        return f"({''.join(f'{_source(y, text)}, ' for y in x)})"
    return text(x)


def _straight_line(signature: str, unpacks: list, out, tape: dict, filename: str):
    """The function `def signature:` running a trace straight through: it unpacks
    each (leaves, source) of unpacks, computes the negations and the expressions
    used more than once (counting out) as locals, in tape order, and returns out,
    a traced value or a tuple of them and constants, every other expression inline.
    It names no global: the trace is arithmetic alone."""
    out = _text(out)
    for x in _texts_in(out):
        if x in tape:
            tape[x][2] += 1
    written = {}    # an expression -> its text, where that is not the expression itself

    def text(x):
        return written.get(x, x)

    def expression(op, args):     # unary - or a binary operator
        x = [text(y) for y in args]
        return f"-{x[0]}" if len(x) == 1 else f"({x[0]} {op} {x[1]})"

    lines = [f"{_source(_text(tuple(leaves)), text)} = {source}" for leaves, source in unpacks]
    for src, (op, args, uses) in tape.items():
        negation = op == "-" and len(args) == 1     # named on the tape
        if negation or uses > 1:
            name = src if negation else f"v{len(lines)}"
            lines.append(f"{name} = {expression(op, args)}")
            if name != src:
                written[src] = name
        elif written and any(x in written for x in args):
            written[src] = expression(op, args)
    lines.append(f"return {_source(out, text)}")
    tape.clear()    # spent: free it before `compile` takes its own memory
    source = f"def {signature}:\n" + "".join(f"    {line}\n" for line in lines)
    scope = {}
    exec(compile(source, filename, "exec"), scope)
    return scope[signature[:signature.index("(")]]


@cache
def _traced_kernel(n: int):
    """`_mul_recursive` at dimension n, traced once into a straight-line function.

    kernel(a, b) unpacks both operands into locals, computes each distinct
    negation the recursion takes once, then returns the recursion's
    expressions.  Every product, sum and difference has the recursion's
    operands in its order, and negation is exact, so results are
    bit-identical to the recursion's for every scalar type, signed zeros and
    Fraction-float mixes included.  The recursion builds and uses every other
    expression once, so the kernel has no local but its negations.
    """
    tape, negs = {}, {}
    a = tuple(_Traced(f"a{i}", tape, negs) for i in range(n))
    b = tuple(_Traced(f"b{i}", tape, negs) for i in range(n))
    return _straight_line("kernel(a, b)", [(a, "a"), (b, "b")], _mul_recursive(a, b), tape,
                          f"<cdalg traced kernel, dim {n}>")


# ---------------------------------------------------------------------------
# structured inputs: signed basis vectors, then signed two-term sums


def _two_term_terms(n: int) -> tuple:
    """(i, j, si, sj) of each two-term sum si e_i + sj e_j with i < j, in scan order."""
    return tuple((i, j, si, sj) for i, j in combinations(range(n), 2)
                 for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)))


def _structured_elements(level: int) -> tuple:
    n = 1 << level
    singles = tuple(basis_coords(n, i, s) for i in range(n) for s in (1, -1))
    pairs = []
    for i, j, si, sj in _two_term_terms(n):
        c = [0] * n
        c[i] = si
        c[j] = sj
        pairs.append(tuple(c))
    return singles, tuple(pairs)


def structured_tuples(level: int, arity: int, cap: int):
    """Deterministic witness-search stream.

    Tuples are graded by total term count and emitted grade by grade;
    within a grade, slots holding two-term sums come first and ties break
    lexicographically.  Each slot pattern (2 = two-term sum, 1 = single)
    is one lazy product, and the stream stops after `cap` tuples; callers
    fall back to random search beyond that.
    """
    pools = _structured_elements(level)     # (singles, pairs)
    stream = (tup for grade in range(arity, 2 * arity + 1)
              for pattern in product((2, 1), repeat=arity) if sum(pattern) == grade
              for tup in product(*(pools[slot - 1] for slot in pattern)))
    return islice(stream, cap)


# ---------------------------------------------------------------------------
# the law suite (a ladder row's context is its dimension)


def _ladder_law(body: Callable) -> Callable:
    """A ladder row's evaluate(n, inputs) at dimension n, for body(mul, inputs).

    The product, a module global read at each call, is `mul_ints` on all-int tuples
    at every level (a Fraction or float makes their sum no int), else the traced
    kernel.  A sample is all tuples or all `Lifted`; a `Lifted` one is judged on its
    numerators: every ladder law compares sides of equal degree in each input, so
    over positive denominators they agree, and a real part is positive, exactly
    when the numerators' do (a new row must be homogeneous so).  Only a failing
    sample runs again on its values through `mul_coeffs`, for its witness.
    """
    def evaluate(n, inputs):
        if type(inputs[0]) is Lifted:
            if not body(_traced_kernel(n), [x.nums for x in inputs])[0]:
                return 0, None, None
            return body(mul_coeffs, inputs)
        if type(sum(map(sum, inputs))) is int:
            return body(mul_ints, inputs)
        return body(_traced_kernel(n), inputs)
    return evaluate


def _eval_realness(_, inputs):
    (a,) = inputs
    return compare(conj_coeffs(a), a)


def _eval_commutativity(mul, inputs):
    a, b = inputs
    return compare(mul(a, b), mul(b, a))


def _eval_associativity(mul, inputs):
    a, b, c = inputs
    return compare(mul(mul(a, b), c), mul(a, mul(b, c)))


def _eval_alternativity(mul, inputs):
    x, y = inputs
    xy = mul(x, y)
    lhs1 = mul(mul(x, x), y)
    rhs1 = mul(x, xy)
    r1 = max_abs_diff(lhs1, rhs1)
    if not r1 <= 0:   # a NaN residual fails here too
        return r1, lhs1, rhs1
    return compare(mul(xy, y), mul(x, mul(y, y)))


def _eval_nicely_normed(mul, inputs):
    (a,) = inputs
    star = conj_coeffs(a)
    # (i) a + a* is real: non-real coefficients of the sum must vanish
    if any(c + d for c, d in zip(a[1:], star[1:])):
        tail = tuple(c + d for c, d in zip(a[1:], star[1:]))
        worst, _ = worst_of(tail, abs)
        return worst, tail, tuple(0 * c for c in tail)
    # (ii) a a* = a* a
    lhs = mul(a, star)
    rhs = mul(star, a)
    r = max_abs_diff(lhs, rhs)
    if not r <= 0:
        return r, lhs, rhs
    # (iii) a a* > 0 for nonzero a
    if any(a) and lhs[0] <= 0:
        return 1, lhs[0], "positive"
    return 0, lhs, rhs


def _eval_norm_multiplicativity(mul, inputs):
    a, b = inputs
    lhs = norm_coeffs(mul(a, b))
    rhs = norm_coeffs(a) * norm_coeffs(b)
    d = lhs - rhs
    if d < 0:
        d = -d
    return d, (lhs,), (rhs,)


#: law -> (body, arity, polynomial): a polynomial body reaches its residual by ring
#: operations and `max_abs_diff` alone; `nicely-normed` branches on positivity
_LADDER_ROWS = {
    "realness": (_eval_realness, 1, True),
    "commutativity": (_eval_commutativity, 2, True),
    "associativity": (_eval_associativity, 3, True),
    "alternativity": (_eval_alternativity, 2, True),
    "nicely-normed": (_eval_nicely_normed, 1, False),
    "norm-multiplicativity": (_eval_norm_multiplicativity, 2, True),
}
LADDER_LAWS = tuple((law, _ladder_law(body), ("element",) * arity)
                    for law, (body, arity, _) in _LADDER_ROWS.items())


def _proved(law: str, level: int) -> bool:
    """Whether a ladder row's body is an identity at the level, through `mul_ints`,
    the product its structured phase takes.

    The body runs once, with no `_ladder_law`, on `symbolic.Poly` variables and
    `mul_ints`, read as a module global at call time.  It uses only +, -, * and
    truth tests that skip a zero coefficient, so each output coordinate is a
    polynomial whose value at any int tuples is what `mul_ints` computes on them
    (a term skipped there is zero).
    `max_abs_diff` returns 0 only when every coordinate polynomial is equal, and
    orders any other difference, which raises TypeError unless it is a constant;
    norm multiplicativity orders its difference the same way.  So a residual of
    exactly 0 with nothing raised means the body gives residual 0 on every
    structured tuple.  A nonzero residual, an exception or a row whose body is not
    polynomial proves nothing.
    """
    body, arity, polynomial = _LADDER_ROWS[law]
    if not polynomial:
        return False
    from .symbolic import elements

    try:
        return body(mul_ints, elements(arity, 1 << level))[0] == 0
    except Exception:   # an identity never raises; anything that does is scanned
        return False


def law_suite(level: int,
              mode: str = "exact",
              samples: int = 10000,
              seed: int = 0,
              *,
              tolerance: float = 1e-9) -> list:
    """Check the whole property ladder at one level.

    Returns one report per law.  Expected failures (e.g. associativity at
    level 3) are marked expected and do not count against the run.  A row
    expected to hold that `_proved` proves scans no structured tuple.  Samples
    are read by `sampling.law_samples`' `element` reader: `Lifted` numerators in
    exact mode, floats in float mode.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise UsageError(f"level must be within 0..{MAX_LEVEL}")
    return run_laws(
        LADDER_LAWS, f"level-{level}", 1 << level, dim=1 << level,
        structured=lambda law, kinds: () if LADDER[law](level) and _proved(law, level)
        else structured_tuples(level, len(kinds), STRUCTURED_CAP),
        suite=lambda law: f"cdalg/{law}/level-{level}/{mode}",
        expect=lambda law: LADDER[law](level), samples=samples, seed=seed,
        mode=mode, tolerance=tolerance)


# ---------------------------------------------------------------------------
# zero divisors


def zero_pairs(level: int) -> Iterator[tuple]:
    """Every pair (a, b) of two-term sums with a b = 0 by the sign table, in scan order.

    With i != j and k != l, (s_i e_i + s_j e_j)(s_k e_k + s_l e_l) puts its
    four terms at i^k, i^l, j^k and j^l (^ is xor).  i^k differs from i^l
    and from j^k, and j^l does too, so two terms share a coordinate only
    when i^k = j^l or i^l = j^k, and each of these is i^j = k^l.  Four
    terms at distinct coordinates never cancel, so a b can vanish only when
    i^j = k^l, and then exactly when both coinciding pairs cancel under
    `_sign_table`.  The scan visits the same pairs in the same order as a
    scan over all of them, skipping only those whose xors differ.
    """
    n = 1 << level
    signs = _sign_table(n)
    terms = [(*t, c) for t, c in zip(_two_term_terms(n), _structured_elements(level)[1])]
    same_xor = {}
    for t in terms:
        same_xor.setdefault(t[0] ^ t[1], []).append(t)

    def coeff(x, y, s):     # the coefficient of e_x e_y scaled by s, at e_(x xor y)
        return -s if signs[x][y] else s

    for i, j, si, sj, a in terms:
        for k, l, sk, sl, b in same_xor[i ^ j]:
            if (coeff(i, k, si * sk) == -coeff(j, l, sj * sl)
                    and coeff(i, l, si * sl) == -coeff(j, k, sj * sk)):
                yield a, b


def zero_divisor_search(level: int, mode: str = "exact") -> Optional[tuple]:
    """First pair of nonzero two-term sums with exactly zero product.

    Scans (e_i +/- e_j)(e_k +/- e_l) in lexicographic order over indices
    and signs, reading the product off the sign table (`zero_pairs`: only
    pairs with i xor j = k xor l can vanish), and confirms the first hit
    with one `mul_coeffs` product, on the traced kernel, which does not
    read the table; a product that disagrees raises InvariantViolation.
    Returns the pair as two coefficient tuples of Fractions, or None when
    the whole family multiplies without a zero (levels <= 3).  In float mode
    the pair is scaled to unit norm floats; an unknown mode raises UsageError.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise UsageError(f"level must be within 0..{MAX_LEVEL}")
    if mode not in ("exact", "float"):
        raise UsageError(f"unknown mode {mode!r}")
    hit = next(zero_pairs(level), None)
    if hit is None:
        return None
    a, b = hit
    if any(mul_coeffs(a, b)):
        raise InvariantViolation(
            f"the sign table zeroes {a} {b} at level {level}, the kernel does not")
    if mode == "float":
        scale = (1 / norm_coeffs(a)) ** 0.5
        return tuple(float(c) * scale for c in a), tuple(float(c) * scale for c in b)
    return tuple(map(Fraction, a)), tuple(map(Fraction, b))
