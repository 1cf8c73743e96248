"""A sparse polynomial scalar with integer coefficients, standard library only.

The traced kernel, `mul_ints`, `_arc_blocks` and the Hopf projection use only
`+`, `-`, `*`, unary `-` and truth tests on their scalars.  Handed `Poly`
variables, they run their own code on symbols and return polynomials, and
two sides that come out as the same polynomial are equal for all real
inputs, with no sampling and no degree bookkeeping.

A monomial is the sorted tuple of its variables' indices, one entry per
factor: x0^2 x3 is (0, 0, 3) and the constant monomial is ().  A truth test
asks whether the polynomial is nonzero, which is what a kernel that skips
zero coefficients means by it.
"""


class Poly:
    """A polynomial as {monomial: nonzero int coefficient}; ints mix in as constants."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {m: c for m, c in terms.items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in _poly(other).terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -_poly(other)

    def __rsub__(self, other):
        return _poly(other) + -self

    def __mul__(self, other):
        out, other = {}, _poly(other).terms
        for m, c in self.terms.items():
            for n, d in other.items():
                key = tuple(sorted(m + n))
                out[key] = out.get(key, 0) + c * d
        return Poly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.terms == _poly(other).terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return f"Poly({self.terms!r})"


def _poly(x) -> Poly:
    return x if type(x) is Poly else Poly({(): x})


def elements(count: int, dim: int) -> list:
    """count coordinate tuples of dim variables each, no variable shared."""
    return [tuple(Poly({(k * dim + i,): 1}) for i in range(dim)) for k in range(count)]


def sum_squares(a) -> Poly:
    return sum((c * c for c in a), Poly({}))


def total_terms(a) -> int:
    """The number of terms in all coordinates of a coordinate tuple together."""
    return sum(len(_poly(c)) for c in a)
