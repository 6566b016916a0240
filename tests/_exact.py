"""Exact polynomials over the rationals, for proving identities of the kernel.

A ``Poly`` maps each monomial, a sorted tuple of variable names, to a nonzero
``Fraction``.  Ints and floats mix in exactly (``Fraction(0.5) == 1/2``), so
the kernel's own ``0.0 + x`` and ``sign * x * y`` compute exact polynomials
when the vector components are ``Poly`` variables.
"""

from __future__ import annotations

from fractions import Fraction


def _lift(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, float, Fraction)):
        return Poly({(): Fraction(x)})
    return None


class Poly:
    def __init__(self, terms: dict):
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def var(cls, name: str) -> Poly:
        return cls({(name,): Fraction(1)})

    def __add__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _lift(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _lift(other)
        return NotImplemented if other is None else self.terms == other.terms

    def __hash__(self) -> int:
        # The kernel keys its columns by their weights.  Consistent with __eq__:
        # a constant hashes as the number it equals.
        if set(self.terms) <= {()}:
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{'*'.join(m) or '1'}" for m, c in sorted(self.terms.items()))
