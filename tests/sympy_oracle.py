"""sympy as an independent oracle for the native polynomial arithmetic.

The package itself never imports sympy; tests convert ``QuasiPoly``
values to and from sympy expressions to compare against it."""

from fractions import Fraction

import sympy

from clockrace import QuasiPoly


def sym(name):
    return sympy.Symbol(name, integer=True)


def to_sympy(q: QuasiPoly) -> sympy.Expr:
    expr = sympy.Integer(0)
    for m, c in q.terms:
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in m:
            term *= sym(v) ** e
        expr += term
    return expr


def from_sympy(expr) -> QuasiPoly:
    """Canonical QuasiPoly of a polynomial expression."""
    expr = sympy.expand(expr)
    names = sorted({str(s) for s in expr.free_symbols})
    terms = {}
    if names:
        for exps, c in sympy.Poly(expr, *[sym(n) for n in names]).terms():
            mono = tuple((n, e) for n, e in zip(names, exps) if e)
            terms[mono] = Fraction(int(c.p), int(c.q))
    else:
        c = sympy.Rational(expr)
        terms[()] = Fraction(int(c.p), int(c.q))
    return QuasiPoly.from_terms(terms)


def same_poly(q: QuasiPoly, expected) -> bool:
    return q is not None and sympy.expand(to_sympy(q) - expected) == 0
