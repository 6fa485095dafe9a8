"""Program generators: counting nests and polynomial-race reductions.

``counting_nest`` compiles a polynomial with nonnegative integer
coefficients into a clocked loop nest whose total number of executed
``advance`` statements equals the polynomial evaluated at the parameters.
The construction is by iterated first differences:

    Q(v, rest) = Q(0, rest) + sum_{c=0}^{v-1} (Q(c+1, rest) - Q(c, rest))

and differences of polynomials with nonnegative coefficients again have
nonnegative coefficients, so the recursion stays well-formed.

``race_test`` reduces "does P1(x) = P2(x) have a solution in a box?" to a
race question: two clocked activities advance P1(x) and P2(x) times
respectively and then touch a shared scalar, so the accesses race exactly
when the phases coincide.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .phi import QuasiPoly
from .syntax import (
    AccessRef,
    Advance,
    AffineExpr,
    Async,
    Basic,
    Finish,
    For,
    Program,
    Seq,
    Stmt,
)


def _nonneg(q: QuasiPoly) -> bool:
    return all(c >= 0 for _, c in q.coeffs)


_POLY_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|\^|\*|\+|-)")


def parse_poly(text: str) -> QuasiPoly:
    """Parse polynomial syntax like ``x^2+x*y+y^2`` or ``3*x - 2``; the
    result lists exactly the variables that occur.

    Raises ValueError on malformed input."""
    pos, tokens = 0, []
    while pos < len(text):
        m = _POLY_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad polynomial syntax at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    poly = QuasiPoly.zero()
    i = 0

    def factor():
        nonlocal i
        if i >= len(tokens):
            raise ValueError("unexpected end of polynomial")
        tok = tokens[i]
        i += 1
        if tok.isdigit():
            base = QuasiPoly.constant(int(tok))
        elif tok[0].isalpha() or tok[0] == "_":
            base = QuasiPoly.var(tok)
        else:
            raise ValueError(f"unexpected token {tok!r}")
        if i < len(tokens) and tokens[i] == "^":
            i += 1
            if i >= len(tokens) or not tokens[i].isdigit():
                raise ValueError("exponent must be a literal integer")
            base = base ** int(tokens[i])
            i += 1
        return base

    def term():
        nonlocal i
        t = factor()
        while i < len(tokens) and tokens[i] == "*":
            i += 1
            t *= factor()
        return t

    first = True
    while i < len(tokens):
        sign = 1
        if tokens[i] in ("+", "-"):
            if tokens[i] == "-":
                sign = -1
            i += 1
        elif not first:
            raise ValueError(f"expected '+' or '-' before {tokens[i]!r}")
        poly += sign * term()
        first = False
    if first and tokens:
        raise ValueError("empty polynomial")
    return poly


# ---------------------------------------------------------------------------
# Counting nests


class _Fresh:
    def __init__(self):
        self.n = 0

    def __call__(self) -> str:
        name = f"c{self.n}"
        self.n += 1
        return name


def _emit_count(q: QuasiPoly, fresh: _Fresh) -> list[Stmt]:
    q = q.with_variables(())  # only the variables that occur
    if not q.variables:
        n = q.evaluate({})
        assert n >= 0
        return [Advance() for _ in range(int(n))]
    v = q.variables[0]
    out = _emit_count(q.substitute({v: AffineExpr.const_expr(0)}), fresh)
    it = fresh()
    step = q.substitute({v: AffineExpr.make(1, {it: 1})})
    delta = step - q.substitute({v: AffineExpr.var(it)})
    body = _emit_count(delta, fresh)
    out.append(
        For(
            var=it,
            lo=AffineExpr.const_expr(0),
            hi=AffineExpr.make(-1, {v: 1}),
            body=Seq(body=tuple(body)),
        )
    )
    return out


def counting_nest(spec: QuasiPoly) -> Program:
    """Clocked program whose advance count equals the polynomial."""
    if not _nonneg(spec):
        raise ValueError("counting nests need nonnegative coefficients")
    stmts = _emit_count(spec, _Fresh())
    root = Finish(clocked=True, body=Seq(body=tuple(stmts)))
    params = tuple((v, 0) for v in spec.variables)
    return Program(root=root, params=params, arrays=())


# ---------------------------------------------------------------------------
# Race reductions


@dataclass(frozen=True)
class RaceTest:
    """One generated program plus the variable orientation it encodes."""

    program: Program
    signs: tuple[tuple[str, int], ...]  # original var -> +1 / -1


def _split_by_sign(
    q: QuasiPoly, variables: Sequence[str]
) -> tuple[QuasiPoly, QuasiPoly]:
    terms = q.terms()
    pos = {m: c for m, c in terms.items() if c > 0}
    neg = {m: -c for m, c in terms.items() if c < 0}
    return QuasiPoly.from_terms(pos, variables), QuasiPoly.from_terms(neg, variables)


def race_test(
    p1: QuasiPoly, p2: QuasiPoly, signs: Optional[dict[str, int]] = None
) -> RaceTest:
    """Build one race-test program for nonnegative-coefficient P1, P2.

    The program has a box parameter ``m_<v>`` per variable, loops each
    variable from 0 to its bound, and races a scalar write (after P1(x)
    advances) against a scalar read (after P2(x) advances)."""
    if not _nonneg(p1) or not _nonneg(p2):
        raise ValueError("race tests need nonnegative coefficients on each side")
    variables = tuple(sorted(set(p1.variables) | set(p2.variables)))
    fresh = _Fresh()
    writer = Seq(
        body=tuple(
            _emit_count(p1, fresh)
            + [Basic(name="f", write=AccessRef("u", (), "write"), reads=())]
        )
    )
    reader = Seq(
        body=tuple(
            _emit_count(p2, fresh)
            + [Basic(name="g", write=None, reads=(AccessRef("u", (), "read"),))]
        )
    )
    body: Stmt = Finish(
        clocked=True,
        body=Seq(
            body=(
                Async(clocked=True, body=writer),
                Async(clocked=True, body=reader),
            )
        ),
    )
    for v in reversed(variables):
        body = For(
            var=v,
            lo=AffineExpr.const_expr(0),
            hi=AffineExpr.var(f"m_{v}"),
            body=body,
        )
    params = tuple((f"m_{v}", 0) for v in variables)
    program = Program(root=body, params=params, arrays=(("u", 0),))
    sign_map = tuple(sorted((signs or {v: 1 for v in variables}).items()))
    return RaceTest(program, sign_map)


def race_tests_all_orthants(p1: QuasiPoly, p2: QuasiPoly) -> list[RaceTest]:
    """Cover integer zeros of P1 - P2 in every orthant: substitute each
    sign pattern, split the result by coefficient sign, and emit one test
    per orthant.  A witness x >= 0 of an orthant test maps back to the
    integer zero (sign_v * x_v)."""
    variables = tuple(sorted(set(p1.variables) | set(p2.variables)))
    diff = p1 - p2
    out = []
    for bits in range(1 << len(variables)):
        signs = {
            v: (1 if not (bits >> i) & 1 else -1) for i, v in enumerate(variables)
        }
        subbed = diff.substitute({v: AffineExpr.var(v, s) for v, s in signs.items()})
        q1, q2 = _split_by_sign(subbed, variables)
        out.append(race_test(q1, q2, signs))
    return out
