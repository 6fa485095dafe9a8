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

from typing import NamedTuple, Optional, Sequence

from .parser import KEYWORDS, RESERVED_PREFIXES, _Parser
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
    return all(c >= 0 for _, c in q.terms)


def parse_poly(text: str) -> QuasiPoly:
    """Parse polynomial syntax like ``x^2+x*y+y^2`` or ``3*x - 2`` with the
    program tokenizer, so whitespace and ``//`` comments are ignored.

    Raises ParseError, a ValueError, on malformed input."""
    p = _Parser(text)

    def factor() -> QuasiPoly:
        tok = p.next()
        if tok.kind == "int":
            base = QuasiPoly.constant(int(tok.text))
        elif tok.kind == "ident":
            base = QuasiPoly.var(tok.text)
        else:
            found = tok.text or "end of input"
            raise p.error(f"expected number or variable, found {found!r}", tok)
        if p.accept("^"):
            tok = p.next()
            if tok.kind != "int":
                raise p.error("exponent must be a literal integer", tok)
            base = base ** int(tok.text)
        return base

    def term() -> QuasiPoly:
        t = factor()
        while p.accept("*"):
            t *= factor()
        return t

    poly = QuasiPoly.zero()
    while p.peek().kind != "eof":
        if p.accept("-"):
            poly -= term()
        elif p.accept("+") or p.pos == 0:  # the first term needs no sign
            poly += term()
        else:
            raise p.error(f"expected '+' or '-' before {p.peek().text!r}")
    return poly


# ---------------------------------------------------------------------------
# Counting nests


class _Fresh:
    """Picks names that no name taken so far uses: the polynomial's
    variables and every name picked before."""

    def __init__(self, taken: Sequence[str] = ()):
        self.taken = set(taken)
        self.n = 0

    def name(self, base: str) -> str:
        """``base``, or ``base0``, ``base1``, ... when it is taken."""
        name, k = base, 0
        while name in self.taken:
            name, k = f"{base}{k}", k + 1
        self.taken.add(name)
        return name

    def __call__(self) -> str:
        """The next free loop iterator of ``c0``, ``c1``, ..."""
        while f"c{self.n}" in self.taken:
            self.n += 1
        return self.name(f"c{self.n}")


def _check_keywords(variables: Sequence[str]) -> None:
    """Each variable becomes a parameter or loop iterator, so none may be a
    keyword of the language."""
    for v in variables:
        if v in KEYWORDS:
            raise ValueError(f"variable {v!r} is a keyword")


def _emit_count(q: QuasiPoly, fresh: _Fresh) -> list[Stmt]:
    if not q.variables:
        n = int(q.evaluate({}))
        assert n >= 0
        if n < 2:
            return [Advance() for _ in range(n)]
        # one loop, not n advances: the constant left by the k-th
        # difference of x^k is k!, so the nest stays linear in k
        return [
            For(
                var=fresh(),
                lo=AffineExpr.const_expr(0),
                hi=AffineExpr.const_expr(n - 1),
                body=Seq(body=(Advance(),)),
            )
        ]
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
    for v in spec.variables:
        if v.startswith(RESERVED_PREFIXES):
            raise ValueError(f"variable {v!r} uses a reserved prefix u_, v_ or a_")
    _check_keywords(spec.variables)
    stmts = _emit_count(spec, _Fresh(spec.variables))
    root = Finish(clocked=True, body=Seq(body=tuple(stmts)))
    params = tuple((v, 0) for v in spec.variables)
    return Program(root=root, params=params, arrays=())


# ---------------------------------------------------------------------------
# Race reductions


class RaceTest(NamedTuple):
    """One generated program plus the variable orientation it encodes."""

    program: Program
    signs: tuple[tuple[str, int], ...]  # original var -> +1 / -1


def _split_by_sign(q: QuasiPoly) -> tuple[QuasiPoly, QuasiPoly]:
    pos = {m: c for m, c in q.terms if c > 0}
    neg = {m: -c for m, c in q.terms if c < 0}
    return QuasiPoly.from_terms(pos), QuasiPoly.from_terms(neg)


def race_test(
    p1: QuasiPoly, p2: QuasiPoly, signs: Optional[dict[str, int]] = None
) -> RaceTest:
    """Build one race-test program for nonnegative-coefficient P1, P2.

    The program has a box parameter ``m_<v>`` per variable, loops each
    variable from 0 to its bound, and races a write of the scalar ``u``
    (after P1(x) advances) against a read of it (after P2(x) advances).
    The variables are those of ``signs`` when it is given, which may name
    more than occur in P1 and P2, else those that occur.  A box parameter,
    the scalar or a loop iterator gets a numeric suffix when a variable or
    an earlier pick already has its name."""
    if not _nonneg(p1) or not _nonneg(p2):
        raise ValueError("race tests need nonnegative coefficients on each side")
    variables = tuple(sorted(signs or set(p1.variables) | set(p2.variables)))
    _check_keywords(variables)
    fresh = _Fresh(variables)
    bounds = {v: fresh.name(f"m_{v}") for v in variables}
    scalar = fresh.name("u")
    writer = Seq(
        body=tuple(
            _emit_count(p1, fresh)
            + [Basic(name="f", write=AccessRef(scalar, (), "write"), reads=())]
        )
    )
    reader = Seq(
        body=tuple(
            _emit_count(p2, fresh)
            + [Basic(name="g", write=None, reads=(AccessRef(scalar, (), "read"),))]
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
            hi=AffineExpr.var(bounds[v]),
            body=body,
        )
    params = tuple((bounds[v], 0) for v in variables)
    program = Program(root=body, params=params, arrays=((scalar, 0),))
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
        q1, q2 = _split_by_sign(subbed)
        out.append(race_test(q1, q2, signs))
    return out
