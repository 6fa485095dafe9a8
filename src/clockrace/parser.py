"""Parser for the mini-X10 text format (``.cx10``) and clock-rule validation.

Source layout::

    param N >= 1;          // symbolic parameter with a lower bound
    array A[1];            // array name and dimensionality
    <one top-level statement>

Statements::

    A[i] = S0(B[i-1], B[i+1]);      basic (one optional write, reads)
    S1(A[i]);                       basic with reads only
    advance;
    { s1 s2 ... }                   sequence
    for (i=lo:hi) s                 inclusive affine bounds
    if (e1 >= e2 && ...) s          affine guard
    [clocked] async s
    [clocked] finish s

Comments are ``// ...`` to end of line.

One tokenizer serves programs and the polynomials of
``generators.parse_poly``.  A token carries its offset into the source;
a ``ParseError`` works out its line and column from that offset.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .syntax import (
    AccessRef,
    Advance,
    AffineExpr,
    Async,
    Basic,
    Finish,
    For,
    If,
    Program,
    Seq,
    Stmt,
)

KEYWORDS = {"param", "array", "clocked", "finish", "async", "for", "if", "advance"}
# The analysis names instance variables u_<it>, v_<it> and a_<it> beside parameters.
RESERVED_PREFIXES = ("u_", "v_", "a_")

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>>=|<=|==|&&|[-+*^=:;,(){}\[\]<>])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class ParseError(ValueError):
    """A syntax error at ``offset`` of ``source``, reported by line and column."""

    def __init__(self, message: str, source: str, offset: int):
        self.message = message
        self.line = source.count("\n", 0, offset) + 1
        self.col = offset - source.rfind("\n", 0, offset)
        super().__init__(f"{self.line}:{self.col}: {message}")


class Token(NamedTuple):
    kind: str  # "int" | "ident" | "op" | "eof"
    text: str
    offset: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", source, m.start())
        tokens.append(Token(kind, m.group(), m.start()))
    tokens.append(Token("eof", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0
        self.params: dict[str, int] = {}
        self.arrays: dict[str, int] = {}

    # -- token helpers

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, self.source, tok.offset)

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok)
        return tok

    def accept(self, text: str) -> bool:
        if self.peek().text == text:
            self.next()
            return True
        return False

    def expect_ident(self) -> Token:
        tok = self.next()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            raise self.error(f"expected identifier, found {tok.text!r}", tok)
        return tok

    # -- header

    def parse_program(self) -> Program:
        while self.peek().text in ("param", "array"):
            kw = self.next().text
            tok = self.expect_ident()
            name = tok.text
            if name in self.params or name in self.arrays:
                raise self.error(f"duplicate declaration of {name!r}")
            if kw == "param":
                if name.startswith(RESERVED_PREFIXES):
                    raise self.error(f"parameter {name!r} uses a reserved prefix u_, v_ or a_", tok)
                self.expect(">=")
                neg = self.accept("-")
                tok = self.next()
                if tok.kind != "int":
                    raise self.error("expected integer bound", tok)
                self.expect(";")
                self.params[name] = -int(tok.text) if neg else int(tok.text)
            else:
                self.expect("[")
                tok = self.next()
                if tok.kind != "int":
                    raise self.error("expected dimensionality", tok)
                self.expect("]")
                self.expect(";")
                self.arrays[name] = int(tok.text)
        root = self.parse_stmt(scope=[])
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error(f"trailing input {tok.text!r}", tok)
        return Program(
            root=root,
            params=tuple(self.params.items()),
            arrays=tuple(sorted(self.arrays.items())),
        )

    # -- affine expressions
    #
    # A product is legal only when one side is constant (has no terms);
    # anything else is rejected as non-affine.

    def parse_affine(self, scope: list[str]) -> AffineExpr:
        expr = self._parse_product(scope)
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self._parse_product(scope)
            expr = expr + rhs if op == "+" else expr - rhs
        return expr

    def _parse_product(self, scope: list[str]) -> AffineExpr:
        expr = self._parse_atom(scope)
        while self.peek().text == "*":
            tok = self.next()
            rhs = self._parse_atom(scope)
            if not expr.terms:
                expr = rhs.scale(expr.const)
            elif not rhs.terms:
                expr = expr.scale(rhs.const)
            else:
                raise self.error("non-affine expression: product of two variables", tok)
        return expr

    def _parse_atom(self, scope: list[str]) -> AffineExpr:
        tok = self.peek()
        if tok.text == "-":
            self.next()
            return -self._parse_atom(scope)
        if tok.text == "(":
            self.next()
            expr = self.parse_affine(scope)
            self.expect(")")
            return expr
        tok = self.next()
        if tok.kind == "int":
            return AffineExpr.const_expr(int(tok.text))
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            if tok.text not in scope and tok.text not in self.params:
                raise self.error(f"unknown identifier {tok.text!r}", tok)
            return AffineExpr.var(tok.text)
        raise self.error(f"expected expression, found {tok.text!r}", tok)

    def _parse_comparison(self, scope: list[str]) -> list[AffineExpr]:
        lhs = self.parse_affine(scope)
        tok = self.next()
        rhs = self.parse_affine(scope)
        if tok.text == ">=":
            return [lhs - rhs]
        if tok.text == "<=":
            return [rhs - lhs]
        if tok.text == ">":
            return [(lhs - rhs).shift(-1)]
        if tok.text == "<":
            return [(rhs - lhs).shift(-1)]
        if tok.text == "==":
            return [lhs - rhs, rhs - lhs]
        raise self.error(f"expected comparison operator, found {tok.text!r}", tok)

    # -- accesses

    def parse_access(self, scope: list[str], mode: str) -> AccessRef:
        tok = self.expect_ident()
        name = tok.text
        if name not in self.arrays:
            raise self.error(f"unknown array {name!r}", tok)
        subs: list[AffineExpr] = []
        while self.peek().text == "[":
            self.next()
            subs.append(self.parse_affine(scope))
            while self.accept(","):
                subs.append(self.parse_affine(scope))
            self.expect("]")
        if len(subs) != self.arrays[name]:
            raise self.error(
                f"array {name!r} has {self.arrays[name]} dimension(s), "
                f"got {len(subs)} subscript(s)",
                tok,
            )
        return AccessRef(name, tuple(subs), mode)

    # -- statements

    def parse_stmt(self, scope: list[str]) -> Stmt:
        tok = self.peek()
        if tok.text == "{":
            self.next()
            body: list[Stmt] = []
            while not self.accept("}"):
                if self.peek().kind == "eof":
                    raise self.error("unterminated block")
                body.append(self.parse_stmt(scope))
            return Seq(body=tuple(body))
        if tok.text == "advance":
            self.next()
            self.expect(";")
            return Advance()
        if tok.text == "for":
            self.next()
            self.expect("(")
            var_tok = self.expect_ident()
            var = var_tok.text
            if var in scope or var in self.params or var in self.arrays:
                raise self.error(f"iterator {var!r} shadows an existing name", var_tok)
            self.expect("=")
            lo = self.parse_affine(scope)
            self.expect(":")
            hi = self.parse_affine(scope)
            self.expect(")")
            body = self.parse_stmt(scope + [var])
            return For(var=var, lo=lo, hi=hi, body=body)
        if tok.text == "if":
            self.next()
            self.expect("(")
            conds = self._parse_comparison(scope)
            while self.accept("&&"):
                conds.extend(self._parse_comparison(scope))
            self.expect(")")
            return If(conds=tuple(conds), body=self.parse_stmt(scope))
        clocked = self.accept("clocked")
        if self.peek().text in ("async", "finish"):
            node = Async if self.next().text == "async" else Finish
            return node(clocked=clocked, body=self.parse_stmt(scope))
        if clocked:
            raise self.error("expected 'async' or 'finish' after 'clocked'")
        if tok.kind == "ident":
            return self._parse_basic(scope)
        raise self.error(f"expected statement, found {tok.text or 'end of input'!r}", tok)

    def _parse_basic(self, scope: list[str]) -> Basic:
        # Either `access = name(args);` or `name(args);`
        write: Optional[AccessRef] = None
        if self.peek().text in self.arrays:
            write = self.parse_access(scope, "write")
            self.expect("=")
        name = self.expect_ident().text
        self.expect("(")
        reads: list[AccessRef] = []
        if not self.accept(")"):
            reads.append(self.parse_access(scope, "read"))
            while self.accept(","):
                reads.append(self.parse_access(scope, "read"))
            self.expect(")")
        self.expect(";")
        return Basic(name=name, write=write, reads=tuple(reads))


def parse(source: str) -> Program:
    """Parse mini-X10 source text into a Program with preorder node ids."""
    parser = _Parser(source)
    try:
        return parser.parse_program()
    except RecursionError:
        raise parser.error("input nested too deeply") from None


def parse_file(path: str) -> Program:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


# ---------------------------------------------------------------------------
# Clock-rule validation


class Diagnostic(NamedTuple):
    rule: str
    node_id: int
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] node {self.node_id}: {self.message}"


def validate_clock_rules(p: Program) -> list[Diagnostic]:
    """Check the structural rules for the implicit-clock syntax.

    Returns the violations, innermost offender first and at most one
    diagnostic per node and rule; an empty list means the program is
    legal.  Rules:

    1. a clocked async must have a governing clocked finish;
    2. no unclocked async or unclocked finish may sit between a clocked
       async and its governing clocked finish;
    3. an advance must have a governing clocked finish;
    4. no unclocked async may sit between an advance and its governing
       clocked finish.
    """
    diags: list[Diagnostic] = []
    for node_id, s in sorted(p.nodes.items()):
        if isinstance(s, Async) and s.clocked:
            what, offenders = "clocked async", (Async, Finish)
            enclosure = "clocked async has no governing clocked finish"
        elif isinstance(s, Advance):
            what, offenders = "advance", (Async,)
            enclosure = "advance is not enclosed by a clocked finish"
        else:
            continue
        tag = what.replace(" ", "-")
        found: dict[str, Diagnostic] = {}  # nearest offender per rule
        for anc in reversed(p.path_to(node_id)[:-1]):
            if isinstance(anc, Finish) and anc.clocked:
                diags.extend(found.values())
                break
            if isinstance(anc, offenders) and not anc.clocked:
                word = "async" if isinstance(anc, Async) else "finish"
                if word not in found:
                    found[word] = Diagnostic(
                        f"{tag}-unclocked-{word}",
                        node_id,
                        f"{what} under unclocked {word} (node {anc.node_id})",
                    )
        else:
            diags.append(Diagnostic(f"{tag}-enclosure", node_id, enclosure))
    return diags
