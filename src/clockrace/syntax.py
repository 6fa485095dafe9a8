"""AST and syntax-level analyses for the mini-X10 language.

A program is a header (parameter and array declarations) followed by one
top-level statement.  Statements form a small tree grammar: basic array
statements, ``advance``, blocks (sequences), affine ``for`` loops, affine
``if`` guards, and the (optionally clocked) ``async``/``finish`` constructs.

Every record here is an immutable ``NamedTuple``, statements included.  A
statement's last field is its ``node_id``, -1 until a :class:`Program`
numbers it: the program rebuilds its tree with each node's id set, in
pre-order from 0.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Union


# ---------------------------------------------------------------------------
# Affine expressions


class AffineExpr(NamedTuple):
    """Integer affine expression ``const + sum(coeff * var)``.

    Terms are normalized: sorted by variable name, zero coefficients dropped.
    """

    const: int = 0
    terms: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def make(const: int = 0, coeffs: Optional[Mapping[str, int]] = None) -> "AffineExpr":
        items = tuple(sorted((v, int(c)) for v, c in (coeffs or {}).items() if c != 0))
        return AffineExpr(int(const), items)

    @staticmethod
    def const_expr(k: int) -> "AffineExpr":
        return AffineExpr(int(k), ())

    @staticmethod
    def var(name: str, coeff: int = 1) -> "AffineExpr":
        return AffineExpr.make(0, {name: coeff})

    def coeff(self, name: str) -> int:
        for v, c in self.terms:
            if v == name:
                return c
        return 0

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.terms)

    def __add__(self, other: "AffineExpr") -> "AffineExpr":
        coeffs = dict(self.terms)
        for v, c in other.terms:
            coeffs[v] = coeffs.get(v, 0) + c
        return AffineExpr.make(self.const + other.const, coeffs)

    def __neg__(self) -> "AffineExpr":
        return AffineExpr.make(-self.const, {v: -c for v, c in self.terms})

    def __sub__(self, other: "AffineExpr") -> "AffineExpr":
        return self + (-other)

    def scale(self, k: int) -> "AffineExpr":
        return AffineExpr.make(self.const * k, {v: c * k for v, c in self.terms})

    def solve(self, var: str) -> Optional["AffineExpr"]:
        """The value of var that makes the expression zero, when var's
        coefficient is 1 or -1; None otherwise."""
        k = self.coeff(var)
        if k not in (1, -1):
            return None
        return AffineExpr(-k * self.const, tuple((v, -k * c) for v, c in self.terms if v != var))

    def shift(self, k: int) -> "AffineExpr":
        return AffineExpr(self.const + k, self.terms)

    def subst(self, env: Mapping[str, "AffineExpr"]) -> "AffineExpr":
        out = AffineExpr.const_expr(self.const)
        for v, c in self.terms:
            if v in env:
                out = out + env[v].scale(c)
            else:
                out = out + AffineExpr.var(v, c)
        return out

    def rename(self, mapping: Mapping[str, str]) -> "AffineExpr":
        return AffineExpr.make(
            self.const, {mapping.get(v, v): c for v, c in self.terms}
        )

    def evaluate(self, env: Mapping[str, int]) -> int:
        val = self.const
        for v, c in self.terms:
            val += c * env[v]
        return val

    def __str__(self) -> str:
        parts: list[str] = []
        for v, c in self.terms:
            if c == 1:
                term = v
            elif c == -1:
                term = f"-{v}"
            else:
                term = f"{c}*{v}"
            if parts and not term.startswith("-"):
                parts.append(f"+{term}")
            else:
                parts.append(term)
        if self.const or not parts:
            k = str(self.const)
            if parts and self.const > 0:
                k = f"+{k}"
            parts.append(k)
        return "".join(parts)


# ---------------------------------------------------------------------------
# Accesses and statements


class AccessRef(NamedTuple):
    """One array access: name, affine subscripts, and read/write mode."""

    array: str
    subscripts: tuple[AffineExpr, ...]
    mode: str  # "read" | "write"

    def __str__(self) -> str:
        if not self.subscripts:
            return self.array
        return f"{self.array}[{','.join(str(s) for s in self.subscripts)}]"


class Basic(NamedTuple):
    """Leaf statement ``W = name(R1, ..., Rk);`` -- at most one write."""

    name: str = ""
    write: Optional[AccessRef] = None
    reads: tuple[AccessRef, ...] = ()
    node_id: int = -1


class Advance(NamedTuple):
    node_id: int = -1


class Seq(NamedTuple):
    body: tuple[Stmt, ...] = ()
    node_id: int = -1


class For(NamedTuple):
    var: str = ""
    lo: AffineExpr = AffineExpr()
    hi: AffineExpr = AffineExpr()
    body: Stmt = None  # type: ignore[assignment]
    node_id: int = -1


class If(NamedTuple):
    """Affine guard; each condition expression means ``expr >= 0``."""

    conds: tuple[AffineExpr, ...] = ()
    body: Stmt = None  # type: ignore[assignment]
    node_id: int = -1


class Async(NamedTuple):
    clocked: bool = False
    body: Stmt = None  # type: ignore[assignment]
    node_id: int = -1


class Finish(NamedTuple):
    clocked: bool = False
    body: Stmt = None  # type: ignore[assignment]
    node_id: int = -1


Stmt = Union[Basic, Advance, Seq, For, If, Async, Finish]


# ---------------------------------------------------------------------------
# Program


class Program:
    """The header and the statement tree, numbered: ``root`` is the given
    tree rebuilt with every node's id set, in pre-order from 0, whatever id
    a node had.  ``nodes`` maps ids to nodes of that tree, in pre-order,
    and ``paths`` ids to root paths, tuples of nodes from the root down:
    d²/2 references for a d-deep nest."""

    def __init__(
        self,
        root: Stmt,
        params: tuple[tuple[str, int], ...],  # (name, declared lower bound)
        arrays: tuple[tuple[str, int], ...],  # (name, dimensionality)
    ) -> None:
        self.params = params
        self.arrays = arrays
        self.nodes: dict[int, Stmt] = {}
        parent: dict[int, Optional[int]] = {}

        def number(s: Stmt, par: Optional[int]) -> Stmt:
            nid = len(self.nodes)
            self.nodes[nid] = s  # holds the id's place in pre-order
            parent[nid] = par
            if isinstance(s, Seq):
                body = []  # a loop, not a generator: one frame per level
                for c in s.body:
                    body.append(number(c, nid))
                s = s._replace(body=tuple(body), node_id=nid)
            elif isinstance(s, (For, If, Async, Finish)):
                s = s._replace(body=number(s.body, nid), node_id=nid)
            else:
                s = s._replace(node_id=nid)
            self.nodes[nid] = s
            return s

        self.root = number(root, None)
        self.paths: dict[int, tuple[Stmt, ...]] = {}
        for nid, s in self.nodes.items():  # pre-order: a parent's path comes first
            self.paths[nid] = self.paths.get(parent[nid], ()) + (s,)

    def node(self, node_id: int) -> Stmt:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise KeyError(f"unknown node_id {node_id}") from None

    def path_to(self, node_id: int) -> tuple[Stmt, ...]:
        """Nodes from the root down to (and including) the node."""
        try:
            return self.paths[node_id]
        except KeyError:
            raise KeyError(f"unknown node_id {node_id}") from None

    def basic_statements(self) -> list[Basic]:
        return [s for s in self.nodes.values() if isinstance(s, Basic)]

    def advance_statements(self) -> list[Advance]:
        return [s for s in self.nodes.values() if isinstance(s, Advance)]

    def enclosing_iterators(self, node_id: int) -> list[str]:
        """Loop iterators in scope at the node, outermost first."""
        return [n.var for n in self.path_to(node_id)[:-1] if isinstance(n, For)]

    def param_names(self) -> list[str]:
        return [n for n, _ in self.params]

    def stmt_label(self, node_id: int) -> str:
        s = self.node(node_id)
        if isinstance(s, Basic) and s.name:
            return s.name
        if isinstance(s, Advance):
            return f"advance#{node_id}"
        return f"node#{node_id}"


def governing_clocked_finish(p: Program, node_id: int) -> Optional[int]:
    """Nearest clocked-finish ancestor of a node, or None."""
    for anc in reversed(p.path_to(node_id)[:-1]):
        if isinstance(anc, Finish) and anc.clocked:
            return anc.node_id
    return None


# ---------------------------------------------------------------------------
# Canonical printer


def print_stmt(s: Stmt, indent: int = 0) -> str:
    """The canonical text of a statement: one loop over an explicit stack of
    (statement or block's closing brace, indent), so any depth prints."""
    out: list[str] = []
    stack: list = [(s, indent)]
    while stack:
        s, indent = stack.pop()
        pad = "  " * indent
        if isinstance(s, str):
            out.append(f"{pad}{s}\n")
        elif isinstance(s, Basic):
            call = f"{s.name}({', '.join(str(r) for r in s.reads)})"
            out.append(f"{pad}{call};\n" if s.write is None else f"{pad}{s.write} = {call};\n")
        elif isinstance(s, Advance):
            out.append(f"{pad}advance;\n")
        elif isinstance(s, Seq):
            out.append(f"{pad}{{\n")
            stack.append(("}", indent))
            stack.extend((t, indent + 1) for t in reversed(s.body))
        elif isinstance(s, (For, If, Async, Finish)):
            if isinstance(s, For):
                head = f"for ({s.var}={s.lo}:{s.hi})"
            elif isinstance(s, If):
                head = f"if ({' && '.join(f'{c} >= 0' for c in s.conds)})"
            else:
                kind = "async" if isinstance(s, Async) else "finish"
                head = f"clocked {kind}" if s.clocked else kind
            out.append(f"{pad}{head}\n")
            stack.append((s.body, indent + 1))
        else:
            raise TypeError(f"unknown statement {s!r}")
    return "".join(out)


def print_program(p: Program) -> str:
    lines = [f"param {n} >= {lb};" for n, lb in p.params]
    lines += [f"array {n}[{d}];" for n, d in p.arrays]
    header = "\n".join(lines)
    return (header + "\n\n" if header else "") + print_stmt(p.root)
