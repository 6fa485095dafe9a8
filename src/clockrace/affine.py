"""Exact integer affine constraint sets.

An :class:`AffineSet` is a union of conjunctions of affine constraints
(``expr >= 0`` or ``expr == 0``) over named integer variables, under a
context of parameter constraints.  A set's variables are the names that
occur in its constraints; nothing declares them apart.  Emptiness testing
is three-valued:
``True`` (no integer point for any parameter valuation), ``False`` (a
concrete witness exists), or ``None`` (undetermined).

The decision procedure is self-contained: GCD-normalized equality
elimination (with unimodular coefficient reduction when no unit coefficient
exists), Fourier-Motzkin projection with integer tightening, and an
exhaustive bounded search for witnesses.  The projection keeps each row in
the bucket of its first variable, so a step reads only the rows it
eliminates.  The search is one depth-first loop over an explicit stack (a
frame per variable set), so it takes the same Python frames however many
variables a system has.  Run to its end, the same walk lists every integer
point of a bounded set (:func:`points`); the witness is its first point.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from .syntax import AffineExpr

# Caps for the decision procedure.
_FM_MAX_CONSTRAINTS = 4000
_SEARCH_MAX_NODES = 200_000
_SEARCH_MAX_RANGE = 4000
_FALLBACK_WIDTH = 8


class Constraint(NamedTuple):
    """``expr >= 0`` when kind is "ge", ``expr == 0`` when kind is "eq"."""

    expr: AffineExpr
    kind: str = "ge"

    def satisfied(self, env: Mapping[str, int]) -> bool:
        v = self.expr.evaluate(env)
        return v == 0 if self.kind == "eq" else v >= 0

    def __str__(self) -> str:
        op = "=" if self.kind == "eq" else ">="
        return f"{self.expr} {op} 0"


def ge(expr: AffineExpr) -> Constraint:
    return Constraint(expr, "ge")


def eq(expr: AffineExpr) -> Constraint:
    return Constraint(expr, "eq")


class AffineSet(NamedTuple):
    """Union of constraint conjunctions under a context.  Its variables are
    the names that occur in the disjuncts and the context."""

    disjuncts: tuple[tuple[Constraint, ...], ...]
    context: tuple[Constraint, ...] = ()

    @staticmethod
    def conjunction(
        constraints: Sequence[Constraint], context: Sequence[Constraint] = ()
    ) -> "AffineSet":
        return AffineSet((tuple(constraints),), tuple(context))

    @property
    def variables(self) -> tuple[str, ...]:
        """The sorted names that occur in the disjuncts and the context."""
        constraints = itertools.chain(self.context, *self.disjuncts)
        return tuple(sorted({v for c in constraints for v, _ in c.expr.terms}))

    def contains(self, env: Mapping[str, int]) -> bool:
        """Point membership; the context is not re-checked."""
        return any(all(c.satisfied(env) for c in d) for d in self.disjuncts)

    def __str__(self) -> str:
        if not self.disjuncts:
            return "false"
        return " or ".join(
            "{" + " and ".join(str(c) for c in d) + "}" if d else "{true}"
            for d in self.disjuncts
        )


# ---------------------------------------------------------------------------
# Linear forms: mutable dict representation used by the decision procedure.


def _subst_form(
    coeffs: dict[str, int], const: int, var: str, repl: tuple[dict[str, int], int]
) -> tuple[dict[str, int], int]:
    """A new row: var := repl (a linear form) in (coeffs, const), which
    mentions var.  The row given is left as it is."""
    coeffs = dict(coeffs)
    k = coeffs.pop(var)
    rc, rconst = repl
    for v, c in rc.items():
        coeffs[v] = coeffs.get(v, 0) + k * c
        if coeffs[v] == 0:
            del coeffs[v]
    return coeffs, const + k * rconst


class _Infeasible(Exception):
    pass


# A row ``a*var + others + const >= 0`` indexed under var, as (a, the other
# terms, const); a is never 0, since linear forms drop zero coefficients.
_Row = tuple[int, tuple[tuple[str, int], ...], int]


def _bounds(rows: list[_Row], env: Mapping[str, int]) -> tuple[Optional[int], Optional[int]]:
    """The integer range that a variable's rows give it once env sets all of
    a row's other terms; None for a side that no such row bounds."""
    lo, hi = None, None
    for a, others, rest in rows:
        for v, c in others:
            if v not in env:
                break
            rest += c * env[v]
        else:
            if a > 0:  # a*var + rest >= 0 -> var >= ceil(-rest/a)
                b = -(rest // a)
                lo = b if lo is None else max(lo, b)
            else:  # a<0: var <= rest/(-a), integer: floor
                b = rest // (-a)
                hi = b if hi is None else min(hi, b)
    return lo, hi


class _System:
    """One conjunction plus context, prepared for the decision procedure."""

    def __init__(self, constraints: Sequence[Constraint]):
        self.eqs: list[tuple[dict[str, int], int]] = []
        self.ineqs: list[tuple[dict[str, int], int]] = []
        for c in constraints:
            (self.eqs if c.kind == "eq" else self.ineqs).append((dict(c.expr.terms), c.expr.const))
        # var -> linear form over surviving variables, applied in reverse
        # order to reconstruct a witness.
        self.bindings: list[tuple[str, dict[str, int], int]] = []
        self._fresh = 0

    def fresh_var(self) -> str:
        self._fresh += 1
        return f"$e{self._fresh}"

    def substitute(self, var: str, repl: tuple[dict[str, int], int]) -> None:
        """Rewrite the rows that mention var; the others stay shared."""
        self.bindings.append((var, dict(repl[0]), repl[1]))
        self.eqs = [_subst_form(c, k, var, repl) if var in c else (c, k) for c, k in self.eqs]
        self.ineqs = [_subst_form(c, k, var, repl) if var in c else (c, k) for c, k in self.ineqs]

    # -- equality elimination

    def eliminate_equalities(self) -> None:
        while self.eqs:
            coeffs, const = self.eqs.pop()
            if not coeffs:
                if const != 0:
                    raise _Infeasible
                continue
            g = gcd(*coeffs.values())
            if const % g != 0:
                raise _Infeasible
            coeffs = {v: c // g for v, c in coeffs.items()}
            const //= g
            # Reduce coefficients unimodularly until some coefficient is +-1.
            while all(abs(c) != 1 for c in coeffs.values()):
                vk, ak = min(coeffs.items(), key=lambda it: abs(it[1]))
                vj = next(v for v, c in coeffs.items() if v != vk and c % ak != 0)
                q = coeffs[vj] // ak
                # x_k := x_k' - q * x_j  (x_k' fresh); keeps integer points.
                nk = self.fresh_var()
                repl = ({nk: 1, vj: -q}, 0)
                self.substitute(vk, repl)
                coeffs, const = _subst_form(coeffs, const, vk, repl)
            v1 = next(v for v, c in coeffs.items() if abs(c) == 1)
            a = coeffs.pop(v1)
            # a*v1 + rest + const = 0  =>  v1 = -(rest + const)/a
            repl = ({v: -c * a for v, c in coeffs.items()}, -const * a)
            self.substitute(v1, repl)

    # -- Fourier-Motzkin with integer tightening

    def fm_infeasible(self) -> Optional[bool]:
        """True if provably infeasible, False if rationally feasible,
        None if the projection blew past its size cap.

        Variables go in sorted order, and each row waits in the bucket of its
        first variable: the rows that mention a variable when its turn comes
        are exactly its bucket, so a step reads only that bucket.  A combined
        row is new and goes to the back of its own first variable's bucket,
        so every bucket keeps its rows in the order they were made; no row is
        copied or changed.  Rows without variables stay out of the buckets
        but count toward the cap on live rows, which is checked after each
        new row and after each step.
        """
        buckets: dict[str, list[tuple[dict[str, int], int]]] = {}
        for coeffs, const in self.ineqs:
            if coeffs:
                buckets.setdefault(min(coeffs), []).append((coeffs, const))
        live = len(self.ineqs)
        for var in sorted({v for c, _ in self.ineqs for v in c}):
            rows = buckets.pop(var, [])
            live -= len(rows)
            pos = [(c, k) for c, k in rows if c[var] > 0]
            neg = [(c, k) for c, k in rows if c[var] < 0]
            for (ca, ka), (cb, kb) in itertools.product(pos, neg):
                fa, fb = -cb[var], ca[var]
                coeffs = {v: fa * c for v, c in ca.items()}
                for v, c in cb.items():
                    coeffs[v] = coeffs.get(v, 0) + fb * c
                coeffs = {v: c for v, c in coeffs.items() if c}  # var cancels
                const = fa * ka + fb * kb
                if not coeffs:
                    if const < 0:
                        return True
                    continue
                g = gcd(*coeffs.values())
                if g > 1:
                    coeffs = {v: c // g for v, c in coeffs.items()}
                    const = const // g  # floor: valid tightening for integers
                buckets.setdefault(min(coeffs), []).append((coeffs, const))
                live += 1
                if live > _FM_MAX_CONSTRAINTS:
                    return None
            if live > _FM_MAX_CONSTRAINTS:
                return None
        return any(k < 0 for c, k in self.ineqs if not c)

    # -- exhaustive / bounded witness search

    def points(self) -> Iterator[dict[str, int]]:
        """The integer points that satisfy all inequalities, over the
        variables that occur in them, one depth-first walk.

        The walk is one loop over an explicit stack.  A frame holds a
        variable, an iterator over its values not yet tried and the
        variables after it; env holds the value each frame tries.  Each node
        sets, of the variables left, the first with the tightest range that
        has both bounds, else the first over a fallback window.  The rows
        that the variable completes are the rows that bound its range, so
        every value tried holds each of them, and each leaf is a point.

        ``complete`` says whether the walk so far covered every point: it
        turns False when a variable takes a fallback window or a range cut
        at ``_SEARCH_MAX_RANGE``, and when the walk stops after
        ``_SEARCH_MAX_NODES`` nodes.
        """
        self.complete = True
        if any(k < 0 for c, k in self.ineqs if not c):
            return
        variables = sorted({v for c, _ in self.ineqs for v in c})
        # Each row indexed once per call under each of its variables, in row order.
        rows: dict[str, list[_Row]] = {v: [] for v in variables}
        for coeffs, const in self.ineqs:
            for var, a in coeffs.items():
                rows[var].append((a, tuple((v, c) for v, c in coeffs.items() if v != var), const))
        env: dict[str, int] = {}
        stack: list[tuple[str, Iterator[int], list[str]]] = []
        remaining, nodes = variables, _SEARCH_MAX_NODES
        while True:
            if nodes <= 0:
                self.complete = False
                return
            nodes -= 1
            if not remaining:
                yield dict(env)
            else:
                first, best = None, None
                for var in remaining:
                    lo, hi = _bounds(rows[var], env)
                    first = first or (var, lo, hi)
                    if lo is not None and hi is not None and (best is None or hi - lo < best[2] - best[1]):
                        best = (var, lo, hi)
                if best is None:
                    var, lo, hi = first
                    if lo is not None:
                        hi = lo + _FALLBACK_WIDTH
                    elif hi is not None:
                        lo = hi - _FALLBACK_WIDTH
                    else:
                        lo, hi = -_FALLBACK_WIDTH, _FALLBACK_WIDTH
                    self.complete = False
                else:
                    var, lo, hi = best
                    if hi - lo + 1 > _SEARCH_MAX_RANGE:
                        hi = lo + _SEARCH_MAX_RANGE
                        self.complete = False
                stack.append((var, iter(range(lo, hi + 1)), [v for v in remaining if v != var]))
            while stack:
                var, values, remaining = stack[-1]
                value = next(values, None)
                if value is not None:
                    env[var] = value
                    break
                env.pop(var, None)
                stack.pop()
            else:
                return

    def search_witness(self) -> tuple[Optional[dict[str, int]], bool]:
        """The first point of :meth:`points`, or None, and whether the walk
        up to it covered the whole set, so that no witness implies
        emptiness."""
        witness = next(self.points(), None)
        return witness, self.complete

    def reconstruct(self, env: dict[str, int]) -> dict[str, int]:
        """Extend a witness over surviving variables to the original ones."""
        full = dict(env)
        for var, coeffs, const in reversed(self.bindings):
            full[var] = const + sum(c * full.get(v, 0) for v, c in coeffs.items())
        if not self._fresh:
            return full
        return {v: k for v, k in full.items() if not v.startswith("$e")}


def is_empty(s: AffineSet) -> Optional[bool]:
    """Three-valued emptiness under the context.

    True: no integer point for any context-satisfying parameter valuation.
    False: a concrete integer witness (including parameter values) exists.
    None: undetermined.
    """
    result, _ = is_empty_with_witness(s)
    return result


def is_empty_with_witness(
    s: AffineSet,
) -> tuple[Optional[bool], Optional[dict[str, int]]]:
    """``is_empty``, with a witness when the answer is False.  A disjunct is
    empty when equality elimination or Fourier-Motzkin proves it infeasible,
    or when a complete search finds no point."""
    unknown = False
    for d in s.disjuncts:
        sys = _System(tuple(d) + s.context)
        try:
            sys.eliminate_equalities()
        except _Infeasible:
            continue
        if sys.fm_infeasible() is True:
            continue
        witness, complete = sys.search_witness()
        if witness is not None:
            return False, sys.reconstruct(witness)
        unknown = unknown or not complete
    return (None, None) if unknown else (True, None)


def points(s: AffineSet, fixed: Mapping[str, int]) -> Iterator[Optional[dict[str, int]]]:
    """The integer points of ``s`` with each name in ``fixed`` set to its
    value, disjunct after disjunct, each in the order of the witness
    search's walk (:meth:`_System.points`) and over all of the disjunct's
    variables and the fixed names; a point that two disjuncts hold comes
    twice.  After the points of a disjunct whose walk was not complete (a
    fallback window, the range cap or the node cap) comes one None, so that
    the caller can tell a partial list."""
    values = tuple(eq(AffineExpr.var(n).shift(-x)) for n, x in fixed.items())
    for d in s.disjuncts:
        sys = _System(tuple(d) + s.context + values)
        try:
            sys.eliminate_equalities()
        except _Infeasible:
            continue
        for env in sys.points():
            yield sys.reconstruct(env)
        if not sys.complete:
            yield None
