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
point of a bounded set; the witness is its first point.  A :class:`Listing`
lists a set's points at each valuation of its parameters: it eliminates
each disjunct's equalities once with the parameters left symbolic, and
each valuation seeds the walk with the parameters' values.
"""

from __future__ import annotations

import itertools
from math import gcd, prod
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


# A polynomial that a point must make 0, as (integer coefficient, the
# variables of its monomial, each as often as its exponent) terms.
_Check = Sequence[tuple[int, tuple[str, ...]]]


def _fold(form: tuple[dict[str, int], int], values: Mapping[str, int]) -> tuple[dict[str, int], int]:
    """A linear form with each name in values set to its value."""
    coeffs, const = form
    const += sum(c * values[v] for v, c in coeffs.items() if v in values)
    return {v: c for v, c in coeffs.items() if v not in values}, const


def _holds(check: _Check, env: Mapping[str, int], need: list[tuple[str, dict[str, int], int]]) -> bool:
    """Whether check is 0 where env sets the variables it depends on; need
    holds the bindings it reads, in the order reconstruct applies them."""
    full = dict(env)
    for var, coeffs, const in need:
        full[var] = const + sum(c * full.get(v, 0) for v, c in coeffs.items())
    return not sum(c * prod(map(full.__getitem__, m)) for c, m in check)


class _System:
    """One conjunction plus context, prepared for the decision procedure.
    The ``fixed`` names (a listing's parameters) are never eliminated; the
    walk takes their values from its seed."""

    def __init__(self, constraints: Sequence[Constraint], fixed: Sequence[str] = ()):
        self.eqs: list[tuple[dict[str, int], int]] = []
        self.ineqs: list[tuple[dict[str, int], int]] = []
        for c in constraints:
            (self.eqs if c.kind == "eq" else self.ineqs).append((dict(c.expr.terms), c.expr.const))
        self.fixed = tuple(fixed)
        # var -> linear form over surviving variables, applied in reverse
        # order to reconstruct a witness.
        self.bindings: list[tuple[str, dict[str, int], int]] = []
        self._fresh = 0
        # the walk's variables, their rows and the rows over fixed names
        # only, made by the first walk
        self._index: Optional[tuple] = None

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
        """Solve each equality, last first, for its first variable with a
        +-1 coefficient, after reducing its coefficients unimodularly when
        it has none.  With fixed names, no equality is solved for one: an
        equality over fixed names only becomes two inequalities, which the
        walk checks once it has their values, and the elimination stops at
        the first equality whose other terms have no +-1 coefficient, which
        stays in ``eqs`` with those not yet popped."""
        while self.eqs:
            coeffs, const = self.eqs.pop()
            own = [v for v in coeffs if v not in self.fixed]
            if not own:
                if coeffs:
                    self.ineqs += [(coeffs, const), ({v: -c for v, c in coeffs.items()}, -const)]
                elif const != 0:
                    raise _Infeasible
                continue
            if all(abs(coeffs[v]) != 1 for v in own):
                if self.fixed:
                    self.eqs.append((coeffs, const))
                    return
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
            v1 = next(v for v, c in coeffs.items() if abs(c) == 1 and v not in self.fixed)
            a = coeffs.pop(v1)
            # a*v1 + rest + const = 0  =>  v1 = -(rest + const)/a
            repl = ({v: -c * a for v, c in coeffs.items()}, -const * a)
            self.substitute(v1, repl)

    def at(self, values: Mapping[str, int]) -> "_System":
        """This system with its fixed names set to values: itself when no
        equality is left, else a new system in the state that eliminating
        the equalities with the fixed names set first (by equalities popped
        first) would reach, with the rest eliminated."""
        if not self.eqs:
            return self
        sys = _System(())
        sys.eqs = [_fold(form, values) for form in self.eqs]
        sys.ineqs = [_fold(form, values) for form in self.ineqs]
        sys.bindings = [(n, {}, values[n]) for n in reversed(self.fixed)]
        sys.bindings += [(var, *_fold((coeffs, const), values)) for var, coeffs, const in self.bindings]
        sys.eliminate_equalities()
        return sys

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

    def points(
        self, seed: Optional[Mapping[str, int]] = None, check: Optional[_Check] = None
    ) -> Iterator[dict[str, int]]:
        """The integer points that satisfy all inequalities, over the fixed
        names, set from ``seed``, and the other variables that occur in
        them, one depth-first walk.

        The walk is one loop over an explicit stack.  A frame holds a
        variable, an iterator over its values not yet tried, the variables
        after it and whether its values are checked; env holds the value
        each frame tries.  Each node sets, of the variables left, the first
        with the tightest range that has both bounds, else the first over a
        fallback window.  The rows that the variable completes are the rows
        that bound its range, so every value tried holds each of them, and
        each leaf is a point.

        ``check`` lists only the points where it is 0.  It is evaluated
        where the walk sets the last variable it depends on, through the
        bindings, and a value where it is not 0 is a node without children:
        the points it cuts off all fail the check, so the others come in
        the same order.

        ``complete`` says whether the walk so far covered every point that
        holds the check: it turns False when a variable takes a fallback
        window or a range cut at ``_SEARCH_MAX_RANGE``, and when the walk
        stops after ``_SEARCH_MAX_NODES`` nodes.
        """
        self.complete = True
        env = {n: seed[n] for n in self.fixed}
        if self._index is None:
            # Each row indexed once under each variable it names that is
            # not fixed, in row order; a row over fixed names only is settled
            # by the seed.
            fixed = frozenset(self.fixed)
            rows: dict[str, list[_Row]] = {}
            for coeffs, const in self.ineqs:
                for var, a in coeffs.items():
                    if var not in fixed:
                        others = tuple((v, c) for v, c in coeffs.items() if v != var)
                        rows.setdefault(var, []).append((a, others, const))
            settled = [(c, k) for c, k in self.ineqs if c.keys() <= fixed]
            self._index = sorted(rows), rows, settled
        variables, rows, settled = self._index
        if any(k + sum(c * env[v] for v, c in coeffs.items()) < 0 for coeffs, k in settled):
            return
        need, deps = [], frozenset()
        if check is not None:
            # the bindings the check reads; a binding's form names only
            # variables that later bindings eliminate or that survive
            wanted = {v for _, m in check for v in m}
            for binding in self.bindings:
                if binding[0] in wanted:
                    wanted.update(binding[1])
                    need.append(binding)
            need.reverse()
            deps = wanted.intersection(variables)
        checked = check is not None and not deps
        stack: list[tuple[str, Iterator[int], list[str], bool]] = []
        remaining, nodes = variables, _SEARCH_MAX_NODES
        while True:
            if nodes <= 0:
                self.complete = False
                return
            nodes -= 1
            if checked and not _holds(check, env, need):
                pass  # no point below this node holds the check
            elif not remaining:
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
                last = var in deps and all(v in env for v in deps if v != var)
                stack.append((var, iter(range(lo, hi + 1)), [v for v in remaining if v != var], last))
            while stack:
                var, values, remaining, checked = stack[-1]
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
        """Extend a point of the walk to the original variables: the walk's
        variables, then the eliminated ones, then the fixed names."""
        full = dict(env)
        for var, coeffs, const in reversed(self.bindings):
            full[var] = const + sum(c * full.get(v, 0) for v, c in coeffs.items())
        for n in self.fixed:
            full[n] = full.pop(n)
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


class Listing:
    """The integer points of an affine set at each valuation of its
    parameters.  Each disjunct's equalities are eliminated once, with the
    parameters symbolic and never solved for, in the order in which a
    system with the parameters set by equalities popped first would
    eliminate them; so the bindings are the same.  An equality over the
    parameters only is checked at each valuation, and from the first
    equality whose other terms have no +-1 coefficient on, the elimination
    is made at each valuation (:meth:`_System.at`)."""

    def __init__(self, s: AffineSet, params: Sequence[str]):
        self.systems: list[_System] = []
        for d in s.disjuncts:
            sys = _System(tuple(d) + s.context, params)
            try:
                sys.eliminate_equalities()
            except _Infeasible:
                continue
            self.systems.append(sys)

    def points(
        self, values: Mapping[str, int], check: Optional[_Check] = None
    ) -> Iterator[Optional[dict[str, int]]]:
        """The points with each parameter set to its value where ``check``
        (when given) is 0, disjunct after disjunct, each in the order of the
        walk (:meth:`_System.points`) and over the disjunct's variables and
        then the parameters; a point that two disjuncts hold comes twice.
        After the points of a disjunct whose walk was not complete (a
        fallback window, the range cap or the node cap) comes one None, so
        that the caller can tell a partial list.  Only the points listed
        are reconstructed."""
        for prepared in self.systems:
            try:
                sys = prepared.at(values)
            except _Infeasible:
                continue
            for env in sys.points(values, check):
                yield sys.reconstruct(env)
            if not sys.complete:
                yield None
