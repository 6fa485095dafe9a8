"""Exact integer affine constraint sets.

An :class:`AffineSet` is a union of conjunctions of affine constraints
(``expr >= 0`` or ``expr == 0``) over named integer variables, under a
context of parameter constraints.  Emptiness testing is three-valued:
``True`` (no integer point for any parameter valuation), ``False`` (a
concrete witness exists), or ``None`` (undetermined).

The decision procedure is self-contained: GCD-normalized equality
elimination (with unimodular coefficient reduction when no unit coefficient
exists), Fourier-Motzkin projection with integer tightening, and an
exhaustive bounded search for witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Mapping, Optional, Sequence

from .syntax import AffineExpr

# Caps for the decision procedure.
_FM_MAX_CONSTRAINTS = 4000
_SEARCH_MAX_NODES = 200_000
_SEARCH_MAX_RANGE = 4000
_FALLBACK_WIDTH = 8


@dataclass(frozen=True)
class Constraint:
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


@dataclass(frozen=True)
class AffineSet:
    """Union of constraint conjunctions over ordered integer variables."""

    variables: tuple[str, ...]
    disjuncts: tuple[tuple[Constraint, ...], ...]
    context: tuple[Constraint, ...] = ()

    @staticmethod
    def conjunction(
        variables: Sequence[str],
        constraints: Sequence[Constraint],
        context: Sequence[Constraint] = (),
    ) -> "AffineSet":
        return AffineSet(tuple(variables), (tuple(constraints),), tuple(context))

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


def _to_form(c: Constraint) -> tuple[dict[str, int], int, str]:
    return dict(c.expr.terms), c.expr.const, c.kind


def _subst_form(
    coeffs: dict[str, int], const: int, var: str, repl: tuple[dict[str, int], int]
) -> tuple[dict[str, int], int]:
    """Substitute var := repl (a linear form) into (coeffs, const)."""
    k = coeffs.pop(var, 0)
    if k == 0:
        return coeffs, const
    rc, rconst = repl
    for v, c in rc.items():
        coeffs[v] = coeffs.get(v, 0) + k * c
        if coeffs[v] == 0:
            del coeffs[v]
    return coeffs, const + k * rconst


def _gcd_all(values) -> int:
    g = 0
    for v in values:
        g = gcd(g, abs(v))
    return g


class _Infeasible(Exception):
    pass


class _System:
    """One conjunction plus context, prepared for the decision procedure."""

    def __init__(self, constraints: Sequence[Constraint]):
        self.eqs: list[tuple[dict[str, int], int]] = []
        self.ineqs: list[tuple[dict[str, int], int]] = []
        for c in constraints:
            coeffs, const, kind = _to_form(c)
            if kind == "eq":
                self.eqs.append((coeffs, const))
            else:
                self.ineqs.append((coeffs, const))
        # var -> linear form over surviving variables, applied in reverse
        # order to reconstruct a witness.
        self.bindings: list[tuple[str, dict[str, int], int]] = []
        self._fresh = 0

    def fresh_var(self) -> str:
        self._fresh += 1
        return f"$e{self._fresh}"

    def substitute(self, var: str, repl: tuple[dict[str, int], int]) -> None:
        self.bindings.append((var, dict(repl[0]), repl[1]))
        self.eqs = [_subst_form(dict(c), k, var, repl) for c, k in self.eqs]
        self.ineqs = [_subst_form(dict(c), k, var, repl) for c, k in self.ineqs]

    # -- equality elimination

    def eliminate_equalities(self) -> None:
        while self.eqs:
            coeffs, const = self.eqs.pop()
            coeffs = {v: c for v, c in coeffs.items() if c}
            if not coeffs:
                if const != 0:
                    raise _Infeasible
                continue
            g = _gcd_all(coeffs.values())
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
                coeffs, const = _subst_form(dict(coeffs), const, vk, repl)
            v1 = next(v for v, c in coeffs.items() if abs(c) == 1)
            a = coeffs.pop(v1)
            # a*v1 + rest + const = 0  =>  v1 = -(rest + const)/a
            repl = ({v: -c * a for v, c in coeffs.items()}, -const * a)
            self.substitute(v1, repl)

    # -- Fourier-Motzkin with integer tightening (on a copy)

    def fm_infeasible(self) -> Optional[bool]:
        """True if provably infeasible, False if rationally feasible,
        None if the projection blew past its size cap."""
        cons = [(dict(c), k) for c, k in self.ineqs]
        variables = sorted({v for c, _ in cons for v in c})
        for var in variables:
            pos = [(c, k) for c, k in cons if c.get(var, 0) > 0]
            neg = [(c, k) for c, k in cons if c.get(var, 0) < 0]
            rest = [(c, k) for c, k in cons if c.get(var, 0) == 0]
            new = rest
            for (ca, ka), (cb, kb) in itertools.product(pos, neg):
                fa, fb = -cb[var], ca[var]
                coeffs: dict[str, int] = {}
                for v in set(ca) | set(cb):
                    if v == var:
                        continue
                    c = fa * ca.get(v, 0) + fb * cb.get(v, 0)
                    if c:
                        coeffs[v] = c
                const = fa * ka + fb * kb
                if not coeffs:
                    if const < 0:
                        return True
                    continue
                g = _gcd_all(coeffs.values())
                if g > 1:
                    coeffs = {v: c // g for v, c in coeffs.items()}
                    const = const // g  # floor: valid tightening for integers
                new.append((coeffs, const))
            cons = new
            if len(cons) > _FM_MAX_CONSTRAINTS:
                return None
        for coeffs, const in cons:
            if not coeffs and const < 0:
                return True
        return False

    # -- exhaustive / bounded witness search

    def search_witness(self) -> tuple[Optional[dict[str, int]], bool]:
        """Look for an integer point satisfying all inequalities.

        Returns (witness, complete): witness is None when none was found;
        complete=True means the search space provably covered the whole set,
        so no witness implies emptiness.
        """
        variables = sorted({v for c, _ in self.ineqs for v in c})
        if not variables:
            for c, k in self.ineqs:
                if k < 0:
                    return None, True
            return {}, True
        budget = [_SEARCH_MAX_NODES]
        complete = [True]

        def bounds_for(var: str, env: dict[str, int]):
            lo, hi = None, None
            for coeffs, const in self.ineqs:
                a = coeffs.get(var, 0)
                if a == 0:
                    continue
                if any(v not in env and v != var for v in coeffs):
                    continue
                rest = const + sum(c * env[v] for v, c in coeffs.items() if v != var)
                if a > 0:  # a*var + rest >= 0 -> var >= ceil(-rest/a)
                    b = -(rest // a)
                    lo = b if lo is None else max(lo, b)
                else:  # a<0: var <= rest/(-a), integer: floor
                    b = rest // (-a)
                    hi = b if hi is None else min(hi, b)
            return lo, hi

        def violates(env: dict[str, int]) -> bool:
            for coeffs, const in self.ineqs:
                if all(v in env for v in coeffs):
                    if const + sum(c * env[v] for v, c in coeffs.items()) < 0:
                        return True
            return False

        def rec(remaining: list[str], env: dict[str, int]) -> Optional[dict[str, int]]:
            if budget[0] <= 0:
                complete[0] = False
                return None
            budget[0] -= 1
            if not remaining:
                return dict(env) if not violates(env) else None
            # choose the variable with the tightest known range
            best, best_range = None, None
            for var in remaining:
                lo, hi = bounds_for(var, env)
                if lo is not None and hi is not None:
                    width = hi - lo + 1
                    if best_range is None or width < best_range:
                        best, best_range = (var, lo, hi), width
            if best is None:
                var = remaining[0]
                lo, hi = bounds_for(var, env)
                if lo is not None:
                    lo, hi = lo, lo + _FALLBACK_WIDTH
                elif hi is not None:
                    lo, hi = hi - _FALLBACK_WIDTH, hi
                else:
                    lo, hi = -_FALLBACK_WIDTH, _FALLBACK_WIDTH
                complete[0] = False
            else:
                var, lo, hi = best
                if hi - lo + 1 > _SEARCH_MAX_RANGE:
                    hi = lo + _SEARCH_MAX_RANGE
                    complete[0] = False
            rest = [v for v in remaining if v != var]
            for val in range(lo, hi + 1):
                env[var] = val
                if not violates(env):
                    found = rec(rest, env)
                    if found is not None:
                        return found
                del env[var]
            return None

        witness = rec(variables, {})
        return witness, complete[0]

    def reconstruct(self, env: dict[str, int]) -> dict[str, int]:
        """Extend a witness over surviving variables to the original ones."""
        full = dict(env)
        for var, coeffs, const in reversed(self.bindings):
            full[var] = const + sum(c * full.get(v, 0) for v, c in coeffs.items())
        return {v: k for v, k in full.items() if not v.startswith("$e")}


def _disjunct_feasibility(
    constraints: Sequence[Constraint],
) -> tuple[Optional[bool], Optional[dict[str, int]]]:
    """(feasible?, witness).  feasible is True/False/None (unknown)."""
    sys = _System(constraints)
    try:
        sys.eliminate_equalities()
    except _Infeasible:
        return False, None
    fm = sys.fm_infeasible()
    if fm is True:
        return False, None
    witness, complete = sys.search_witness()
    if witness is not None:
        return True, sys.reconstruct(witness)
    if complete:
        return False, None
    return None, None


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
    unknown = False
    for d in s.disjuncts:
        feasible, witness = _disjunct_feasibility(tuple(d) + s.context)
        if feasible is True:
            return False, witness
        if feasible is None:
            unknown = True
    return (None, None) if unknown else (True, None)

