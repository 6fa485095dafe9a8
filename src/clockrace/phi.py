"""Advance-count functions.

For a clock (a clocked ``finish``) and a statement below it, the phase
function counts how many of the clock's advances happen before a given
instance of the statement.  The count is obtained by summing, over each
governed advance and each happens-before disjunct, the number of integer
points of the advance's iteration domain that satisfy the ordering
constraints -- a symbolic summation producing a polynomial with rational
coefficients in the statement's iterators and the program parameters.

A polynomial has one format: its ``(monomial, coefficient)`` pairs, where a
monomial is a sorted tuple of ``(variable, exponent)`` pairs.  Arithmetic,
summation and substitution work on ``{monomial: coefficient}`` dicts of
those pairs, and ``QuasiPoly.from_terms`` makes each result canonical once.
A polynomial's variables are the names that occur in it.

Each summation over a loop variable uses Faulhaber's formula,
``sum_{v=lo}^{hi} v^e = F_e(hi) - F_e(lo - 1)`` with
``F_e(n) = sum_{v=1}^{n} v^e`` a polynomial of degree ``e + 1`` whose
coefficients come from the Bernoulli numbers; composed with affine bounds
it keeps the count polynomial.  The identity needs ``hi >= lo - 1``, which
the counter proves before it sums.  Each summation is one pass: the
integrand's coefficients of every power of the variable are folded into a
single antiderivative ``G(x) = sum_e c_e F_e(x)``, kept as one monomial dict
per power of ``x``; ``G(hi) - G(lo - 1)`` is evaluated by Horner's rule on
those dicts, in integer numerators over one common denominator, and made
canonical once, at the end.  A phase function likewise adds its disjuncts'
counts into one monomial dict before it is made canonical.

A count is one loop over the advance's loop nest, so its stack does not
grow with the nest.  The happens-before disjuncts of one advance differ
only in their outer components, so the same inner sums and bound
comparisons recur across them, and the two representatives of one clock
count the same advances over the same ``u_`` domain and outer disjuncts.
A ``Counting`` context is the one static context of an analysis, made from
one program: it holds the parameter facts, the statement domains by
``(node_id, prefix)``, emptiness proofs by constraint tuple and summations
by ``(integrand, var, lo, hi)``.  ``phi`` reads the program and every domain
it needs from it, so an advance's domain is built once per analysis, and
``races.race_candidates`` makes one per analysis.  Sharing is sound because
every key is a tuple of frozen values, an answer depends only on its key and
the program's parameter facts, and a failed count stores nothing.
A phase's iterator prefix changes only the names in it, so the caller
computes each once: ``races.race_candidates`` calls ``phi`` once per clock
and statement with the ``u_`` prefix, and renames that polynomial's
iterators for the ``v_`` side.

The summation is deliberately conservative: whenever a bound cannot be
reduced to a single affine lower and upper bound with provably non-negative
extent, the phase function is reported as unavailable rather than guessed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache, partial
from math import comb, lcm
from typing import Collection, Iterable, Mapping, NamedTuple, Optional, Union

from .affine import AffineSet, Constraint, ge, is_empty
from .hb import governed_advances, hb_disjuncts, statement_domain
from .syntax import AffineExpr, Program

_ADV_PREFIX = "a_"


# ---------------------------------------------------------------------------
# Polynomials with rational coefficients

# A monomial as sorted (variable, exponent >= 1) pairs; () is the constant.
Monomial = tuple[tuple[str, int], ...]


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


class QuasiPoly(NamedTuple):
    """Polynomial over named integer variables with Fraction coefficients.

    ``terms`` holds its ``(monomial, coefficient)`` pairs in canonical form:
    no zero coefficients, and the monomials sorted by their exponent
    vectors over the sorted variables that occur.  Equality is therefore
    polynomial identity.  Arithmetic works on monomial dicts and makes each
    result canonical once, with ``from_terms``.
    """

    terms: tuple[tuple[Monomial, Fraction], ...]

    @staticmethod
    def from_terms(terms: Mapping[Monomial, Fraction]) -> "QuasiPoly":
        """The canonical polynomial of a monomial dict."""
        terms = {m: Fraction(c) for m, c in terms.items() if c}
        pos = {v: i for i, v in enumerate(sorted({v for m in terms for v, _ in m}))}

        def exponents(item):
            exps = [0] * len(pos)
            for v, e in item[0]:
                exps[pos[v]] = e
            return exps

        return QuasiPoly(tuple(sorted(terms.items(), key=exponents)))

    @staticmethod
    def zero() -> "QuasiPoly":
        return QuasiPoly(())

    @staticmethod
    def constant(k: Union[int, Fraction]) -> "QuasiPoly":
        return QuasiPoly.from_terms({(): k})

    @staticmethod
    def var(name: str) -> "QuasiPoly":
        return QuasiPoly.from_terms({((name, 1),): 1})

    @property
    def variables(self) -> tuple[str, ...]:
        """The sorted names that occur."""
        return tuple(sorted({v for m, _ in self.terms for v, _ in m}))

    def __add__(self, other: "QuasiPoly") -> "QuasiPoly":
        terms = dict(self.terms)
        for m, c in other.terms:
            terms[m] = terms.get(m, 0) + c
        return QuasiPoly.from_terms(terms)

    def __neg__(self) -> "QuasiPoly":
        return self * -1

    def __sub__(self, other: "QuasiPoly") -> "QuasiPoly":
        return self + (-other)

    def __mul__(self, other: Union["QuasiPoly", int, Fraction]) -> "QuasiPoly":
        if not isinstance(other, QuasiPoly):
            return QuasiPoly.from_terms({m: c * other for m, c in self.terms})
        return QuasiPoly.from_terms(_product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QuasiPoly":
        out = QuasiPoly.constant(1)
        for _ in range(e):
            out = out * self
        return out

    def evaluate(self, env: Mapping[str, int]) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms:
            for v, e in m:
                c *= Fraction(env[v]) ** e
            total += c
        return total

    def is_affine(self) -> bool:
        return all(sum(e for _, e in m) <= 1 for m, _ in self.terms)

    def as_affine(self) -> Optional[AffineExpr]:
        """Integer affine form, or None (non-affine or fractional)."""
        if not self.is_affine() or any(c.denominator != 1 for _, c in self.terms):
            return None
        terms = dict(self.terms)
        const = int(terms.pop((), 0))
        return AffineExpr.make(const, {m[0][0]: int(c) for m, c in terms.items()})

    def substitute(self, env: Mapping[str, AffineExpr]) -> "QuasiPoly":
        """Substitute affine expressions for variables, all at once.  Each
        power of each replacement is computed once, as a monomial dict, and
        the sum is made canonical once."""
        powers = {v: [{(): Fraction(1)}] for v in env}  # v -> [repl^0, repl^1, ...]
        total: dict[Monomial, Fraction] = {}
        for m, c in self.terms:
            part = {tuple(x for x in m if x[0] not in env): c}
            for v, e in m:
                if v in env:
                    pv = powers[v]
                    while len(pv) <= e:
                        pv.append(_times_affine(pv[-1], env[v]))
                    part = _product(part.items(), pv[e].items())
            for mp, cp in part.items():
                total[mp] = total.get(mp, 0) + cp
        return QuasiPoly.from_terms(total)

    def sum_over(self, var: str, lo: AffineExpr, hi: AffineExpr) -> "QuasiPoly":
        """``sum_{var=lo}^{hi}`` of the polynomial, for bounds free of var.
        Exact only where ``hi >= lo - 1``.

        With ``c_e`` the coefficient of ``var^e``, the sum is ``G(hi) -
        G(lo - 1)`` for the antiderivative ``G(x) = sum_e c_e F_e(x)``.
        ``G``'s coefficient of each ``x^k`` is collected from the Faulhaber
        coefficients as one monomial dict, both values are taken by Horner's
        rule on monomial dicts of integer numerators over the common
        denominator of ``G``'s coefficients, and only the difference is made
        canonical."""
        g: dict[int, dict[Monomial, Fraction]] = {}  # x^k -> its coefficient
        for m, c in self.terms:
            rest = tuple(x for x in m if x[0] != var)
            for k, f in _power_sum_coeffs(dict(m).get(var, 0)):
                coeff = g.setdefault(k, {})
                coeff[rest] = coeff.get(rest, 0) + c * f
        # den * G has integer coefficients, and the bounds are integral.
        den = lcm(*(c.denominator for coeff in g.values() for c in coeff.values()))
        num = {k: {m: c.numerator * (den // c.denominator) for m, c in coeff.items()}
               for k, coeff in g.items()}
        total: dict[Monomial, int] = {}
        for x, sign in ((hi, 1), (lo.shift(-1), -1)):
            acc: dict[Monomial, int] = {}
            for k in range(max(g, default=0), 0, -1):  # G has no constant term
                for m, c in num.get(k, {}).items():
                    acc[m] = acc.get(m, 0) + c
                acc = _times_affine(acc, x)
            for m, c in acc.items():
                total[m] = total.get(m, 0) + sign * c
        return QuasiPoly.from_terms({m: Fraction(c, den) for m, c in total.items()})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        # highest total degree first; the canonical order within a degree
        for m, c in sorted(self.terms, key=lambda t: -sum(e for _, e in t[0])):
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)
            if c == 1 and mono:
                s = mono
            elif c == -1 and mono:
                s = f"-{mono}"
            else:
                k = str(c.numerator) if c.denominator == 1 else f"({c})"
                s = f"{k}*{mono}" if mono else k
            parts.append(s if not parts or s.startswith("-") else f"+{s}")
        out = "".join(parts)
        return out.replace("+-", "-")


@lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m with B_1 = +1/2, from
    ``sum_{k=0}^{m} C(m+1, k) B_k = m + 1``."""
    return 1 - sum(comb(m + 1, k) * _bernoulli(k) for k in range(m)) / Fraction(m + 1)


@lru_cache(maxsize=None)
def _power_sum_coeffs(e: int) -> tuple[tuple[int, Fraction], ...]:
    """The nonzero ``(k, coefficient of n^k)`` of ``F_e(n) = sum_{v=1}^{n}
    v^e = sum_j C(e+1, j) B_j n^(e+1-j) / (e+1)``; ``F_e(0) = 0``."""
    out = ((e + 1 - j, comb(e + 1, j) * _bernoulli(j) / (e + 1)) for j in range(e + 1))
    return tuple((k, f) for k, f in out if f)


def _product(
    left: Iterable[tuple[Monomial, Fraction]], right: Collection[tuple[Monomial, Fraction]]
) -> dict[Monomial, Fraction]:
    """The product of two polynomials given by their monomial pairs."""
    out: dict[Monomial, Fraction] = {}
    for m1, c1 in left:
        for m2, c2 in right:
            m = _mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return out


def _times_affine(
    terms: Mapping[Monomial, Fraction], x: AffineExpr
) -> dict[Monomial, Fraction]:
    """The monomial dict ``terms`` multiplied by an affine expression."""
    out: dict[Monomial, Fraction] = {}
    for m, c in terms.items():
        if x.const:
            out[m] = out.get(m, 0) + c * x.const
        for v, a in x.terms:
            mv = _mono_mul(m, ((v, 1),))
            out[mv] = out.get(mv, 0) + c * a
    return out


# ---------------------------------------------------------------------------
# Symbolic box counting


class _CountFailure(Exception):
    pass


def _unit_equality(
    constraints: tuple[Constraint, ...], sum_vars: tuple[str, ...]
) -> Optional[tuple[Constraint, str, AffineExpr]]:
    """The first ``(equality, summed variable, its value)`` with a unit
    coefficient, in constraint then sum_vars order; None if there is none."""
    for c in constraints:
        for var in sum_vars if c.kind == "eq" else ():
            if (repl := c.expr.solve(var)) is not None:
                return c, var, repl
    return None


class Counting:
    """Symbolic counting for one program: its parameter facts ``context``, its
    statement domains ``domain(node_id, prefix)`` (``hb.statement_domain``,
    built once per key: callers share the list and must not mutate it), and
    caches of emptiness proofs and summations.  Sound because every key is a
    tuple of frozen values and an answer depends only on its key and the
    context; a _CountFailure is never stored."""

    def __init__(self, program: Program):
        self.program = program
        self.context = tuple(ge(AffineExpr.var(n).shift(-lb)) for n, lb in program.params)
        self.domain = cache(partial(statement_domain, program))
        self.empties: dict[tuple[Constraint, ...], bool] = {}
        self.sums: dict[tuple, QuasiPoly] = {}

    def empty(self, constraints: tuple[Constraint, ...]) -> bool:
        """Is the conjunction (under the context) provably empty?"""
        known = self.empties.get(constraints)
        if known is None:
            s = AffineSet.conjunction(constraints, self.context)
            known = self.empties[constraints] = is_empty(s) is True
        return known

    def implied(self, ctx: tuple[Constraint, ...], claim: AffineExpr) -> bool:
        """Does ctx (integrally) imply claim >= 0?  Sound, incomplete."""
        if not claim.terms and claim.const >= 0:  # such as a constant loop's extent
            return True
        return self.empty(ctx + (ge((-claim).shift(-1)),))  # claim <= -1

    def dominant(
        self, ctx: tuple[Constraint, ...], cands: list[AffineExpr], var: str, flip: bool
    ) -> AffineExpr:
        """The bound of var in cands that ctx proves greatest (least if flip)."""
        for b in cands:
            if all(b is o or self.implied(ctx, (o - b) if flip else (b - o)) for o in cands):
                return b
        raise _CountFailure(f"incomparable bounds on {var}")

    def count(
        self,
        sum_vars: tuple[str, ...],
        constraints: tuple[Constraint, ...],
        ctx: tuple[Constraint, ...],
    ) -> QuasiPoly:
        """The number of integer assignments of sum_vars satisfying
        constraints, as a polynomial in the free variables; ``ctx`` are facts
        known about them.  One loop: each step eliminates a summed variable
        by an equality with a unit coefficient on it, or sums the innermost
        one, whose bounds may mention the still-outer summed variables.

        Raises _CountFailure when the region is not a provable box chain."""
        poly = QuasiPoly.constant(1)
        while sum_vars:
            unit = _unit_equality(constraints, sum_vars)
            if unit is not None:
                c, var, repl = unit
                constraints = tuple(
                    Constraint(d.expr.subst({var: repl}), d.kind) if d.expr.coeff(var) else d
                    for d in constraints
                    if d is not c
                )
                poly = poly.substitute({var: repl})
                sum_vars = tuple(v for v in sum_vars if v != var)
                continue
            if any(c.kind == "eq" and any(v in sum_vars for v in c.expr.variables) for c in constraints):
                raise _CountFailure("equality with non-unit coefficient on a sum variable")

            var = sum_vars[-1]  # innermost loop variable
            rest, los, his = [], [], []  # one pass over the rows, in order
            for c in constraints:
                k = c.expr.coeff(var)
                if not k:
                    rest.append(c)
                elif (bound := c.expr.solve(var)) is None:
                    raise _CountFailure(f"non-unit coefficient on {var}")
                else:
                    (los if k == 1 else his).append(bound)
            without = tuple(rest)
            if not los or not his:
                raise _CountFailure(f"{var} unbounded")
            side_ctx = ctx + without
            lo = self.dominant(side_ctx, los, var, flip=False)  # greatest lower bound
            hi = self.dominant(side_ctx, his, var, flip=True)  # least upper bound
            # The closed-form summation needs hi >= lo - 1 throughout the region.
            if not self.implied(side_ctx, (hi - lo).shift(1)):
                raise _CountFailure(f"possibly negative extent for {var}")
            key = (poly, var, lo, hi)
            summed = self.sums.get(key)
            if summed is None:
                summed = self.sums[key] = poly.sum_over(var, lo, hi)
            poly, sum_vars, constraints = summed, sum_vars[:-1], without

        # Every residual constraint must be implied by what we know of the
        # free variables, otherwise the count would be conditional.
        for c in constraints:
            if c.kind == "eq":
                if not (self.implied(ctx, c.expr) and self.implied(ctx, -c.expr)):
                    raise _CountFailure(f"residual equality {c}")
            elif not self.implied(ctx, c.expr):
                if self.empty(ctx + (c,)):
                    return QuasiPoly.zero()
                raise _CountFailure(f"residual constraint {c}")
        return poly


# ---------------------------------------------------------------------------
# Phase functions


def phi(
    counting: Counting, finish_id: int, stmt_id: int, prefix: str = "u_"
) -> Optional[QuasiPoly]:
    """Advance-count polynomial for a statement (or clocked-finish
    representative) of ``counting``'s program with respect to a clock, in
    the statement's prefixed iterators and the parameters.  None when
    counting fails."""
    p = counting.program
    stmt_dom = tuple(counting.domain(stmt_id, prefix))
    total: dict[Monomial, Fraction] = {}
    for adv_id in governed_advances(p, finish_id):
        adv_dom = counting.domain(adv_id, _ADV_PREFIX)
        sum_vars = tuple(_ADV_PREFIX + v for v in p.enclosing_iterators(adv_id))
        for d in hb_disjuncts(p, adv_id, stmt_id, _ADV_PREFIX, prefix):
            try:
                part = counting.count(sum_vars, tuple(adv_dom + d), stmt_dom)
            except _CountFailure:
                return None
            for m, c in part.terms:
                total[m] = total.get(m, 0) + c
    return QuasiPoly.from_terms(total)
