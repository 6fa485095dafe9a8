"""Race candidate enumeration and disproof.

A race candidate pairs a write with another access to the same array such
that some pair of instances is unordered by the clock-free happens-before
and touches the same element.  Enumeration decides each candidate's system
once: an empty one is pruned, and the answer is kept for the affine tier.
``disprove`` then tries an ordered list of tiers, each of which returns a
verdict or passes the candidate on:

1. affine -- exact integer emptiness of the system when unclocked, or, when
   the phase difference becomes affine after substituting the candidate's
   equalities, of the system with phase equality added;
2. smt -- an external solver on the full nonlinear system (QF_NIA);
3. bounded -- the system's equalities are eliminated once with the
   parameters symbolic (``affine.Listing``); at each small parameter
   valuation the walk lists the integer points whose phases are equal (all
   of them when a phase is unavailable), checking the phase difference
   where it sets the last variable the difference depends on, and those
   points go to the gate; the program is explored only at a valuation that
   has such a point, and that exploration is their replay; always decides.

``race-free`` only ever comes from a sound emptiness or unsat proof.
Affine points, SMT models and bounded points pass one witness gate:
substitution into the context, the system and phase equality (skipped
only when a phase is unavailable), then a replay in the reference
interpreter, in which the point's own pair of instances must race.  The
bounded tier explores its own valuation, at any parameter value; other
points are replayed when the program is small enough to explore.
SMT-LIB scripts are built only on request (``Analysis.smt_scripts``).
"""

from __future__ import annotations

import functools
import itertools
from math import lcm, prod
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence, Union

# is_empty and reduce_clock are not called here but stay bound:
# perfbench/tracing.py wraps ``races.is_empty`` and ``races.reduce_clock`` by
# name with getattr and fails if either is missing.
from .affine import AffineSet, Constraint, Listing, eq, is_empty, is_empty_with_witness  # noqa: F401
from .hb import ClockReduction, reduce_clock, unordered_disjuncts  # noqa: F401
from .interp import ExploreResult, Instance, explore
from .phi import Counting, Monomial, QuasiPoly, phi
from .smt import emit_smtlib, run_solver
from .syntax import AccessRef, AffineExpr, Basic, Program

DEFAULT_BOUND = 8
_CONFIRM_MAX_STATES = 60_000
_REPLAY_MAX_PARAM = 6  # a witness with a larger parameter is not replayed


class RaceCandidate(NamedTuple):
    index: int
    u_id: int  # statement owning the write
    v_id: int
    u_ref: AccessRef
    v_ref: AccessRef
    kind: str  # "read-write" | "write-write"
    system: AffineSet
    # is_empty_with_witness of the system, decided once when pruning
    emptiness: tuple[Optional[bool], Optional[dict[str, int]]]
    reduction: Optional[ClockReduction]
    # the phases, both None when unclocked; one is None when unavailable
    phi_u: Optional[QuasiPoly]
    phi_v: Optional[QuasiPoly]

    def describe(self, p: Program) -> str:
        return (
            f"{p.stmt_label(self.u_id)}:{self.u_ref} vs "
            f"{p.stmt_label(self.v_id)}:{self.v_ref} [{self.kind}]"
        )


class Verdict(NamedTuple):
    status: str  # "race-free" | "witness" | "unknown"
    method: str = ""  # "affine" | "smt" | "bounded" | ""
    witness: Optional[dict[str, int]] = None
    confirmed: bool = False
    bound: Optional[int] = None
    detail: str = ""


class Analysis(NamedTuple):
    program: Program
    verdict: str  # "RaceFree" | "PotentialRaces" | "Unknown"
    candidates: list[tuple[RaceCandidate, Verdict]]

    @property
    def smt_scripts(self) -> list[str]:
        """One SMT-LIB script per candidate, built on request."""
        return [
            emit_smtlib(c.system, c.phi_u, c.phi_v,
                        comment=f"race candidate {c.index}: {c.describe(self.program)}")
            for c, _ in self.candidates
        ]


def _subscript_equalities(
    p: Program, u_id: int, u_ref: AccessRef, v_id: int, v_ref: AccessRef
) -> list[Constraint]:
    u_iters = p.enclosing_iterators(u_id)
    v_iters = p.enclosing_iterators(v_id)
    out = []
    for su, sv in zip(u_ref.subscripts, v_ref.subscripts):
        ru = su.rename({v: "u_" + v for v in u_iters})
        rv = sv.rename({v: "v_" + v for v in v_iters})
        out.append(eq(ru - rv))
    return out


def _v_phase(p: Program, stmt_id: int, phase_u: Optional[QuasiPoly]) -> Optional[QuasiPoly]:
    """A statement's phase in its ``v_`` iterators, from its phase in its
    ``u_`` iterators (``phi(Counting(p), f, stmt_id, "u_")``), made
    canonical again.  The renaming is exact because no parameter carries a
    reserved prefix."""
    if phase_u is None:
        return None
    iters = p.enclosing_iterators(stmt_id)
    return phase_u.substitute({"u_" + it: AffineExpr.var("v_" + it) for it in iters})


def race_candidates(p: Program) -> list[RaceCandidate]:
    """All access pairs that the clock-free happens-before fails to order
    on a common array element."""
    basics = p.basic_statements()
    counting = Counting(p)
    out: list[RaceCandidate] = []

    # Computed once per program: each (clock, representative) phase, by one
    # call of this module's phi (the name a tracer may wrap) in the u_
    # iterators that the v_ side renames (_v_phase).  The phi calls and the
    # pair facts share one counting context, so a statement domain, an
    # emptiness proof or a summation that two of them need is made once; it
    # is freed when this run returns.
    @functools.cache
    def phase_of(finish_id: int, rep: int) -> Optional[QuasiPoly]:
        return phi(counting, finish_id, rep, "u_")

    @functools.cache
    def pair_facts(u_id: int, v_id: int):
        """Both domains and the unordered disjuncts grouped by their clock
        reduction, in order; None when happens-before orders every
        instance pair.  Computed once per statement pair, since these facts
        do not depend on the access pair."""
        by_clock: dict[Optional[ClockReduction], list[list[Constraint]]] = {}
        for clock, d in unordered_disjuncts(p, u_id, v_id):
            by_clock.setdefault(clock, []).append(d)
        if not by_clock:
            return None
        return counting.domain(u_id, "u_") + counting.domain(v_id, "v_"), tuple(by_clock.items())

    def consider(su: Basic, u_ref: AccessRef, sv: Basic, v_ref: AccessRef, kind: str):
        facts = pair_facts(su.node_id, sv.node_id)
        if facts is None:
            return
        dom, by_clock = facts
        subs = _subscript_equalities(p, su.node_id, u_ref, sv.node_id, v_ref)
        for reduction, unordered in by_clock:  # one candidate per clock
            system = AffineSet(tuple(tuple(dom + subs + d) for d in unordered), counting.context)
            emptiness = is_empty_with_witness(system)
            if emptiness[0] is True:
                continue
            pu = pv = None
            if reduction is not None:
                pu = phase_of(reduction.finish_id, reduction.rep_u)
                pv = _v_phase(p, reduction.rep_v, phase_of(reduction.finish_id, reduction.rep_v))
            out.append(
                RaceCandidate(
                    len(out), su.node_id, sv.node_id, u_ref, v_ref, kind,
                    system, emptiness, reduction, pu, pv,
                )
            )

    for su in basics:
        if su.write is None:
            continue
        for sv in basics:
            for r in sv.reads:
                if r.array == su.write.array:
                    consider(su, su.write, sv, r, "read-write")
    for su, sv in itertools.combinations_with_replacement(basics, 2):
        if su.write and sv.write and su.write.array == sv.write.array:
            consider(su, su.write, sv, sv.write, "write-write")
    return out


# ---------------------------------------------------------------------------
# Disproof tiers


def _substituted_phase_diff(
    cand: RaceCandidate, disjunct: tuple[Constraint, ...]
) -> Optional[AffineExpr]:
    """Phase difference as an integer-scaled affine expression valid on the
    disjunct, using its equalities to linearize; None if still nonlinear."""
    diff = cand.phi_u - cand.phi_v
    eqs = [c.expr for c in disjunct if c.kind == "eq"]
    # Each equality eliminates at most one variable, applied to the phase
    # difference and to the remaining equalities alike.
    for i, e in enumerate(eqs):
        if diff.is_affine():
            break
        for v in diff.variables:
            repl = e.solve(v)
            if repl is not None:
                diff = diff.substitute({v: repl})
                eqs[i + 1 :] = [x.subst({v: repl}) for x in eqs[i + 1 :]]
                break
    if not diff.is_affine():
        return None
    scale = lcm(*(c.denominator for _, c in diff.terms))
    return (diff * scale).as_affine()


def _scaled_phase_diff(cand: RaceCandidate) -> Optional[list[tuple[Monomial, int]]]:
    """The terms of ``L * (phi_u - phi_v)`` for the least ``L`` that makes
    every coefficient an integer; None when the candidate is unclocked or a
    phase is unavailable."""
    if cand.phi_u is None or cand.phi_v is None:
        return None
    diff = dict(cand.phi_u.terms)
    for m, c in cand.phi_v.terms:
        diff[m] = diff.get(m, 0) - c
    scale = lcm(*(c.denominator for c in diff.values()))
    return [(m, int(c * scale)) for m, c in diff.items() if c]


def _split_params(
    terms: list[tuple[Monomial, int]], names: Sequence[str]
) -> list[tuple[int, Monomial, tuple[str, ...]]]:
    """Each term as (coefficient, its monomial in the parameters, its other
    variables, each as often as its exponent)."""
    return [
        (c, tuple((v, e) for v, e in m if v in names),
         tuple(v for v, e in m if v not in names for _ in range(e)))
        for m, c in terms
    ]


def _fix_params(
    split: list[tuple[int, Monomial, tuple[str, ...]]], params: Mapping[str, int]
) -> list[tuple[int, tuple[str, ...]]]:
    """The split terms with the parameters set, like terms added up; each
    monomial in the parameters is evaluated once."""
    values: dict[Monomial, int] = {}
    fixed: dict[tuple[str, ...], int] = {}
    for c, in_params, rest in split:
        x = values.get(in_params)
        if x is None:
            x = values[in_params] = prod(params[v] ** e for v, e in in_params)
        fixed[rest] = fixed.get(rest, 0) + c * x
    return [(c, rest) for rest, c in fixed.items() if c]


class _Run:
    """One analysis: the program, its settings, and the explorations that
    witness replay and the bounded tier share."""

    def __init__(self, p: Program, solver_cmd: Optional[str] = None, bound: int = DEFAULT_BOUND):
        self.p, self.solver_cmd, self.bound = p, solver_cmd, bound
        self.explored: dict[tuple[tuple[str, int], ...], Union[ExploreResult, str]] = {}

    def explore(self, params: Mapping[str, int]) -> Union[ExploreResult, str]:
        """The complete exploration at these parameters, or why there is none."""
        key = tuple(sorted(params.items()))
        if key not in self.explored:
            try:
                res = explore(self.p, params, max_states=_CONFIRM_MAX_STATES, count_traces=False)
                if res.incomplete:
                    res = "state limit hit"
            except MemoryError:
                res = "out of memory"
            except RecursionError:
                res = "program nested too deeply to interpret"
            self.explored[key] = res
        return self.explored[key]


def _instance(p: Program, stmt_id: int, point: Mapping[str, int], prefix: str) -> Instance:
    """The statement instance a point names by its prefixed iterators."""
    env = sorted((it, point[prefix + it]) for it in p.enclosing_iterators(stmt_id))
    return ("basic", stmt_id, tuple(env))


def _gate(
    run: _Run, cand: RaceCandidate, point: Mapping[str, int], method: str,
    res: Optional[ExploreResult] = None,
) -> Optional[Verdict]:
    """The witness verdict for a point a tier claims races, or None when it
    fails substitution into the context, the system and phase equality
    (skipped only when a phase is unavailable), or when the exploration at
    its parameters does not race the point's own instance pair (distinct,
    both executed, unordered by happens-before).  That exploration is
    ``res`` when the tier holds one, else a replay; a point that cannot be
    replayed is still reported, with the reason in ``detail``."""
    s = cand.system
    try:
        holds = all(c.satisfied(point) for c in s.context) and s.contains(point) and (
            cand.phi_u is None or cand.phi_v is None
            or cand.phi_u.evaluate(point) == cand.phi_v.evaluate(point)
        )
        u, v = _instance(run.p, cand.u_id, point, "u_"), _instance(run.p, cand.v_id, point, "v_")
    except KeyError:  # the point leaves a variable unset
        holds = False
    if not holds:
        return None
    if res is None:
        params = {n: point.get(n, lb) for n, lb in run.p.params}
        too_large = any(x > _REPLAY_MAX_PARAM for x in params.values())
        res = f"parameter above {_REPLAY_MAX_PARAM}" if too_large else run.explore(params)
    if isinstance(res, str):
        return Verdict("witness", method, point, detail=f"not replayed: {res}")
    if u == v or u not in res.index or v not in res.index or res.hb(u, v) or res.hb(v, u):
        return None
    return Verdict("witness", method, point, confirmed=True)


# Each tier takes (run, cand) and returns a verdict, or None to pass the
# candidate on to the next tier.  A point becomes a witness only through
# _gate.


def _affine_tier(run: _Run, cand: RaceCandidate) -> Optional[Verdict]:
    """Exact integer emptiness: of the system itself when unclocked (decided
    in race_candidates already), else with phase equality added when every
    disjunct's phase difference linearizes."""
    if cand.reduction is None:
        empty, point = cand.emptiness
    else:
        if cand.phi_u is None or cand.phi_v is None:
            return None
        s, augmented = cand.system, []
        for d in s.disjuncts:
            diff = _substituted_phase_diff(cand, d)
            if diff is None:
                return None
            augmented.append(tuple(d) + (eq(diff),))
        empty, point = is_empty_with_witness(AffineSet(tuple(augmented), s.context))
    if empty is True:
        return Verdict("race-free", "affine")
    if empty is None:
        return None
    # a point the gate refutes: stay conservative
    return _gate(run, cand, point, "affine") or Verdict(
        "unknown", "affine", detail="unconfirmed witness"
    )


def _smt_tier(run: _Run, cand: RaceCandidate) -> Optional[Verdict]:
    """An external solver on the full, possibly nonlinear, system."""
    clocked = cand.reduction is not None
    if not run.solver_cmd or (clocked and (cand.phi_u is None or cand.phi_v is None)):
        return None
    status, model = run_solver(run.solver_cmd, emit_smtlib(cand.system, cand.phi_u, cand.phi_v))
    if status == "unsat":
        return Verdict("race-free", "smt")
    return _gate(run, cand, model, "smt") if status == "sat" else None


def _valuations(lower_bounds: Sequence[int], bound: int) -> Iterator[tuple[int, ...]]:
    """The tuples with each value from its lower bound to the larger of that
    bound and ``bound``, ordered by their maximum, then as tuples; made one
    maximum at a time, so none is built before the ones ahead of it are
    taken."""
    highs = [max(lb, bound) for lb in lower_bounds]
    for m in range(max(lower_bounds, default=0), max(highs, default=0) + 1):
        grid = [range(lb, min(m, hi) + 1) for lb, hi in zip(lower_bounds, highs)]
        yield from (t for t in itertools.product(*grid) if max(t, default=m) == m)


def _bounded_tier(run: _Run, cand: RaceCandidate) -> Verdict:
    """At every parameter valuation up to the bound, smallest maximum
    first, the points of the candidate's system whose phases are equal
    (every point when a phase is unavailable), in the order of the affine
    walk; at a valuation that has one, the program is explored and each such
    point goes to the gate.  The first point that passes decides, else
    unknown, with what cut the search short in ``detail``.

    The listing is prepared once per candidate, and at each valuation the
    walk checks the integer-scaled phase difference where it sets the last
    variable the difference depends on: a value of unequal phases is cut
    off with its subtree, and only points of equal phases are built."""
    p = run.p
    names = p.param_names()
    diff = _scaled_phase_diff(cand)
    split = None if diff is None else _split_params(diff, names)
    listing = Listing(cand.system, names)
    failures: dict[str, None] = {}
    for combo in _valuations([lb for _, lb in p.params], run.bound):
        params = dict(zip(names, combo))
        check = None if split is None else _fix_params(split, params)
        res = None  # made at the first point that needs it
        for point in listing.points(params, check):
            if point is None:
                failures["point limit hit"] = None
                continue
            if res is None:
                res = run.explore(params)
            if isinstance(res, str):
                failures[res] = None
                break
            verdict = _gate(run, cand, point, "bounded", res)
            if verdict is not None:
                return verdict._replace(bound=run.bound)
    detail = " and ".join(failures) + " during bounded search" if failures else ""
    return Verdict("unknown", "bounded", bound=run.bound, detail=detail)


_TIERS = (_affine_tier, _smt_tier, _bounded_tier)


def disprove(run: _Run, cand: RaceCandidate) -> Verdict:
    """The first verdict of the tiers, tried in order."""
    for tier in _TIERS:
        verdict = tier(run, cand)
        if verdict is not None:
            return verdict
    raise AssertionError("the bounded tier always returns a verdict")


def analyze(p: Program, solver_cmd: Optional[str] = None, bound: int = DEFAULT_BOUND) -> Analysis:
    run = _Run(p, solver_cmd, bound)
    results = [(c, disprove(run, c)) for c in race_candidates(p)]
    if any(v.status == "witness" for _, v in results):
        verdict = "PotentialRaces"
    elif any(v.status == "unknown" for _, v in results):
        verdict = "Unknown"
    else:
        verdict = "RaceFree"
    return Analysis(p, verdict, results)
