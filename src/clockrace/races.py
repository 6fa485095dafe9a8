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
3. bounded -- small parameter valuations are interpreted exhaustively and
   observed races are matched against the candidate; always decides.

``race-free`` only ever comes from a sound emptiness or unsat proof.
Affine points and SMT models pass one witness gate: substitution into the
context, the system and (when clocked) phase equality, then a replay in
the reference interpreter when the program is small enough to explore.
SMT-LIB scripts are built only on request (``Analysis.smt_scripts``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import lcm
from typing import Mapping, Optional, Union

# is_empty is not called here but stays bound: perfbench/tracing.py wraps
# ``races.is_empty`` by name with getattr and fails if it is missing.
from .affine import AffineSet, Constraint, eq, is_empty, is_empty_with_witness  # noqa: F401
from .hb import (
    ClockReduction,
    param_context,
    reduce_clock,
    statement_domain,
    unordered_disjuncts,
)
from .interp import ExploreResult, explore
from .phi import QuasiPoly, phi
from .smt import emit_smtlib, run_solver
from .syntax import AccessRef, AffineExpr, Basic, Program

DEFAULT_BOUND = 8
_CONFIRM_MAX_STATES = 60_000


@dataclass
class RaceCandidate:
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
    phi_u: Optional[QuasiPoly]
    phi_v: Optional[QuasiPoly]

    def describe(self, p: Program) -> str:
        return (
            f"{p.stmt_label(self.u_id)}:{self.u_ref} vs "
            f"{p.stmt_label(self.v_id)}:{self.v_ref} [{self.kind}]"
        )


@dataclass
class Verdict:
    status: str  # "race-free" | "witness" | "unknown"
    method: str = ""  # "affine" | "smt" | "bounded" | ""
    witness: Optional[dict[str, int]] = None
    confirmed: bool = False
    bound: Optional[int] = None
    detail: str = ""


@dataclass
class Analysis:
    program: Program
    verdict: str  # "RaceFree" | "PotentialRaces" | "Unknown"
    candidates: list[tuple[RaceCandidate, Verdict]]

    @property
    def smt_scripts(self) -> list[str]:
        """One SMT-LIB script per candidate, built on request."""
        return [
            _smt_script(c, f"race candidate {c.index}: {c.describe(self.program)}")
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


def race_candidates(p: Program) -> list[RaceCandidate]:
    """All access pairs that the clock-free happens-before fails to order
    on a common array element."""
    basics = p.basic_statements()
    context = param_context(p)
    out: list[RaceCandidate] = []

    # Phases and the facts of a statement pair do not depend on the access
    # pair, so each is computed once.
    @functools.cache
    def phase_of(finish_id: int, rep: int, prefix: str) -> Optional[QuasiPoly]:
        return phi(p, finish_id, rep, prefix)

    @functools.cache
    def pair_facts(u_id: int, v_id: int):
        """The unordered disjuncts, both domains, the variables and the clock
        reduction; None when happens-before orders every instance pair."""
        unordered = unordered_disjuncts(p, u_id, v_id)
        if not unordered:
            return None
        dom = statement_domain(p, u_id, "u_") + statement_domain(p, v_id, "v_")
        variables = sorted(
            {"u_" + v for v in p.enclosing_iterators(u_id)}
            | {"v_" + v for v in p.enclosing_iterators(v_id)}
            | set(p.param_names())
        )
        return unordered, dom, tuple(variables), reduce_clock(p, u_id, v_id)

    def consider(su: Basic, u_ref: AccessRef, sv: Basic, v_ref: AccessRef, kind: str):
        facts = pair_facts(su.node_id, sv.node_id)
        if facts is None:
            return
        unordered, dom, variables, reduction = facts
        subs = _subscript_equalities(p, su.node_id, u_ref, sv.node_id, v_ref)
        system = AffineSet(
            variables,
            tuple(tuple(dom + subs + d) for d in unordered),
            tuple(context),
        )
        emptiness = is_empty_with_witness(system)
        if emptiness[0] is True:
            return
        pu = pv = None
        if reduction is not None:
            pu = phase_of(reduction.finish_id, reduction.rep_u, "u_")
            pv = phase_of(reduction.finish_id, reduction.rep_v, "v_")
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
        for v, c in e.terms:
            if c in (1, -1) and v in diff.variables:
                repl = (e - AffineExpr.var(v, c)).scale(-c)
                diff = diff.substitute({v: repl})
                eqs[i + 1 :] = [x.subst({v: repl}) for x in eqs[i + 1 :]]
                break
    if not diff.is_affine():
        return None
    denoms = [c.denominator for _, c in diff.coeffs] or [1]
    scale = lcm(*denoms)
    return (diff * scale).as_affine()


class _Confirmer:
    """Shared interpreter runs for witness confirmation / bounded search."""

    def __init__(self, p: Program, max_states: int = _CONFIRM_MAX_STATES):
        self.p = p
        self.max_states = max_states
        self.cache: dict[tuple[tuple[str, int], ...], Union[ExploreResult, str]] = {}

    def run(self, params: Mapping[str, int]) -> Union[ExploreResult, str]:
        """The complete exploration at these parameters, or why there is none."""
        key = tuple(sorted(params.items()))
        if key not in self.cache:
            try:
                res = explore(self.p, params, max_states=self.max_states)
                if res.incomplete:
                    res = "state limit hit"
            except MemoryError:
                res = "out of memory"
            except RecursionError:
                res = "program nested too deeply to interpret"
            self.cache[key] = res
        return self.cache[key]

    def race_between(
        self, cand: RaceCandidate, params: Mapping[str, int]
    ) -> Optional[dict[str, int]]:
        """A concrete dynamic race matching the candidate, if one exists."""
        res = self.run(params)
        if isinstance(res, str):
            return None
        for iu, iv in res.races:
            for a, b in ((iu, iv), (iv, iu)):
                if a[1] != cand.u_id or b[1] != cand.v_id:
                    continue
                env = dict(params)
                full_a = {**dict(a[2]), **params}
                full_b = {**dict(b[2]), **params}
                pu = tuple(e.evaluate(full_a) for e in cand.u_ref.subscripts)
                pv = tuple(e.evaluate(full_b) for e in cand.v_ref.subscripts)
                if pu != pv:
                    continue
                env.update({"u_" + k: x for k, x in a[2]})
                env.update({"v_" + k: x for k, x in b[2]})
                return env
        return None


def _gate(
    p: Program, cand: RaceCandidate, point: Mapping[str, int], method: str,
    confirmer: _Confirmer,
) -> Optional[Verdict]:
    """The witness verdict for a point a tier claims races, or None when it
    fails substitution into the context, the system and (when clocked) phase
    equality, or when a replay finds no matching race.  A point that cannot
    be replayed is still reported, with the reason in ``detail``."""
    s = cand.system
    try:
        holds = all(c.satisfied(point) for c in s.context) and s.contains(point) and (
            cand.reduction is None or cand.phi_u.evaluate(point) == cand.phi_v.evaluate(point)
        )
    except KeyError:  # the point leaves a variable unset
        holds = False
    if not holds:
        return None
    params = {n: point.get(n, lb) for n, lb in p.params}
    above_6 = any(v > 6 for v in params.values())
    res = "parameter above 6" if above_6 else confirmer.run(params)
    if isinstance(res, str):
        return Verdict("witness", method, point, detail=f"not replayed: {res}")
    if confirmer.race_between(cand, params) is None:
        return None
    return Verdict("witness", method, point, confirmed=True)


def _smt_script(cand: RaceCandidate, comment: str = "") -> str:
    """The candidate's SMT-LIB script, with phase equality only when clocked."""
    phases = (cand.phi_u, cand.phi_v) if cand.reduction is not None else (None, None)
    return emit_smtlib(cand.system, *phases, comment=comment)


# Each tier takes (p, cand, confirmer, solver_cmd, bound) and returns a
# verdict, or None to pass the candidate on to the next tier.


def _affine_tier(p, cand, confirmer, solver_cmd, bound) -> Optional[Verdict]:
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
        empty, point = is_empty_with_witness(AffineSet(s.variables, tuple(augmented), s.context))
    if empty is True:
        return Verdict("race-free", "affine")
    if empty is None:
        return None
    # a point the gate refutes: stay conservative
    return _gate(p, cand, point, "affine", confirmer) or Verdict(
        "unknown", "affine", detail="unconfirmed witness"
    )


def _smt_tier(p, cand, confirmer, solver_cmd, bound) -> Optional[Verdict]:
    """An external solver on the full, possibly nonlinear, system."""
    clocked = cand.reduction is not None
    if not solver_cmd or (clocked and (cand.phi_u is None or cand.phi_v is None)):
        return None
    status, model = run_solver(solver_cmd, _smt_script(cand))
    if status == "unsat":
        return Verdict("race-free", "smt")
    return _gate(p, cand, model, "smt", confirmer) if status == "sat" else None


def _bounded_tier(p, cand, confirmer, solver_cmd, bound) -> Verdict:
    """Exhaustive interpretation at every parameter valuation up to the
    bound, smallest maximum first; always decides."""
    grids = [range(lb, max(lb, bound) + 1) for _, lb in p.params]
    names = p.param_names()
    combos = sorted(itertools.product(*grids), key=lambda t: (max(t, default=0), t))
    failures: dict[str, None] = {}
    for combo in combos:
        params = dict(zip(names, combo))
        res = confirmer.run(params)
        if isinstance(res, str):
            failures[res] = None
            continue
        env = confirmer.race_between(cand, params)
        if env is not None:
            return Verdict("witness", "bounded", env, confirmed=True, bound=bound)
    detail = " and ".join(failures) + " during bounded search" if failures else ""
    return Verdict("unknown", "bounded", bound=bound, detail=detail)


_TIERS = (_affine_tier, _smt_tier, _bounded_tier)


def disprove(
    p: Program,
    cand: RaceCandidate,
    confirmer: _Confirmer,
    solver_cmd: Optional[str] = None,
    bound: int = DEFAULT_BOUND,
) -> Verdict:
    """The first verdict of the tiers, tried in order."""
    for tier in _TIERS:
        verdict = tier(p, cand, confirmer, solver_cmd, bound)
        if verdict is not None:
            return verdict
    raise AssertionError("the bounded tier always returns a verdict")


def analyze(
    p: Program,
    solver_cmd: Optional[str] = None,
    bound: int = DEFAULT_BOUND,
    confirm_max_states: int = _CONFIRM_MAX_STATES,
) -> Analysis:
    candidates = race_candidates(p)
    confirmer = _Confirmer(p, confirm_max_states)
    results = [(c, disprove(p, c, confirmer, solver_cmd, bound)) for c in candidates]
    if any(v.status == "witness" for _, v in results):
        verdict = "PotentialRaces"
    elif any(v.status == "unknown" for _, v in results):
        verdict = "Unknown"
    else:
        verdict = "RaceFree"
    return Analysis(p, verdict, results)
