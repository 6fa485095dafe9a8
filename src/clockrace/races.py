"""Race candidate enumeration and disproof.

A race candidate pairs a write with another access to the same array such
that some pair of instances is unordered by the clock-free happens-before
and touches the same element.  Candidates are then disproved in tiers:

1. affine reasoning -- when the phase difference becomes affine after
   substituting the candidate's equalities, phase equality is added to the
   system and exact integer emptiness is decided in-process;
2. an external SMT solver on the full nonlinear system (QF_NIA);
3. bounded search -- small parameter valuations are interpreted exhaustively
   and observed races are matched against the candidate.

A verdict of ``race-free`` is only ever produced by a sound emptiness or
unsat proof; witnesses are cross-checked against the reference interpreter
whenever the instantiated program is small enough to explore.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from .affine import AffineSet, Constraint, eq, is_empty, is_empty_with_witness
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
    smt_scripts: list[str] = field(default_factory=list)


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
        if is_empty(system) is True:
            return
        pu = pv = None
        if reduction is not None:
            pu = phase_of(reduction.finish_id, reduction.rep_u, "u_")
            pv = phase_of(reduction.finish_id, reduction.rep_v, "v_")
        out.append(
            RaceCandidate(
                len(out), su.node_id, sv.node_id, u_ref, v_ref, kind,
                system, reduction, pu, pv,
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
    from math import lcm

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


def _confirm_witness(
    cand: RaceCandidate, witness: Mapping[str, int], confirmer: _Confirmer, p: Program
) -> Union[bool, str]:
    """True/False when the interpreter could check the witness, else why not."""
    params = {n: witness.get(n, lb) for n, lb in p.params}
    if any(v > 6 for v in params.values()):
        return "parameter above 6"
    res = confirmer.run(params)
    if isinstance(res, str):
        return res
    return confirmer.race_between(cand, params) is not None


def _witness(method: str, witness: Mapping[str, int], ok: Union[bool, str]) -> Verdict:
    """A witness verdict; ``ok`` is True once replayed, else why it was not."""
    if ok is True:
        return Verdict("witness", method, witness, confirmed=True)
    return Verdict("witness", method, witness, detail=f"not replayed: {ok}")


def disprove(
    p: Program,
    cand: RaceCandidate,
    confirmer: _Confirmer,
    solver_cmd: Optional[str] = None,
    bound: int = DEFAULT_BOUND,
) -> Verdict:
    clocked = cand.reduction is not None
    phases_known = cand.phi_u is not None and cand.phi_v is not None

    # Tier 1: affine reasoning, on the system itself when unclocked and with
    # phase equality added when every disjunct's phase difference linearizes.
    system = None if clocked else cand.system
    if clocked and phases_known:
        augmented = []
        for d in cand.system.disjuncts:
            diff = _substituted_phase_diff(cand, d)
            if diff is None:
                break
            augmented.append(tuple(d) + (eq(diff),))
        else:
            system = AffineSet(cand.system.variables, tuple(augmented), cand.system.context)
    if system is not None:
        empty, witness = is_empty_with_witness(system)
        if empty is True:
            return Verdict("race-free", "affine")
        if empty is False:
            ok = _confirm_witness(cand, witness, confirmer, p)
            if ok is not False:
                return _witness("affine", witness, ok)
            # the model disagreed with the interpreter: stay conservative
            return Verdict("unknown", "affine", detail="unconfirmed witness")

    # Tier 2: external solver on the full system.
    if solver_cmd and (phases_known or not clocked):
        script = emit_smtlib(
            cand.system,
            cand.phi_u if clocked else None,
            cand.phi_v if clocked else None,
        )
        status, model = run_solver(solver_cmd, script)
        if status == "unsat":
            return Verdict("race-free", "smt")
        if status == "sat" and _model_checks(cand, model):
            ok = _confirm_witness(cand, model, confirmer, p)
            if ok is not False:
                return _witness("smt", model, ok)

    # Tier 3: bounded exhaustive interpretation.
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


def _model_checks(cand: RaceCandidate, model: Mapping[str, int]) -> bool:
    try:
        if not all(c.satisfied(model) for c in cand.system.context):
            return False
        if not cand.system.contains(model):
            return False
        if cand.reduction is not None and cand.phi_u is not None:
            if cand.phi_u.evaluate(model) != cand.phi_v.evaluate(model):
                return False
    except KeyError:
        return False
    return True


def analyze(
    p: Program,
    solver_cmd: Optional[str] = None,
    bound: int = DEFAULT_BOUND,
    confirm_max_states: int = _CONFIRM_MAX_STATES,
) -> Analysis:
    candidates = race_candidates(p)
    confirmer = _Confirmer(p, confirm_max_states)
    results: list[tuple[RaceCandidate, Verdict]] = []
    scripts: list[str] = []
    for cand in candidates:
        scripts.append(
            emit_smtlib(
                cand.system,
                cand.phi_u if cand.reduction else None,
                cand.phi_v if cand.reduction else None,
                comment=f"race candidate {cand.index}: {cand.describe(p)}",
            )
        )
        results.append((cand, disprove(p, cand, confirmer, solver_cmd, bound)))
    if any(v.status == "witness" for _, v in results):
        verdict = "PotentialRaces"
    elif any(v.status == "unknown" for _, v in results):
        verdict = "Unknown"
    else:
        verdict = "RaceFree"
    return Analysis(p, verdict, results, scripts)
