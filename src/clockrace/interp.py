"""Reference small-step interpreter for mini-X10 programs.

For fixed parameter values, a program is instantiated into a finite runtime
term (loops unrolled, guards resolved).  The interpreter then explores the
full nondeterministic state space with memoization, producing ground-truth
dynamic facts: the happens-before relation over statement instances, data
races observed in some schedule, the number of distinct traces, termination,
and the clock phase at which each instance executes.

Runtime terms are nested tuples so that states hash:

    ("basic", node_id, env)      ("advance", node_id, env)
    ("seq", (t1, ..., tn))       ("async", t)
    ("finish", clocked, node_id, env, t)

where ``env`` is a sorted tuple of (iterator, value) bindings.  A finished
subterm is represented by ``None`` and dropped by its parent.

Scheduling follows the statement classification: the i-th element of a
sequence may take a step only when every earlier element is asynchronous.
A clocked ``finish`` performs a clock step when its body is stuck: every
front ``advance`` governed by it is consumed and the clock's phase counter
increments.  Unclocked ``finish`` and ``async`` are transparent to both
stuckness and the clock step, so an advance keeps synchronizing with its
governing clock across them.

There is one step relation, ``steps``: each step names the clock it
advances (``None`` for a leaf step, which executes one basic statement)
and the instances it fires.  Exploration keeps, for every state, the
bitmask of instances still pending; a successor's mask is its parent's
with the fired bits cleared.  The mask depends only on the term, so it is
the same along every path that reaches a state, and no term is walked
again after instantiation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .syntax import (
    Advance,
    Async,
    Basic,
    Finish,
    For,
    If,
    Program,
    Seq,
    Stmt,
)

Env = tuple[tuple[str, int], ...]
Term = Optional[tuple]
Instance = tuple[str, int, Env]  # (kind, node_id, env)
ClockKey = tuple[int, Env]
Step = tuple[Optional[ClockKey], tuple[Instance, ...], Term]


def _env_tuple(env: Mapping[str, int], names) -> Env:
    return tuple(sorted((v, env[v]) for v in names))


# ---------------------------------------------------------------------------
# Instantiation


def instantiate(p: Program, params: Mapping[str, int]) -> Term:
    """Unroll the program for concrete parameter values."""
    for name, lb in p.params:
        if name not in params:
            raise ValueError(f"missing value for parameter {name}")
        if params[name] < lb:
            raise ValueError(f"parameter {name}={params[name]} below bound {lb}")

    def build(s: Stmt, env: dict[str, int], iters: tuple[str, ...]) -> Term:
        if isinstance(s, Basic):
            return ("basic", s.node_id, _env_tuple(env, iters))
        if isinstance(s, Advance):
            return ("advance", s.node_id, _env_tuple(env, iters))
        if isinstance(s, Seq):
            parts = [build(t, env, iters) for t in s.body]
            return _mk_seq([t for t in parts if t is not None])
        if isinstance(s, For):
            full = dict(env)
            full.update(params)
            lo, hi = s.lo.evaluate(full), s.hi.evaluate(full)
            parts = []
            for val in range(lo, hi + 1):
                env2 = dict(env)
                env2[s.var] = val
                t = build(s.body, env2, iters + (s.var,))
                if t is not None:
                    parts.append(t)
            return _mk_seq(parts)
        if isinstance(s, If):
            full = dict(env)
            full.update(params)
            if all(c.evaluate(full) >= 0 for c in s.conds):
                return build(s.body, env, iters)
            return None
        if isinstance(s, Async):
            t = build(s.body, env, iters)
            return None if t is None else ("async", t)
        if isinstance(s, Finish):
            t = build(s.body, env, iters)
            if t is None:
                return None
            return ("finish", s.clocked, s.node_id, _env_tuple(env, iters), t)
        raise TypeError(f"unknown statement {s!r}")

    return build(p.root, {}, ())


def _mk_seq(parts: list) -> Term:
    flat: list = []
    for t in parts:
        if t is None:
            continue
        if t[0] == "seq":
            flat.extend(t[1])
        else:
            flat.append(t)
    if not flat:
        return None
    if len(flat) == 1:
        return flat[0]
    return ("seq", tuple(flat))


def term_instances(t: Term) -> list[Instance]:
    """All leaf instances still present in a term."""
    out: list[Instance] = []

    def walk(t: Term) -> None:
        if t is None:
            return
        kind = t[0]
        if kind in ("basic", "advance"):
            out.append((kind, t[1], t[2]))
        elif kind == "seq":
            for u in t[1]:
                walk(u)
        elif kind == "async":
            walk(t[1])
        elif kind == "finish":
            walk(t[4])

    walk(t)
    return out


# ---------------------------------------------------------------------------
# One-step semantics


def is_async_term(t: Term) -> bool:
    if t is None:
        return True
    if t[0] == "async":
        return True
    if t[0] == "seq":
        return all(is_async_term(u) for u in t[1])
    return False


def stuck(t: Term) -> bool:
    """A term is stuck when it can only proceed via some enclosing clock."""
    if t is None:
        return False
    kind = t[0]
    if kind == "advance":
        return True
    if kind == "basic":
        return False
    if kind == "async":
        return stuck(t[1])
    if kind == "finish":
        # A clocked finish owns its clock and can always advance it once its
        # body is stuck, so it never blocks on an outer clock.
        return False if t[1] else stuck(t[4])
    if kind == "seq":
        for u in t[1]:
            if is_async_term(u):
                if not stuck(u):
                    return False
            else:
                return stuck(u)
        return True
    raise TypeError(f"unknown term {t!r}")


def _seq_replace(elems: tuple, i: int, new: Term) -> Term:
    parts = list(elems)
    if new is None:
        del parts[i]
    else:
        parts[i] = new
    return _mk_seq(parts)


def _yield_term(t: Term, consumed: list[Instance]) -> Term:
    """Consume the front advances of a stuck term (one clock step)."""
    kind = t[0]
    if kind == "advance":
        consumed.append(("advance", t[1], t[2]))
        return None
    if kind == "async":
        nt = _yield_term(t[1], consumed)
        return None if nt is None else ("async", nt)
    if kind == "finish":
        assert not t[1], "clock step reached a nested clocked finish"
        nt = _yield_term(t[4], consumed)
        return None if nt is None else t[:4] + (nt,)
    if kind == "seq":
        parts = []
        hit_sync = False
        for u in t[1]:
            if hit_sync:
                parts.append(u)
            else:
                nu = _yield_term(u, consumed)
                if nu is not None:
                    parts.append(nu)
                if not is_async_term(u):
                    hit_sync = True
        return _mk_seq(parts)
    raise AssertionError(f"yield reached non-stuck term {t!r}")


def steps(t: Term) -> list[Step]:
    """All enabled steps: (clock, fired instances, next term).  A leaf step
    has clock None and fires one basic instance; a clock step names the
    clock instance it advances and fires the advances it consumes."""
    if t is None:
        return []
    kind = t[0]
    if kind == "basic":
        return [(None, (("basic", t[1], t[2]),), None)]
    if kind == "advance":
        return []
    if kind == "async":
        return [
            (key, fired, None if nt is None else ("async", nt))
            for key, fired, nt in steps(t[1])
        ]
    if kind == "finish":
        head = t[:4]
        out = [
            (key, fired, None if nt is None else head + (nt,))
            for key, fired, nt in steps(t[4])
        ]
        if t[1] and stuck(t[4]):
            consumed: list[Instance] = []
            nt = _yield_term(t[4], consumed)
            body = None if nt is None else head + (nt,)
            out.append(((t[2], t[3]), tuple(consumed), body))
        return out
    out = []
    for i, u in enumerate(t[1]):
        for key, fired, nu in steps(u):
            out.append((key, fired, _seq_replace(t[1], i, nu)))
        if not is_async_term(u):
            break
    return out


# ---------------------------------------------------------------------------
# State-space exploration

State = tuple[Term, tuple[tuple[ClockKey, int], ...]]


@dataclass
class ExploreResult:
    """Ground-truth dynamic facts for one parameter valuation."""

    params: dict[str, int]
    instances: list[Instance]
    index: dict[Instance, int]
    state_count: int
    trace_count: int
    terminated: bool
    incomplete: bool
    races: list[tuple[Instance, Instance]]
    # instance -> set of clock counter snapshots observed when it executed
    phases: dict[Instance, set[tuple[tuple[ClockKey, int], ...]]]
    _hb_forbidden: list[int] = field(default_factory=list, repr=False)

    def hb(self, u: Instance, v: Instance) -> bool:
        """True when u executes strictly before v in every trace."""
        iu, iv = self.index[u], self.index[v]
        if iu == iv:
            return False
        return not (self._hb_forbidden[iv] >> iu) & 1

    def phase_values(self, inst: Instance, clock: ClockKey) -> set[int]:
        """Clock phases at which the instance was observed to execute."""
        return {dict(snap).get(clock, 0) for snap in self.phases.get(inst, set())}

    def clock_keys(self) -> set[ClockKey]:
        keys: set[ClockKey] = set()
        for snaps in self.phases.values():
            for snap in snaps:
                keys.update(k for k, _ in snap)
        return keys


def explore(p: Program, params: Mapping[str, int], max_states: int = 1_000_000) -> ExploreResult:
    """Exhaustively interpret the program under the given parameters."""
    t0 = instantiate(p, params)
    instances = term_instances(t0)
    index = {inst: i for i, inst in enumerate(instances)}
    n = len(instances)
    all_mask = (1 << n) - 1

    initial: State = (t0, ())
    ids: dict[State, int] = {initial: 0}
    order: list[State] = [initial]
    present: list[int] = [all_mask]  # per state: bitmask of pending instances
    succs: list[Optional[list[int]]] = [None]
    phases: dict[Instance, set[tuple]] = {}
    incomplete = False

    stack = [0]
    while stack:
        sid = stack.pop()
        if succs[sid] is not None:
            continue
        term, counters = order[sid]
        out: list[int] = []
        for key, fired, nt in steps(term):
            mask = present[sid]
            for inst in fired:
                phases.setdefault(inst, set()).add(counters)
                mask &= ~(1 << index[inst])
            if key is None:
                state = (nt, counters)
            else:
                counter_map = dict(counters)
                counter_map[key] = counter_map.get(key, 0) + 1
                state = (nt, tuple(sorted(counter_map.items())))
            tid = ids.get(state)
            if tid is None:
                if len(ids) >= max_states:
                    incomplete = True
                    continue
                tid = len(order)
                ids[state] = tid
                order.append(state)
                present.append(mask)
                succs.append(None)
                stack.append(tid)
            out.append(tid)
        succs[sid] = out

    # Happens-before: hb(u, v) fails iff some reachable state has v already
    # executed while u is still pending.
    forbidden = [0] * n
    for pres in present:
        rest = all_mask & ~pres
        while rest:
            v = rest & -rest
            forbidden[v.bit_length() - 1] |= pres
            rest ^= v

    # Trace counting / termination over the (acyclic) state graph, in
    # post-order with an explicit stack: a state is summed once all of its
    # successors are.
    paths: list[Optional[int]] = [None] * len(order)
    terminated = True
    pending = [0]
    while pending:
        sid = pending[-1]
        if paths[sid] is not None:
            pending.pop()
            continue
        kids = succs[sid] or []
        todo = [k for k in kids if paths[k] is None]
        if todo:
            pending.extend(todo)
            continue
        pending.pop()
        if order[sid][0] is None:
            paths[sid] = 1
        else:
            terminated = terminated and bool(kids)
            paths[sid] = sum(paths[k] for k in kids)
    trace_count = paths[0]
    if incomplete:
        terminated = False

    result = ExploreResult(
        params=dict(params),
        instances=instances,
        index=index,
        state_count=len(order),
        trace_count=trace_count,
        terminated=terminated,
        incomplete=incomplete,
        races=[],
        phases=phases,
        _hb_forbidden=forbidden,
    )
    result.races = _dynamic_races(p, params, result)
    return result


def _accesses(p: Program, params: Mapping[str, int], inst: Instance):
    """Concrete (array, point, mode) accesses performed by a basic instance."""
    s = p.node(inst[1])
    assert isinstance(s, Basic)
    env = dict(inst[2])
    env.update(params)
    out = []
    for ref in ((s.write,) if s.write else ()) + s.reads:
        point = tuple(e.evaluate(env) for e in ref.subscripts)
        out.append((ref.array, point, ref.mode))
    return out


def _dynamic_races(
    p: Program, params: Mapping[str, int], res: ExploreResult
) -> list[tuple[Instance, Instance]]:
    basics = [i for i in res.instances if i[0] == "basic"]
    accesses = {u: _accesses(p, params, u) for u in basics}
    races = []
    for u, v in itertools.combinations(basics, 2):
        if res.hb(u, v) or res.hb(v, u):
            continue
        if any(
            a == b and pa == pb and "write" in (mu, mv)
            for a, pa, mu in accesses[u]
            for b, pb, mv in accesses[v]
        ):
            races.append((u, v))
    return races


def dynamic_phi(res: ExploreResult, inst: Instance, clock: ClockKey) -> int:
    """Observed clock phase of an executed instance: the number of clock
    steps the given clock instance had taken when the statement ran.  The
    phase is schedule-independent for well-clocked programs; a multi-valued
    observation is reported as an error."""
    vals = res.phase_values(inst, clock)
    if len(vals) != 1:
        raise ValueError(f"phase of {inst} w.r.t. {clock} is not unique: {sorted(vals)}")
    return next(iter(vals))
