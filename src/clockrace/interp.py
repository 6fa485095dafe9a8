"""Reference small-step interpreter for mini-X10 programs.

For fixed parameter values, a program unrolls into a finite runtime term
(loops unrolled, guards resolved).  The interpreter then explores the
full nondeterministic state space with memoization, producing ground-truth
dynamic facts: the happens-before relation over statement instances, data
races observed in some schedule, termination, the clock phase at which each
instance executes and, on request, the number of distinct traces.

``instantiate`` returns the runtime term as nested tuples:

    ("basic", node_id, env)      ("advance", node_id, env)
    ("seq", (t1, ..., tn))       ("async", t)
    ("finish", clocked, node_id, env, t)

where ``env`` is a sorted tuple of (iterator, value) bindings, and an empty
term is ``None``.  A leaf is also a statement instance, ``(kind, node_id,
env)``; instance i is bit ``1 << i`` of an instance bitmask, i being its
position in ``term_instances`` of the whole program.

``explore`` builds no such term: ``_Terms.build`` unrolls the program
straight into a hash-cons table, ``_Terms``, in one walk that meets the
leaves in the pre-order of ``term_instances`` and numbers each instance as
it meets it.  A body is the flat tuple of its element ids: a seq's
elements, ``(e,)`` for a body that is one element ``e``, and ``()`` once
it is done.  This is the one format of a body: an ``async`` or ``finish``
node has the shape of its term but holds its body's tuple as its last
field, and a leaf node also carries its instance bit as a fourth field.
A finished element is the id ``DONE``, which a body drops; an ``async``
or ``finish`` whose body is done is itself ``DONE``, and one whose body
unrolls to nothing is no element at all.  Equal terms get equal ids, so
equal bodies are equal tuples.  ``instantiate`` is a view of that table:
the nested term of the root body, its leaves without their bits.  The
clock counter vector of a state (a sorted tuple of (clock, steps taken)
pairs) is interned too.

When the root body is one ``finish`` element, that finish is a frame around
the state's elements: a state is ``(elements, counter id)``, where
``elements`` is the finish's body.  ``_Terms.frame_steps`` gives the
finish's steps with the body's next elements; any other root body is the
body of an unclocked frame.

Scheduling follows the statement classification: the i-th element of a
sequence may take a step only when every earlier element is asynchronous.
A clocked ``finish`` performs a clock step when its body is stuck: every
front ``advance`` governed by it is consumed and the clock's phase counter
increments.  Unclocked ``finish`` and ``async`` are transparent to both
stuckness and the clock step, so an advance keeps synchronizing with its
governing clock across them.

There is one step relation, ``_Terms.seq_steps``, over bodies: each step
names the clock it advances (``None`` for a leaf step, which executes one
basic statement), the bitmask of the instances it fires, and the next body.
It dispatches on the kind of each element that may step: an ``async``
steps as its body does, and a ``finish`` as the frame around its body, so
the root frame and every nested body step through it.  The steps of an
``async`` element are memoized, because an activity's remaining body recurs
across interleavings; any other body is new in nearly every state, so no
other steps are kept.

A body other than ``()`` is stuck exactly when it has no step, so
``_Terms.frame_steps`` offers a clocked finish's clock step exactly when
its body is not done and has no step (for the root, none asleep either:
see the sleep sets below).  By induction on the body: a
``basic`` element steps and is not stuck, an ``advance`` has no step and
is stuck; an ``async`` or unclocked ``finish`` inherits both from its body;
a clocked ``finish`` is never stuck and always steps, since a body without
steps is stuck and so gives it the clock step; a body is stuck iff every
element up to and including the first non-``async`` one is stuck, which
holds iff none of them has a step, that is iff the body has none.

A state's bitmask of pending instances is its parent's with the fired bits
cleared.  The mask depends only on the body, so it is the same along every
path that reaches a state.  hb(u, v) fails iff some reached state has v
done and u pending.  Those masks are collected on discovery edges only:
masks shrink along edges, and each state's discovery edge either fires v
or leaves a predecessor, itself reached that way, in which v was already
done and whose mask contains the state's.  This holds for runs cut by the
state limit too, since only the states they added count.

The phases of an instance are the counter vectors of the states from which
some step fires it, including steps to states that a cut run did not add.
That relation only pairs a counter id with fired bits, so exploration ORs
the bits each step fires into one mask per counter id, that of the state
the step leaves, and the per-instance sets are read off those masks once at
the end: an instance gets a vector exactly when some edge out of a state
with that vector fires it.

Exploration is one depth-first search.  A state's elements are its key in
the table of its counter id (one per counter vector), so an edge hashes
only its successor's elements, and its pending mask rides on the stack
with it.  The state graph is acyclic: every step fires at least one pending
instance (a leaf step its basic instance, a clock step the front advances
of a stuck body, of which there is at least one), so the pending mask
shrinks strictly along every edge.

A state is stuck when it has no step and has a pending instance, and a
complete run terminates iff no state it added is stuck.  A state without
steps has no pending instance exactly when its body is done: instances are
the leaves of the body, a leaf leaves the body only when it fires, and a
body without leaves is ``()``, since an element without leaves is ``DONE``,
which a body drops: an ``async`` or ``finish`` whose body is done is
``DONE``.  So every maximal path from
the initial state ends in a done body, a trace, iff no stuck state is
reachable.  The test is made where a state's steps are computed: for the
initial state and on each discovery edge.

Every table maps a state's elements to the number of traces from that
state, written as the state leaves the stack: the sum of its successors'
numbers, or 1 when its body is done.  The stack is a path of the graph,
so a state seen before is not on it, or it would reach itself: it has left
the stack, and its number is final.  Traces are counted only on request
(``clockrace interpret`` asks; the bounded tier and witness replay do
not), and then every edge is taken.  Otherwise the search skips the leaf
steps that sleep sets (Godefroid, *Partial-Order Methods for the
Verification of Concurrent Systems*, LNCS 1032, 1996) show lead to states
already added, so the numbers are not trace counts and are not returned.

Two leaf steps a and b of one body commute: each leaves the other enabled,
both orders reach one body, and neither changes the counter vector.  A
leaf step only removes its basic statement, and b is enabled when every
element before it, in each seq around it, is async; removing a cannot
break that, since a basic before b would block b, and an async only ever
becomes an async or ``DONE``.  So each stack entry carries a sleep mask of
basic instances.  Once the search has taken leaf step a from a state, a
sleeps in the successors of that state's later steps; a leaf step's
successor keeps its parent's sleeping steps, and a clock step's starts
with none, since a clock step changes the counter vector; a clock step
never sleeps.  ``_Terms.seq_steps`` leaves a sleeping step of the root
body out before building its successor; the memoized steps of an async
and the steps of a nested frame are not filtered.  A sleeping step is
enabled, so a state with one asleep is not stuck: the root frame offers
its clock step, and the stuck test fires, only when a state has no step
and an empty mask.  When counting, nothing ever sleeps.

A sleeping step leads to a state already added, so the search adds the
same states, in the same order and by the same discovery edges, as one
without sleep sets: the state count, each state's stuck test, and the
pending masks collected into ``hb_forbidden`` are unchanged.  Write s·w
for the state that steps w lead to from state s, and say a sleeps in x.
It was put to sleep at a state y on the stack below x, from which the
search took a and later a leaf step towards x, so x = y·w for leaf steps
w, and x·a = y·a·w.  The search from y·a finished before, and a finished
search has added every state its state reaches: each step it took leads
to a state whose search finished earlier, and each step it skipped to one
that, by this argument, an earlier search reaches.  A cut run is the same
too: if the limit cut the search from y·a, then ``incomplete`` is set and
no state is added after it, so the edge to x·a, taken, would only set
``incomplete`` again and record a's bit in ``fired_at``.  That bit is
there already: only leaf steps lie between y and x, so x has y's counter
id, and the step a that the search took from y recorded it under that id.

A state's steps are computed when it is added.  Once the state limit is
hit, the search adds no state: it only finishes the step iterators it
holds, so it computes no step of a new body.  A cut run counts the traces
through the states it added only, and does not terminate.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional

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
Step = tuple[Optional[ClockKey], int, int]  # (clock, fired instance bits, next element id)
BodyStep = tuple[Optional[ClockKey], int, tuple]  # the same, with the next body's elements


def _env_tuple(env: Mapping[str, int], names) -> Env:
    return tuple(sorted((v, env[v]) for v in names))


# ---------------------------------------------------------------------------
# Instantiation


def instantiate(p: Program, params: Mapping[str, int]) -> Term:
    """Unroll the program for concrete parameter values: the nested term
    of the body that :meth:`_Terms.build` interns."""
    terms = _Terms()
    nodes = terms.nodes

    def term(elems: tuple) -> Term:
        parts = []
        for u in elems:  # a leaf without its bit, or a node with its body's term
            node = nodes[u]
            parts.append(node[:3] if len(node) == 4 else node[:-1] + (term(node[-1]),))
        if not parts:
            return None
        return parts[0] if len(parts) == 1 else ("seq", tuple(parts))

    return term(terms.build(p, params))


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
        elif kind in ("async", "finish"):
            walk(t[-1])

    walk(t)
    return out


# ---------------------------------------------------------------------------
# One-step semantics, over interned bodies

DONE = -1  # the id of a finished element


class _Terms:
    """Hash-cons table of the runtime terms of one exploration.  ``build``
    fills it with one program unrolled.  A body is its flat tuple of
    element ids, none of them DONE: an ``async`` or ``finish`` node holds
    its body as its last field, and a leaf node carries its instance's
    bit, ``1 << i`` for instance ``instances[i]``, as a fourth field.
    ``seq_steps`` and ``frame_steps`` step a body.  Nodes are only ever
    added, so an id names one term for the whole exploration."""

    def __init__(self) -> None:
        self.instances: list[Instance] = []  # by bit, in ``term_instances`` order
        self.nodes: list[tuple] = []
        self.ids: dict[tuple, int] = {}
        self.async_steps: dict[int, list[Step]] = {}

    def node(self, t: tuple) -> int:
        tid = self.ids.get(t)
        if tid is None:
            tid = self.ids[t] = len(self.nodes)
            self.nodes.append(t)
        return tid

    def build(self, p: Program, params: Mapping[str, int]) -> tuple:
        """Unroll the program for concrete parameter values into the table:
        the root body's elements.  Each leaf gets the next instance bit, in
        ``term_instances`` order."""
        for name, lb in p.params:
            if name not in params:
                raise ValueError(f"missing value for parameter {name}")
            if params[name] < lb:
                raise ValueError(f"parameter {name}={params[name]} below bound {lb}")
        node, instances = self.node, self.instances

        def walk(s: Stmt, env: dict[str, int], iters: tuple[str, ...], out: list) -> None:
            """Append the elements of ``s`` to ``out``; one frame per level."""
            if isinstance(s, (Basic, Advance)):
                kind = "basic" if isinstance(s, Basic) else "advance"
                inst = (kind, s.node_id, _env_tuple(env, iters))
                out.append(node(inst + (1 << len(instances),)))
                instances.append(inst)
            elif isinstance(s, Seq):
                for t in s.body:
                    walk(t, env, iters, out)
            elif isinstance(s, For):
                full = {**env, **params}
                inner = iters + (s.var,)
                for val in range(s.lo.evaluate(full), s.hi.evaluate(full) + 1):
                    walk(s.body, {**env, s.var: val}, inner, out)
            elif isinstance(s, If):
                if all(c.evaluate({**env, **params}) >= 0 for c in s.conds):
                    walk(s.body, env, iters, out)
            elif isinstance(s, (Async, Finish)):
                body: list = []
                walk(s.body, env, iters, body)
                if body:  # a body that unrolls to nothing leaves no element
                    if isinstance(s, Async):
                        head: tuple = ("async",)
                    else:
                        head = ("finish", s.clocked, s.node_id, _env_tuple(env, iters))
                    out.append(node(head + (tuple(body),)))
            else:
                raise TypeError(f"unknown statement {s!r}")

        elems: list = []
        walk(p.root, {}, (), elems)
        return tuple(elems)

    def wrap(self, head: tuple, body: tuple) -> int:
        """The async or finish node ``head + (body,)``; done when the body is."""
        return self.node(head + (body,)) if body else DONE

    def yield_seq(self, elems: tuple) -> tuple[int, tuple]:
        """Consume the front advances of a stuck body, one without steps (a
        clock step): the consumed advances' bits, and the rest of the body."""
        nodes = self.nodes
        fired = 0
        rest: tuple = ()
        for i, u in enumerate(elems):
            node = nodes[u]
            kind = node[0]
            if kind == "advance":
                fired |= node[3]
            elif kind == "basic":
                raise AssertionError(f"yield reached an element with steps: {node!r}")
            else:
                assert kind == "async" or not node[1], "clock step reached a nested clocked finish"
                f, inner = self.yield_seq(node[-1])
                fired |= f
                if inner:
                    rest += (self.node(node[:-1] + (inner,)),)
            if kind != "async":  # the elements after it wait
                return fired, rest + elems[i + 1 :]
        return fired, rest

    def seq_steps(self, elems: tuple, asleep: int = 0) -> list[BodyStep]:
        """All enabled steps of a body: (clock, fired instance bits, next
        body).  A leaf step has clock None and fires one basic instance; a
        clock step names the clock instance it advances and fires the
        advances it consumes.  Element i steps only when every earlier
        element is async.  An element only ever becomes one of its own kind
        or DONE, which is dropped, so the next body stays flat without
        re-scanning the others.  A successor's body is one copy of
        ``work``, the elements with slot i replaced.  The leaf steps whose
        instances are in the sleep mask ``asleep`` are left out; a clock
        step fires only advances, which never sleep."""
        nodes, async_steps = self.nodes, self.async_steps
        out = []
        work = list(elems)
        for i, u in enumerate(elems):
            inner = async_steps.get(u)  # only async elements are memoized
            is_async = inner is not None
            if not is_async:
                node = nodes[u]
                kind = node[0]
                if kind == "basic":  # the elements after it wait
                    if not node[3] & asleep:
                        out.append((None, node[3], elems[:i] + elems[i + 1 :]))
                    break
                if kind == "advance":
                    break
                if kind == "async":
                    is_async = True
                    inner = async_steps[u] = [
                        (k, f, self.wrap(node[:1], rest)) for k, f, rest in self.seq_steps(node[1])
                    ]
                else:
                    frame = self.frame_steps((node[2], node[3]) if node[1] else None, node[4])
                    inner = [(k, f, self.wrap(node[:4], rest)) for k, f, rest in frame]
            for key, fired, nu in inner:
                if fired & asleep:
                    continue
                if nu == DONE:
                    out.append((key, fired, elems[:i] + elems[i + 1 :]))
                else:
                    work[i] = nu
                    out.append((key, fired, tuple(work)))
            work[i] = u
            if not is_async:
                break
        return out

    def frame_steps(
        self, clock: Optional[ClockKey], elems: tuple, asleep: int = 0
    ) -> list[BodyStep]:
        """The steps of a finish around the body with flat elements
        ``elems``, naming the body's next elements: the body's own steps
        but those asleep or, when the finish has a ``clock`` and its body is
        stuck (see the module doc), one step of that clock.  A body with a
        step asleep has that step, so it is not stuck."""
        out = self.seq_steps(elems, asleep)
        if clock is not None and not out and elems and not asleep:
            fired, rest = self.yield_seq(elems)
            return [(clock, fired, rest)]
        return out


# ---------------------------------------------------------------------------
# State-space exploration

Counters = tuple[tuple[ClockKey, int], ...]


class ExploreResult(NamedTuple):
    """Ground-truth dynamic facts for one parameter valuation."""

    instances: list[Instance]
    index: dict[Instance, int]
    state_count: int
    trace_count: Optional[int]  # None unless explore was asked to count
    terminated: bool
    incomplete: bool
    races: list[tuple[Instance, Instance]]
    # instance -> set of clock counter snapshots observed when it executed
    phases: dict[Instance, set[Counters]]
    # per instance v: the bitmask of the instances pending in some state
    # with v done
    hb_forbidden: list[int]

    def hb(self, u: Instance, v: Instance) -> bool:
        """True when u executes strictly before v in every trace."""
        iu, iv = self.index[u], self.index[v]
        if iu == iv:
            return False
        return not (self.hb_forbidden[iv] >> iu) & 1


def _bits(mask: int):
    """The positions of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def explore(
    p: Program, params: Mapping[str, int], max_states: int = 1_000_000, count_traces: bool = True
) -> ExploreResult:
    """Exhaustively interpret the program under the given parameters.  Only
    with ``count_traces`` set is every edge taken and ``trace_count`` the
    number of traces; otherwise sleeping leaf steps are skipped and
    ``trace_count`` is None (see the module doc)."""
    terms = _Terms()
    frame_steps = terms.frame_steps
    initial = terms.build(p, params)

    # A root body that is one finish is a frame: a state holds the elements
    # of the finish's body (see the module doc).  Any other root body is the
    # body of an unclocked frame.
    clock: Optional[ClockKey] = None
    if len(initial) == 1 and terms.nodes[initial[0]][0] == "finish":
        _, clocked, node_id, env, initial = terms.nodes[initial[0]]
        clock = (node_id, env) if clocked else None
    counters: list[Counters] = [()]  # counter id -> clock counter vector
    counter_ids: dict[Counters, int] = {(): 0}
    fired_at = [0]  # per counter id: instances fired in some state with it
    instances = terms.instances
    n = len(instances)
    # per counter id: the elements of the states added with it, mapped to
    # the traces from them once they leave the stack
    tables: list[dict[tuple, int]] = [{initial: 0}]
    forbidden = [0] * n  # per instance v: instances pending in some state with v done
    state_count = 1
    mask = (1 << n) - 1
    sleepable = 0 if count_traces else -1  # counting takes every edge, so nothing sleeps
    steps = frame_steps(clock, initial)
    terminated = bool(steps) or not mask  # until an added state is stuck
    incomplete = False

    # A stack frame: [elements, counter id, pending mask, sleep mask,
    # iterator over the state's steps, traces found so far from it].  The
    # sleep mask grows by each leaf step taken from the state, for the
    # later steps' successors (see the module doc).  A state seen before
    # has left the stack, so its table value is final.
    stack = [[initial, 0, mask, 0, iter(steps), 0]]
    while stack:
        elems, cid, mask, asleep, steps, found = frame = stack[-1]
        for key, fired, rest in steps:
            fired_at[cid] |= fired
            next_cid = cid
            if key is None:
                next_asleep = asleep
                asleep |= fired & sleepable
            else:
                next_asleep = 0
                counter_map = dict(counters[cid])
                counter_map[key] = counter_map.get(key, 0) + 1
                vector = tuple(sorted(counter_map.items()))
                next_cid = counter_ids.get(vector)
                if next_cid is None:
                    next_cid = counter_ids[vector] = len(counters)
                    counters.append(vector)
                    fired_at.append(0)
                    tables.append({})
            next_table = tables[next_cid]
            count = next_table.get(rest)
            if count is not None:
                found += count
                continue
            if state_count >= max_states:
                incomplete = True
                continue
            state_count += 1
            next_mask = mask & ~fired
            # on discovery edges only: see the module doc
            if key is None:  # a leaf step fires one instance
                forbidden[fired.bit_length() - 1] |= next_mask
            else:
                for i in _bits(fired):
                    forbidden[i] |= next_mask
            next_steps = frame_steps(clock, rest, next_asleep)
            if next_mask and not next_steps and not next_asleep:  # a stuck state
                terminated = False
            next_table[rest] = 0  # never read before the state leaves the stack
            frame[3], frame[5] = asleep, found  # kept while the successor is searched
            stack.append([rest, next_cid, next_mask, next_asleep, iter(next_steps), 0])
            break
        else:  # no steps left
            stack.pop()
            if not mask:  # the body is done: a trace ends here
                found = 1
            tables[cid][elems] = found
            if stack:
                stack[-1][5] += found
    # uncounted, sleeping edges were skipped, so the numbers are not trace counts
    trace_count = tables[0][initial] if count_traces else None
    if incomplete:
        terminated = False

    phases: dict[Instance, set[Counters]] = {}
    for cid, fired in enumerate(fired_at):
        for i in _bits(fired):
            phases.setdefault(instances[i], set()).add(counters[cid])

    return ExploreResult(
        instances=instances,
        index={inst: i for i, inst in enumerate(instances)},
        state_count=state_count,
        trace_count=trace_count,
        terminated=terminated,
        incomplete=incomplete,
        races=_dynamic_races(p, params, instances, forbidden),
        phases=phases,
        hb_forbidden=forbidden,
    )


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
    p: Program, params: Mapping[str, int], instances: list[Instance], forbidden: list[int]
) -> list[tuple[Instance, Instance]]:
    """Unordered pairs of basic instances that touch one element, at least
    one of them writing, in ``itertools.combinations`` order; ``forbidden``
    is ``ExploreResult.hb_forbidden``."""
    basics = [(i, u) for i, u in enumerate(instances) if u[0] == "basic"]
    accesses = {i: _accesses(p, params, u) for i, u in basics}
    readers: dict[tuple, int] = {}  # element -> bitmask of instances
    writers: dict[tuple, int] = {}
    for i, _ in basics:
        for array, point, mode in accesses[i]:
            cells = writers if mode == "write" else readers
            cells[array, point] = cells.get((array, point), 0) | 1 << i
    races = []
    for iu, u in basics:
        clash = 0
        for array, point, mode in accesses[iu]:
            clash |= writers.get((array, point), 0)
            if mode == "write":
                clash |= readers.get((array, point), 0)
        # instances after u in index order (bits above iu) with hb(v, u)
        # false; the loop keeps those with hb(u, v) false too
        for iv in _bits(clash & forbidden[iu] & -(2 << iu)):
            if forbidden[iv] >> iu & 1:
                races.append((u, instances[iv]))
    return races
