import hashlib
import tracemalloc

import pytest

from clockrace import explore, instantiate, parse, races
from clockrace.interp import _Terms, term_instances

import fuzzgen
from conftest import CORPUS_NAMES, SIDE_BY_SIDE_CLOCKS, load
from oracles import dynamic_phi
from test_golden import GOLDEN_FACTS, _fact_runs


def basics(res):
    return [inst for inst in res.instances if inst[0] == "basic"]


def env(inst):
    return dict(inst[2])


def interned(p, params):
    """A fresh term table holding p unrolled at params, its root body's
    elements, and its instances, which the unrolling numbers in
    ``term_instances`` order."""
    terms = _Terms()
    body = terms.build(p, params)
    assert terms.instances == term_instances(instantiate(p, params))
    return terms, body, terms.instances


def decoded_steps(terms, instances, t):
    """The steps of body t, with each fired bitmask decoded into its
    instances."""
    return [
        (key, tuple(inst for i, inst in enumerate(instances) if fired >> i & 1), rest)
        for key, fired, rest in terms.seq_steps(t)
    ]


def leaf_steps(terms, instances, t):
    return [s for s in decoded_steps(terms, instances, t) if s[0] is None]


def clock_steps(terms, instances, t):
    return [s for s in decoded_steps(terms, instances, t) if s[0] is not None]


def clock_keys(res):
    """Every clock instance named in some observed counter vector."""
    return {k for snaps in res.phases.values() for snap in snaps for k, _ in snap}


# ---------------------------------------------------------------------------
# Instantiation


def test_instantiate_unrolls_loops_and_ifs():
    p = parse(
        "param N >= 1;\narray A[1];\n"
        "for (i=0:N-1) { if (i >= 1) { A[i] = f(); } }\n"
    )
    t = instantiate(p, {"N": 3})
    insts = term_instances(t)
    assert [env(i)["i"] for i in insts] == [1, 2]


def test_instantiate_empty_loop():
    p = parse("param N >= 1;\nfor (i=1:N-1) advance;\n")
    t = instantiate(p, {"N": 1})
    assert term_instances(t) == []


# Hand cases at N = 1: a block holding one finish, an empty loop range, a
# false guard, and an async whose body unrolls to nothing.
INSTANTIATED = {
    "{ finish { A[0] = f(); A[0] = g(); } }": (
        "finish", False, 1, (), ("seq", (("basic", 3, ()), ("basic", 4, ()))),
    ),
    "{ A[0] = f(); for (i=1:N-1) { A[i] = g(); } }": ("basic", 1, ()),
    "for (i=0:N-1) { if (i - 1 >= 0) { A[i] = f(); } A[i] = g(); }": ("basic", 5, (("i", 0),)),
    "{ async { for (i=1:N-1) { A[i] = f(); } } A[0] = g(); }": ("basic", 6, ()),
}


@pytest.mark.parametrize("source", INSTANTIATED)
def test_instantiate_hand_cases(source):
    p = parse("param N >= 1;\narray A[1];\n" + source)
    assert instantiate(p, {"N": 1}) == INSTANTIATED[source]


# sha256 over the repr of the instantiated term of every golden facts run and
# of fuzzgen.generate(0..199) at N = 1..3, each followed by a zero byte
INSTANTIATE_DIGEST = "03fabfa3ebc68a63eeb0457f6a27ef9c109085a1996404703edfef67d20e8874"


def test_instantiate_digest():
    runs = [(p, params) for group in GOLDEN_FACTS for p, params, _ in _fact_runs(group)]
    runs += [(fuzzgen.generate(seed), {"N": n}) for seed in range(200) for n in (1, 2, 3)]
    h = hashlib.sha256()
    for p, params in runs:
        h.update(repr(instantiate(p, params)).encode() + b"\0")
    assert h.hexdigest() == INSTANTIATE_DIGEST


# ---------------------------------------------------------------------------
# Small-step machinery


def test_stuck_and_clock_step():
    p = parse("param N >= 1;\narray A[1];\nclocked finish { advance; A[0] = f(); }\n")
    terms, t, insts = interned(p, {"N": 1})
    assert terms.seq_steps(t) != []  # clocked finish absorbs the stuck body
    assert leaf_steps(terms, insts, t) == []  # nothing can move except the clock
    clocks = clock_steps(terms, insts, t)
    assert len(clocks) == 1
    key, advanced, t2 = clocks[0]
    assert key == (0, ())  # the clock of the clocked finish, node 0
    assert [a[0] for a in advanced] == ["advance"]
    leaves = leaf_steps(terms, insts, t2)
    assert len(leaves) == 1  # the basic statement is now active
    assert [i[0] for i in leaves[0][1]] == ["basic"]  # and fires alone


def test_seq_is_sequential_but_asyncs_overlap():
    p = parse(
        "param N >= 1;\narray A[1];\n"
        "finish { { async { A[0] = f(); } A[1] = g(); } }\n"
    )
    terms, t, insts = interned(p, {"N": 1})
    # both the spawned f and the following g are simultaneously enabled
    assert len(leaf_steps(terms, insts, t)) == 2
    assert clock_steps(terms, insts, t) == []


def test_advance_through_unclocked_finish():
    # an unclocked finish between an advance and its clock is legal and
    # must not block the clock transition
    p = parse(
        "param N >= 1;\n"
        "clocked finish { clocked async { advance; } finish { advance; } }\n"
    )
    res = explore(p, {"N": 1})
    assert res.terminated and not res.incomplete


@pytest.mark.parametrize("construct, depth", [("async", 800), ("finish", 300)])
def test_deep_nesting_interprets(construct, depth):
    # seq_steps recurses once per async level and, through frame_steps,
    # twice per finish level; the unrolling walk recurses once per level
    p = parse("param N >= 1;\narray A[1];\n" + f"{construct} " * depth + "A[0] = f();\n")
    res = explore(p, {"N": 1})
    assert res.state_count == 2 and res.terminated


# ---------------------------------------------------------------------------
# Exhaustive exploration


def test_fig1b_phases():
    p = load("fig1b")
    res = explore(p, {"N": 2})
    clock = (0, ())
    assert clock_keys(res) == {clock}
    phases = {
        (env(i)["i"], env(i)["j"]): dynamic_phi(res, i, clock) for i in basics(res)
    }
    assert phases == {(1, 1): 1, (1, 2): 2, (2, 2): 2}
    assert res.terminated and not res.incomplete
    assert res.races == []


def test_fig1a_phases():
    p = load("fig1a")
    res = explore(p, {"N": 2})
    clock = (0, ())
    phases = {
        (env(i)["i"], env(i)["j"]): dynamic_phi(res, i, clock) for i in basics(res)
    }
    # without the skewing advance, activity 2 deregisters after phase 1,
    # so its only instance runs at phase 1 (contrast with fig1b)
    assert phases == {(1, 1): 1, (1, 2): 2, (2, 2): 1}


def test_independent_leaves_trace_count():
    p = parse(
        "param N >= 1;\narray A[1];\n"
        "finish { async { A[0] = f(); } async { A[1] = g(); } }\n"
    )
    res = explore(p, {"N": 1})
    assert res.trace_count == 2
    assert res.races == []
    u, v = basics(res)
    assert not res.hb(u, v) and not res.hb(v, u)


def test_long_sequential_loop_has_one_trace():
    # a chain of 1001 states: counting traces must not recurse per state
    p = parse(
        "param N >= 1;\narray A[1];\n"
        "for (i = 0 : N - 1) { A[i] = S(A[i]); }\n"
    )
    res = explore(p, {"N": 1000})
    assert res.state_count == 1001
    assert res.trace_count == 1 and res.terminated


def test_dynamic_race_detection():
    p = parse(
        "param N >= 1;\narray A[1];\n"
        "finish { for (i=0:N-1) { async { A[0] = W(A[i]); } } }\n"
    )
    res = explore(p, {"N": 2})
    assert res.terminated
    assert res.races  # same cell, unordered
    kinds = {(u[0], v[0]) for u, v in res.races}
    assert kinds == {("basic", "basic")}


def test_ordered_by_clock_no_race():
    p = load("jacobi")
    res = explore(p, {"N": 3, "T": 1})
    assert res.terminated and res.races == []
    # S0 (writes B) runs at even phases 2t, S1 (writes A) at odd phases
    clock = (0, ())
    s0_id, s1_id = (s.node_id for s in p.basic_statements())
    for inst in basics(res):
        expected = 2 * env(inst)["t"] + (1 if inst[1] == s1_id else 0)
        assert dynamic_phi(res, inst, clock) == expected


def test_qr_state_counts():
    # the bounded tier's cost on the paper's nonlinear kernel
    p = load("qr")
    assert [explore(p, {"N": n}).state_count for n in (6, 7)] == [1_642, 6_016]


def test_state_limit_sets_incomplete():
    p = load("moldyn")
    res = explore(p, {"P": 3, "T": 2}, max_states=50)
    assert res.incomplete
    assert not res.terminated


# Runs that a state limit of 5 or 50 cuts: moldyn and QR, and those of the
# first 50 fuzz programs with more reachable states than the limit.
CUT_RUNS = {
    "moldyn/P=3,T=2": lambda: [(load("moldyn"), {"P": 3, "T": 2})],
    "qr/N=4": lambda: [(load("qr"), {"N": 4})],
    "fuzz/0-49,N=3": lambda: [(fuzzgen.generate(seed), {"N": 3}) for seed in range(50)],
}


@pytest.mark.parametrize("max_states", (5, 50))
@pytest.mark.parametrize("runs", CUT_RUNS)
def test_cut_run_lies_within_complete_run(runs, max_states):
    # a cut run reports what the states it added show: never a race, a
    # phase or a trace that the complete run lacks, nor an hb pair fewer
    cut_runs = 0
    for p, params in CUT_RUNS[runs]():
        full = explore(p, params)
        if full.state_count <= max_states:
            continue
        cut_runs += 1
        cut = explore(p, params, max_states=max_states)
        assert cut.incomplete and not cut.terminated
        assert cut.state_count == max_states
        assert cut.instances == full.instances
        assert set(cut.races) <= set(full.races)
        for inst, snaps in cut.phases.items():
            assert snaps <= full.phases[inst]
        assert cut.trace_count <= full.trace_count
        insts = full.instances
        assert all(cut.hb(u, v) for u in insts for v in insts if full.hb(u, v))
    assert cut_runs


def test_explore_memory_per_state():
    # explore keeps per state only its key in its counter vector's table and
    # its trace count there, and per stack entry its pending mask and step
    # iterator; tracemalloc counts bytes, it does not time anything
    p = load("qr")
    tracemalloc.start()
    try:
        res = explore(p, {"N": 7})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / res.state_count < 400


def test_explore_memory_per_state_uncounted():
    # the bounded tier's runs: a table holds only the states' keys
    p = load("qr")
    tracemalloc.start()
    try:
        res = explore(p, {"N": 7}, count_traces=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / res.state_count < 260


def test_stuck_root_is_not_a_trace():
    # an advance outside any clocked finish never steps: the last state has
    # pending instances and no successor, and no state limit cut it; the
    # initial state and each state a discovery edge adds are tested for
    # stuckness whether or not traces are counted
    for body, states in (("advance; A[0] = f();", 1), ("A[0] = f(); advance;", 2)):
        p = parse(f"param N >= 1;\narray A[1];\n{{ {body} }}\n")
        for count_traces, traces in ((True, 0), (False, None)):
            res = explore(p, {"N": 1}, count_traces=count_traces)
            assert (res.state_count, res.trace_count) == (states, traces), body
            assert not res.terminated, body
            assert not res.incomplete, body


def _facts(res):
    """Every field of an explore result but its trace count."""
    return {f: getattr(res, f) for f in res._fields if f != "trace_count"}


# One root activity holding two nested asyncs and a statement: its steps
# are one root element's, and each sleeps on its own.
NESTED_ASYNCS = parse(
    "param N >= 1;\narray A[1];\n"
    "finish { async { for (i=0:N-1) { async { A[i] = f(); } }\n"
    "  async { A[0] = g(); } A[0] = h(); } }\n"
)

# Runs on which counting traces, and so sleep sets (which only uncounted
# runs use), must change nothing else: the corpus at N = 1..3, the cut runs
# above, the first 200 fuzz programs at N = 1..3, every run of the golden
# facts digests, and programs whose leaf steps share a root element or
# whose nested clocks step beside leaf steps.
UNCOUNTED_RUNS = {
    "corpus": lambda: [
        (p, {k: max(lb, n) for k, lb in p.params}, 1_000_000)
        for p in map(load, CORPUS_NAMES)
        for n in (1, 2, 3)
    ],
    "cut": lambda: [
        (p, params, max_states)
        for runs in CUT_RUNS.values()
        for p, params in runs()
        for max_states in (5, 50)
    ],
    "fuzz": lambda: [
        (fuzzgen.generate(seed), {"N": n}, 1_000_000) for seed in range(200) for n in (1, 2, 3)
    ],
    "golden": lambda: [run for group in GOLDEN_FACTS for run in _fact_runs(group)],
    "sleep": lambda: [
        (p, {"N": n}, max_states)
        for p in (NESTED_ASYNCS, SIDE_BY_SIDE_CLOCKS)
        for n in (1, 2, 3)
        for max_states in (1_000_000, 10)
    ],
}


@pytest.mark.parametrize("runs", UNCOUNTED_RUNS)
def test_uncounted_run_has_the_same_facts(runs):
    # explore numbers the instances as it interns the term; the numbering
    # is term_instances' order, on which every instance bitmask rests
    for p, params, max_states in UNCOUNTED_RUNS[runs]():
        counted = explore(p, params, max_states=max_states)
        uncounted = explore(p, params, max_states=max_states, count_traces=False)
        assert counted.instances == term_instances(instantiate(p, params)), params
        assert uncounted.trace_count is None
        assert _facts(uncounted) == _facts(counted), params


def _root_bodies_built(monkeypatch):
    """Wrap ``_Terms.frame_steps`` to count the successor bodies that
    explore builds, the steps its calls to the root frame return, into the
    one item of the returned list.  A nested frame's steps are built inside
    such a call and are not counted."""
    built, depth = [0], [0]
    frame_steps = _Terms.frame_steps

    def counted(self, *args):
        depth[0] += 1
        try:
            out = frame_steps(self, *args)
        finally:
            depth[0] -= 1
        if not depth[0]:
            built[0] += len(out)
        return out

    monkeypatch.setattr(_Terms, "frame_steps", counted)
    return built


# (program, params, states, bodies built counted, bodies built uncounted):
# on QR and the nested asyncs the uncounted search builds one body per state
# but the first, a spanning tree; a clock step wakes every sleeping step, so
# the side-by-side clocks build a few bodies more.
BODIES_BUILT = {
    "qr/N=6": (lambda: load("qr"), {"N": 6}, 1_642, 5_117, 1_641),
    "nested_asyncs/N=3": (lambda: NESTED_ASYNCS, {"N": 3}, 32, 80, 31),
    "side_by_side_clocks/N=2": (lambda: SIDE_BY_SIDE_CLOCKS, {"N": 2}, 25, 50, 32),
}


@pytest.mark.parametrize("run", BODIES_BUILT)
def test_uncounted_run_skips_sleeping_steps(monkeypatch, run):
    # a sleeping step leads to a state already added, so the uncounted
    # search does not build its body; the counting search builds them all
    make, params, states, counted_bodies, uncounted_bodies = BODIES_BUILT[run]
    p = make()
    built = _root_bodies_built(monkeypatch)
    assert explore(p, params).state_count == states
    assert built[0] == counted_bodies
    built[0] = 0
    assert explore(p, params, count_traces=False).state_count == states
    assert built[0] == uncounted_bodies


def _diamonds(p, params, max_bodies=2_000):
    """Check, on the bodies reachable from the root of p (at most
    ``max_bodies``), that two leaf steps from one body commute: each stays
    enabled after the other, and both orders reach one body.  Returns the
    number of ordered pairs checked."""
    terms, initial, _ = interned(p, params)
    seen, todo, pairs = {initial}, [initial], 0
    while todo and len(seen) < max_bodies:
        elems = todo.pop()
        steps = terms.seq_steps(elems)
        # per leaf step a: the steps after a, by the bits they fire
        after = {
            a: {fired: (key, rest) for key, fired, rest in terms.seq_steps(rest_a)}
            for key_a, a, rest_a in steps
            if key_a is None
        }
        for a in after:
            for b in after:
                if a != b:
                    pairs += 1
                    assert after[a][b] == (None, after[b][a][1])
        for _, _, rest in steps:
            if rest not in seen:
                seen.add(rest)
                todo.append(rest)
    return pairs


def test_leaf_steps_commute():
    # the premise of the sleep sets (see the module doc): any two leaf steps
    # of a body commute, whether or not they lie in one root element
    runs = [(fuzzgen.generate(seed), {"N": n}) for seed in range(200) for n in (1, 2, 3)]
    runs += [
        (p, {k: max(lb, n) for k, lb in p.params}) for p in map(load, CORPUS_NAMES) for n in (1, 2, 3)
    ]
    runs += [(p, {"N": n}) for p in (NESTED_ASYNCS, SIDE_BY_SIDE_CLOCKS) for n in (1, 2, 3)]
    assert sum(_diamonds(p, params) for p, params in runs) > 90_000


def test_confirmer_runs_uncounted(monkeypatch):
    # the bounded tier and witness replay never read a trace count
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return explore(*args, **kwargs)

    monkeypatch.setattr(races, "explore", spy)
    res = races._Run(load("fig1b")).explore({"N": 2})
    assert [kw.get("count_traces") for kw in calls] == [False]
    assert res.trace_count is None


def test_hb_is_a_strict_partial_order_on_basics():
    # advances consumed by the same clock transition fire simultaneously,
    # so antisymmetry is only meaningful for individually stepped leaves
    p = load("gauss_seidel")
    res = explore(p, {"N": 3, "T": 1})
    insts = basics(res)
    for u in insts:
        assert not res.hb(u, u)
    for u in insts:
        for v in insts:
            if res.hb(u, v):
                assert not res.hb(v, u)


def test_clock_instances_in_a_loop_are_distinct():
    # each loop iteration creates a fresh clock keyed by its environment;
    # a clock that never transitions before an instance stays at phase 0
    p = parse(
        "param N >= 1;\n"
        "for (i=0:N-1) { clocked finish { clocked async { advance; } advance; } }\n"
    )
    res = explore(p, {"N": 2})
    assert res.terminated
    first = (2, (("i", 0),))
    second = (2, (("i", 1),))
    for inst in res.instances:
        iteration = dict(inst[2])["i"]
        assert dynamic_phi(res, inst, first) == (0 if iteration == 0 else 1)
        assert dynamic_phi(res, inst, second) == 0


# ---------------------------------------------------------------------------
# Independent oracle: every maximal path of the step relation

ORACLE_MAX_PATHS = 500


def _oracle_seq(parts):
    """The flat seq of the parts that are not empty."""
    flat = [e for t in parts if t is not None for e in (t[1] if t[0] == "seq" else (t,))]
    return None if not flat else flat[0] if len(flat) == 1 else ("seq", tuple(flat))


def _oracle_front(elems):
    """Which elements of a seq may step: those after asyncs only."""
    return [all(e[0] == "async" for e in elems[:i]) for i in range(len(elems))]


def _oracle_yield(t):
    """Consume the front advances of a stuck term: (fired, rest)."""
    if t[0] == "advance":
        return (t,), None
    if t[0] == "seq":
        ys = [_oracle_yield(u) if front else ((), u) for u, front in zip(t[1], _oracle_front(t[1]))]
        return sum((f for f, _ in ys), ()), _oracle_seq([r for _, r in ys])
    fired, rest = _oracle_yield(t[-1])  # an async or an unclocked finish
    return fired, None if rest is None else t[:-1] + (rest,)


def _oracle_steps(t):
    """The steps of an instantiated term as (clock, fired instances, next
    term), stepped afresh over the nested tuples rather than by _Terms."""
    if t is None or t[0] == "advance":
        return []
    if t[0] == "basic":
        return [(None, (t,), None)]
    if t[0] == "seq":
        elems = t[1]
        return [
            (key, fired, _oracle_seq(elems[:i] + (nu,) + elems[i + 1 :]))
            for i, (u, front) in enumerate(zip(elems, _oracle_front(elems)))
            if front
            for key, fired, nu in _oracle_steps(u)
        ]
    out = _oracle_steps(t[-1])
    if t[0] == "finish" and t[1] and not out:  # a clocked finish around a stuck body
        fired, rest = _oracle_yield(t[-1])
        out = [((t[2], t[3]), fired, rest)]
    return [(key, fired, None if nt is None else t[:-1] + (nt,)) for key, fired, nt in out]


def _maximal_paths(t, limit):
    """Every maximal path of the step relation from the instantiated term
    t, as (last term, firings): firings maps each fired instance to (step
    number, clock counters before the step).  None when there are more
    than `limit` paths."""
    paths = []

    def walk(t, counters, fired, depth):
        enabled = _oracle_steps(t)
        if not enabled:
            paths.append((t, dict(fired)))
            return len(paths) <= limit
        for key, insts, nt in enabled:
            after = counters
            if key is not None:
                bumped = dict(counters)
                bumped[key] = bumped.get(key, 0) + 1
                after = tuple(sorted(bumped.items()))
            for inst in insts:
                fired[inst] = (depth, counters)
            ok = walk(nt, after, fired, depth + 1)
            for inst in insts:
                del fired[inst]
            if not ok:
                return False
        return True

    return paths if walk(t, (), {}, 0) else None


def _check_against_paths(p, params) -> bool:
    """Compare explore with path enumeration; False when there are too many
    paths to enumerate."""
    paths = _maximal_paths(instantiate(p, params), ORACLE_MAX_PATHS)
    if paths is None:
        return False
    res = explore(p, params)
    assert res.trace_count == sum(last is None for last, _ in paths)
    assert res.terminated == all(last is None for last, _ in paths)
    # hb(u, v): on every path, once v has fired u has fired too (advances
    # consumed by one clock step fire together)
    n = len(res.instances)
    ordered = [(1 << n) - 1] * n
    phases = {}
    for _, fired in paths:
        for v, (step, counters) in fired.items():
            phases.setdefault(v, set()).add(counters)
            before = sum(
                1 << res.index[u] for u, (s, _) in fired.items() if s <= step
            )
            ordered[res.index[v]] &= before
    for u in res.instances:
        for v in res.instances:
            if u != v:
                assert res.hb(u, v) == bool(ordered[res.index[v]] >> res.index[u] & 1)
    # pending in some state with v done: not fired with or before v on every path
    assert res.hb_forbidden == [~o & ((1 << n) - 1) for o in ordered]
    assert res.phases == phases
    return True


def test_explore_matches_paths_on_corpus():
    checked = 0
    for name in CORPUS_NAMES:
        p = load(name)
        for n in (1, 2):
            checked += _check_against_paths(p, {k: max(lb, n) for k, lb in p.params})
    # all but moldyn at P = T = 2, which has 64 000 traces
    assert checked == 2 * len(CORPUS_NAMES) - 1


@pytest.mark.parametrize("seed", range(40))
def test_explore_matches_paths_on_fuzz(seed):
    p = fuzzgen.generate(20_000 + seed)
    for n in (1, 2, 3):
        _check_against_paths(p, {"N": n})


def test_explore_matches_paths_with_several_clocks():
    # a fresh clock per loop iteration, one after another and side by side:
    # the counter vectors hold several clocks, and the vector after a clock
    # step depends on which clock it advances
    in_turn = parse(
        "param N >= 1;\n"
        "for (i=0:N-1) { clocked finish { clocked async { advance; } advance; } }\n"
    )
    for n in (1, 2, 3):
        assert _check_against_paths(in_turn, {"N": n})
    for n in (1, 2):  # 13 440 traces at N = 3
        assert _check_against_paths(SIDE_BY_SIDE_CLOCKS, {"N": n})


ROOT_SHAPES = {
    "unclocked finish around a clocked finish": (
        "finish { async { A[0] = h(); } clocked finish {\n"
        "  clocked async { advance; A[0] = f(); } advance; A[0] = g(); } }\n"
    ),
    "clocked finish around one basic statement": "clocked finish { A[0] = f(); }\n",
    "no finish: a seq of asyncs": (
        "{ for (i=0:N-1) { async { A[i] = f(); A[i] = g(); } } async { A[0] = h(); } }\n"
    ),
    "clocked finish around a clocked async and a statement": (
        "clocked finish { for (i=0:N-1) { clocked async { advance; A[i] = f(); } }\n"
        "  A[0] = g(); advance; A[0] = h(); }\n"
    ),
    "a root that is empty at N = 1": "for (i=1:N-1) { async { A[i] = f(); } }\n",
    "a statement before asyncs at the root": (
        "{ A[0] = g(); for (i=0:N-1) { async { A[i] = f(); } } }\n"
    ),
    "a block around a clocked finish": (
        "{ clocked finish { clocked async { advance; A[0] = f(); } advance; A[0] = g(); } }\n"
    ),
    "a loop around a clocked finish, one iteration at N = 1": (
        "for (i=0:N-1) { clocked finish {\n"
        "  clocked async { advance; A[i] = f(); } advance; A[i] = g(); } }\n"
    ),
}


@pytest.mark.parametrize("source", ROOT_SHAPES.values(), ids=list(ROOT_SHAPES))
def test_explore_matches_paths_on_root_shapes(source):
    # explore runs the root finish as a frame around its body, and any other
    # root as the body of an unclocked frame
    p = parse("param N >= 1;\narray A[1];\n" + source)
    for n in (1, 2):
        assert _check_against_paths(p, {"N": n})


# (states, traces) at N = 1, 2, 3 on the frame's edges: a body that is done
# from the start, and a first element that blocks the asyncs after it.
FRAME_EDGE_COUNTS = {
    "a root that is empty at N = 1": ([1, 2, 4], [1, 1, 2]),
    "a statement before asyncs at the root": ([3, 5, 9], [1, 2, 6]),
}


@pytest.mark.parametrize("shape", FRAME_EDGE_COUNTS)
def test_frame_edge_counts(shape):
    p = parse("param N >= 1;\narray A[1];\n" + ROOT_SHAPES[shape])
    runs = [explore(p, {"N": n}) for n in (1, 2, 3)]
    counts = ([r.state_count for r in runs], [r.trace_count for r in runs])
    assert counts == FRAME_EDGE_COUNTS[shape]
    assert _check_against_paths(p, {"N": 3})
