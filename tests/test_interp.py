from clockrace import dynamic_phi, explore, instantiate, parse
from clockrace.interp import clock_steps, leaf_steps, stuck, term_instances

from conftest import load


def basics(res):
    return [inst for inst in res.instances if inst[0] == "basic"]


def env(inst):
    return dict(inst[2])


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


# ---------------------------------------------------------------------------
# Small-step machinery


def test_stuck_and_clock_step():
    p = parse("param N >= 1;\narray A[1];\nclocked finish { advance; A[0] = f(); }\n")
    t = instantiate(p, {"N": 1})
    assert stuck(t) is False  # clocked finish absorbs the stuck body
    assert leaf_steps(t) == []  # nothing can move except the clock
    steps = clock_steps(t)
    assert len(steps) == 1
    _, advanced, t2 = steps[0]
    assert [a[0] for a in advanced] == ["advance"]
    assert len(leaf_steps(t2)) == 1  # the basic statement is now active


def test_seq_is_sequential_but_asyncs_overlap():
    p = parse(
        "param N >= 1;\narray A[1];\n"
        "finish { { async { A[0] = f(); } A[1] = g(); } }\n"
    )
    t = instantiate(p, {"N": 1})
    # both the spawned f and the following g are simultaneously enabled
    assert len(leaf_steps(t)) == 2


def test_advance_through_unclocked_finish():
    # an unclocked finish between an advance and its clock is legal and
    # must not block the clock transition
    p = parse(
        "param N >= 1;\n"
        "clocked finish { clocked async { advance; } finish { advance; } }\n"
    )
    res = explore(p, {"N": 1})
    assert res.terminated and not res.incomplete


# ---------------------------------------------------------------------------
# Exhaustive exploration


def test_fig1b_phases():
    p = load("fig1b")
    res = explore(p, {"N": 2})
    clock = (0, ())
    assert res.clock_keys() == {clock}
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


def test_state_limit_sets_incomplete():
    p = load("moldyn")
    res = explore(p, {"P": 3, "T": 2}, max_states=50)
    assert res.incomplete
    assert not res.terminated


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

