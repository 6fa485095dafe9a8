import itertools

import pytest

from clockrace import explore, hb_disjuncts, parse, unordered_disjuncts
from clockrace.hb import ClockReduction, governed_advances
from clockrace.syntax import governing_clocked_finish

from conftest import load


def satisfied(disjuncts, env):
    return any(all(c.satisfied(env) for c in d) for d in disjuncts)


def unordered(p, u_id, v_id):
    """The unordered disjuncts without their clocks."""
    return [d for _, d in unordered_disjuncts(p, u_id, v_id)]


def component_clocks(p, u_id, v_id):
    """(node type, clock reduction) of each unordered component.  A loop
    component's system ends in the inequality between its own iterators;
    the divergence component's system holds equalities only."""
    return [
        ("For" if d and d[-1].kind == "ge" else "Seq", clock)
        for clock, d in unordered_disjuncts(p, u_id, v_id)
    ]


def pair_env(u_inst, v_inst, params):
    env = dict(params)
    env.update(("u_" + k, x) for k, x in u_inst[2])
    env.update(("v_" + k, x) for k, x in v_inst[2])
    return env


# ---------------------------------------------------------------------------
# The sealing rule: an async below the divergence breaks the order


def test_plain_sequence_is_ordered():
    p = parse("param N >= 1;\narray A[1];\n{ A[0] = f(); A[1] = g(); }\n")
    f, g = (s.node_id for s in p.basic_statements())
    assert satisfied(hb_disjuncts(p, f, g, "u_", "v_"), {})
    assert not satisfied(hb_disjuncts(p, g, f, "u_", "v_"), {})
    assert not satisfied(unordered(p, f, g), {})


def test_async_breaks_the_order():
    p = parse(
        "param N >= 1;\narray A[1];\n"
        "finish { { async { A[0] = f(); } A[1] = g(); } }\n"
    )
    f, g = (s.node_id for s in p.basic_statements())
    assert hb_disjuncts(p, f, g, "u_", "v_") == []
    assert hb_disjuncts(p, g, f, "u_", "v_") == []
    assert satisfied(unordered(p, f, g), {})


def test_finish_restores_the_order():
    p = parse(
        "param N >= 1;\narray A[1];\n"
        "{ finish { async { A[0] = f(); } } A[1] = g(); }\n"
    )
    f, g = (s.node_id for s in p.basic_statements())
    assert satisfied(hb_disjuncts(p, f, g, "u_", "v_"), {})
    assert not satisfied(unordered(p, f, g), {})


def test_loop_iterations_of_spawned_work_are_unordered():
    p = parse(
        "param N >= 1;\narray A[1];\n"
        "finish { for (i=0:N-1) { async { A[i] = f(); } } }\n"
    )
    (f,) = (s.node_id for s in p.basic_statements())
    hb01 = satisfied(
        hb_disjuncts(p, f, f, "u_", "v_"), {"u_i": 0, "v_i": 1, "N": 2}
    )
    assert not hb01
    assert satisfied(unordered(p, f, f), {"u_i": 0, "v_i": 1, "N": 2})
    # but iterations of a sequential loop are ordered
    q = parse("param N >= 1;\narray A[1];\nfor (i=0:N-1) { A[i] = f(); }\n")
    (fq,) = (s.node_id for s in q.basic_statements())
    assert satisfied(hb_disjuncts(q, fq, fq, "u_", "v_"), {"u_i": 0, "v_i": 1, "N": 2})
    assert not satisfied(
        hb_disjuncts(q, fq, fq, "u_", "v_"), {"u_i": 1, "v_i": 0, "N": 2}
    )


# ---------------------------------------------------------------------------
# Clock reduction


def test_reduce_clock_jacobi():
    p = load("jacobi")
    s0, s1 = (s.node_id for s in p.basic_statements())
    # activities i differ: the root clocked finish, and no nested clocks
    red = ClockReduction(0, s0, s1)
    assert component_clocks(p, s0, s1) == [("For", red), ("For", red)]


@pytest.mark.parametrize(
    "name, n_advances",
    [("jacobi", 2), ("gauss_seidel", 3), ("qr", 1), ("fig1a", 1), ("fig1b", 2)],
)
def test_governed_advances(name, n_advances):
    p = load(name)
    assert len(governed_advances(p, 0)) == n_advances


@pytest.mark.parametrize("outer, clock", [("clocked ", 0), ("", None)])
def test_a_loop_component_takes_the_clock_above_the_loop(outer, clock):
    """Instances in different iterations run under different instances of
    the clocked finish inside the loop: their components reduce to the
    clock above the loop, or to none.  Instances in one iteration share
    the inner clock."""
    p = parse(
        "param N >= 1;\narray A[1];\n"
        f"{outer}finish for (i=0:N-1) {outer}async clocked finish {{\n"
        "  clocked async A[i] = f(); clocked async A[i] = g(); }\n"
    )
    f, g = (s.node_id for s in p.basic_statements())
    inner = governing_clocked_finish(p, f)
    across = None if clock is None else ClockReduction(clock, inner, inner)
    assert component_clocks(p, f, g) == [
        ("For", across), ("For", across), ("Seq", ClockReduction(inner, f, g))
    ]


def test_representatives_are_the_outermost_clocks_below_the_clock():
    """Each side's representative is the outermost clocked finish below the
    shared clock on its path, not the innermost one around its leaf."""
    p = parse(
        "param N >= 1;\narray A[1];\n"
        "clocked finish {\n"
        "  clocked async clocked finish { advance;\n"
        "    clocked async clocked finish { clocked async A[0] = f(); } }\n"
        "  clocked async clocked finish {\n"
        "    clocked async clocked finish { advance; clocked async A[0] = g(); } }\n"
        "}\n"
    )
    f, g = (s.node_id for s in p.basic_statements())
    assert component_clocks(p, f, g) == [("Seq", ClockReduction(0, 3, 12))]


def test_no_clock_reduction_without_clocks():
    p = parse(
        "param N >= 1;\narray A[1];\n"
        "finish { async { A[0] = f(); } async { A[0] = g(); } }\n"
    )
    f, g = (s.node_id for s in p.basic_statements())
    assert component_clocks(p, f, g) == [("Seq", None)]


# ---------------------------------------------------------------------------
# Partition and soundness against the interpreter


STATIC_CASES = [
    ("jacobi", {"N": 3, "T": 1}),
    ("gauss_seidel", {"N": 3, "T": 1}),
    ("fig1a", {"N": 3}),
    ("fig1b", {"N": 3}),
    ("lufact", {"N": 3}),
]


@pytest.mark.parametrize("name, params", STATIC_CASES)
def test_hb_unordered_partition(name, params):
    """For distinct concrete instances, exactly one of u->v, v->u,
    unordered holds; identical instances satisfy none."""
    p = load(name)
    res = explore(p, params)
    for u, v in itertools.product(res.instances, repeat=2):
        env = pair_env(u, v, params)
        n = (
            satisfied(hb_disjuncts(p, u[1], v[1], "u_", "v_"), env)
            + satisfied(hb_disjuncts(p, v[1], u[1], "v_", "u_"), env)
            + satisfied(unordered(p, u[1], v[1]), env)
        )
        assert n == (0 if u == v else 1), (u, v)


@pytest.mark.parametrize("name, params", STATIC_CASES)
def test_static_hb_implies_dynamic_hb(name, params):
    p = load(name)
    res = explore(p, params)
    assert res.terminated
    checked = 0
    for u, v in itertools.product(res.instances, repeat=2):
        if u == v:
            continue
        env = pair_env(u, v, params)
        if satisfied(hb_disjuncts(p, u[1], v[1], "u_", "v_"), env):
            assert res.hb(u, v), (u, v)
            checked += 1
    assert checked > 0
