import contextlib
import itertools
import os
import re

import pytest

from clockrace import (
    analyze,
    explore,
    parse,
    parse_poly,
    phi,
    print_program,
    race_candidates,
    race_test,
    races,
)
from clockrace.phi import Counting
from clockrace.syntax import Finish, Program

import fuzzgen
from conftest import CORPUS_NAMES, corpus_path, load, recursion_headroom


def verdicts(analysis):
    return [(c.describe(analysis.program), v) for c, v in analysis.candidates]


# ---------------------------------------------------------------------------
# Candidate extraction


@pytest.mark.parametrize(
    "name, count",
    [
        ("jacobi", 4),
        ("gauss_seidel", 2),
        ("qr", 8),
        ("fig1a", 0),
        ("fig1b", 0),
        ("sor", 2),
        ("moldyn", 1),
        ("lufact", 2),
    ],
)
def test_corpus_candidate_counts(name, count):
    p = load(name)
    cands = race_candidates(p)
    assert len(cands) == count
    assert all(c.kind == "read-write" for c in cands)


def test_jacobi_candidate_shapes():
    p = load("jacobi")
    described = {c.describe(p) for c in race_candidates(p)}
    assert described == {
        "S0:B[i] vs S1:B[i-1] [read-write]",
        "S0:B[i] vs S1:B[i+1] [read-write]",
        "S1:A[i] vs S0:A[i-1] [read-write]",
        "S1:A[i] vs S0:A[i+1] [read-write]",
    }


def test_same_element_same_activity_not_a_candidate():
    # B[i] is written and read only by activity i at distinct phases; the
    # equal-subscript pair is ordered, hence filtered out
    p = load("jacobi")
    for c in race_candidates(p):
        assert str(c.u_ref) != str(c.v_ref)


def deep_nest(depth):
    """One clocked statement under ``depth`` loops, racing with itself."""
    loops = "".join(f"for (i{k} = 0 : N) " for k in range(depth))
    return parse(
        "param N >= 0;\narray A[1];\n"
        f"clocked finish {{ {loops}clocked async {{ advance; A[0] = f(); }} }}\n"
    )


@pytest.mark.parametrize("depth", [10, 60])
def test_candidates_of_a_deep_nest_in_bounded_stack(depth):
    """Candidate generation takes the same frames at any nest depth, though
    the emptiness search sets two variables per loop (its u_ and v_ copy)."""
    p = deep_nest(depth)
    with recursion_headroom(40):
        (cand,) = race_candidates(p)
    assert cand.emptiness[0] is False


def test_root_paths_built_do_not_grow_with_depth(monkeypatch):
    """Happens-before finds every component's clock in the walk it makes
    anyway: the number of root paths built does not grow with the depth."""
    path_to = Program.path_to
    calls = []

    def counted(self, node_id):
        calls.append(node_id)
        return path_to(self, node_id)

    monkeypatch.setattr(Program, "path_to", counted)
    counts = []
    for depth in (10, 60):
        p = deep_nest(depth)
        calls.clear()
        with recursion_headroom(40):
            race_candidates(p)
        counts.append(len(calls))
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# Phases: one phi call per (clock, representative), the v_ side renamed


def clocked_reps(p):
    """Every (clock, representative) pair whose phase race_candidates may
    need: each clocked finish above a basic statement, with the next
    clocked finish below it on the statement's path, or the statement."""
    reps = set()
    for s in p.basic_statements():
        path = p.path_to(s.node_id)
        clocks = [k for k, n in enumerate(path) if isinstance(n, Finish) and n.clocked]
        for k, rep in zip(clocks, clocks[1:] + [len(path) - 1]):
            reps.add((path[k].node_id, path[rep].node_id))
    return sorted(reps)


# QR with its parameter renamed so that it sorts between the u_ and v_
# iterators: renaming then reorders the variables of monomials like N*k.
QR_UZ = parse(re.sub(r"\bN\b", "uz", corpus_path("qr").read_text()))

RACE_TESTS = [
    race_test(parse_poly(a), parse_poly(b)).program
    for a, b in [("x^2+y^2", "4*x*y+3"), ("x^2", "2*y^2+1"), ("x^2+2", "3*x"), ("x*y", "x+y+2")]
]


def test_v_phase_is_the_renamed_u_phase():
    """Each phase a candidate carries, made by race_candidates on its shared
    counting context and renamed for the v_ side, is the standalone phi of
    its representative; so is every renamed phase race_candidates may need."""
    programs = [load(n) for n in CORPUS_NAMES] + [QR_UZ] + RACE_TESTS
    programs += [fuzzgen.generate(seed) for seed in range(200)]
    checked = clocked = 0
    for p in programs:
        for f, rep in clocked_reps(p):
            phase_u = phi(Counting(p), f, rep, "u_")
            assert races._v_phase(p, rep, phase_u) == phi(Counting(p), f, rep, "v_"), (f, rep)
            checked += phase_u is not None
        for c in race_candidates(p):
            if c.reduction is not None:
                f, rep_u, rep_v = c.reduction
                assert c.phi_u == phi(Counting(p), f, rep_u, "u_"), c.describe(p)
                assert c.phi_v == phi(Counting(p), f, rep_v, "v_"), c.describe(p)
                clocked += 1
    assert checked >= 200 and clocked >= 40
    assert all("uz" in phi(Counting(QR_UZ), f, rep).variables for f, rep in clocked_reps(QR_UZ))


@pytest.mark.parametrize(
    "name, calls",
    [("jacobi", 2), ("sor", 2), ("gauss_seidel", 1), ("lufact", 1), ("moldyn", 2),
     ("qr", 2), ("fig1a", 0), ("fig1b", 0)],
)
def test_phi_calls_per_analysis(monkeypatch, name, calls):
    prefixes = []

    def counted(counting, finish_id, stmt_id, prefix):
        prefixes.append(prefix)
        return phi(counting, finish_id, stmt_id, prefix)

    monkeypatch.setattr(races, "phi", counted)
    analyze(load(name), bound=2)
    assert prefixes == ["u_"] * calls


# ---------------------------------------------------------------------------
# Affine disproofs (tier 1)


@pytest.mark.parametrize("name", ["jacobi", "gauss_seidel", "sor", "moldyn", "lufact"])
def test_affine_race_free(name):
    a = analyze(load(name))
    assert a.verdict == "RaceFree"
    for _, v in a.candidates:
        assert v.status == "race-free" and v.method == "affine"


def test_clockless_disjoint_writes_race_free():
    p = parse(
        "param N >= 1;\narray A[1];\n"
        "finish { for (i=0:N-1) { async { A[i] = W(); } } }\n"
    )
    # the only conflicting pair writes provably distinct cells, so it is
    # filtered during candidate extraction already
    assert race_candidates(p) == []
    a = analyze(p)
    assert a.verdict == "RaceFree"


def test_clockless_same_cell_write_write_witness():
    p = parse(
        "param N >= 1;\narray A[1];\n"
        "finish { for (i=0:N-1) { async { A[0] = W(); } } }\n"
    )
    a = analyze(p)
    assert a.verdict == "PotentialRaces"
    (pair,) = a.candidates
    cand, v = pair
    assert cand.kind == "write-write" and cand.u_id == cand.v_id
    assert v.status == "witness" and v.confirmed
    assert cand.system.contains(v.witness)  # substitution check


def test_clockless_read_write_witness():
    p = parse(
        "param N >= 1;\narray A[1];\n"
        "finish { for (i=0:N-1) { async { A[0] = W(A[i]); } } }\n"
    )
    a = analyze(p)
    assert a.verdict == "PotentialRaces"
    assert any(
        v.status == "witness" and v.confirmed and v.method == "affine"
        for _, v in a.candidates
    )


def test_negative_control_jacobi_without_second_advance():
    source = (
        "param N >= 2;\nparam T >= 0;\narray A[1];\narray B[1];\n"
        "clocked finish { for (i=1:N-1) { clocked async { for (t=0:T) {\n"
        "  B[i] = S0(A[i-1], A[i], A[i+1]);\n"
        "  advance;\n"
        "  A[i] = S1(B[i-1], B[i], B[i+1]);\n"
        "} } } }\n"
    )
    p = parse(source)
    a = analyze(p)
    assert a.verdict == "PotentialRaces"
    hits = [v for _, v in a.candidates if v.status == "witness"]
    assert hits
    for v in hits:
        assert v.confirmed
    # the witness parameters reproduce a dynamic race
    w = hits[0].witness
    res = explore(p, {"N": w["N"], "T": w["T"]})
    assert res.races


# A clocked finish inside a loop is a new clock in every iteration: phases
# are comparable only between instances that agree on the loop's iterator.
CLOCK_PER_ITERATION = (
    "param N >= 1;\narray A[1];\n"
    "finish for (i = 0 : N) async clocked finish {\n"
    "  A[2 * i] = f();\n"
    "  advance;\n"
    "  A[2 * i + 1] = g(A[2 * i + 2]);\n"
    "}\n"
)
# SOR with each activity's sweeps under a clock of its own
SOR_CLOCK_PER_ACTIVITY = corpus_path("sor").read_text().replace(
    "clocked async {", "clocked async clocked finish {"
)


@pytest.mark.parametrize(
    "source", [CLOCK_PER_ITERATION, SOR_CLOCK_PER_ACTIVITY], ids=["loop", "sor"]
)
def test_phases_of_different_clock_instances_are_not_compared(source):
    p = parse(source)
    a = analyze(p, bound=3)
    assert a.verdict == "PotentialRaces"
    hits = [(c, v) for c, v in a.candidates if v.status == "witness"]
    assert hits and all(v.confirmed for _, v in hits)
    # the components that race differ in the loop above the inner finish,
    # which leaves them under the outer clock, or none
    assert all(c.reduction is None or c.reduction.finish_id == 0 for c, _ in hits)
    w = hits[0][1].witness
    assert explore(p, {k: w[k] for k in p.param_names()}).races


def test_one_candidate_per_access_pair_and_clock():
    # f and g race across iterations (no common clock) but not within one
    # iteration, where g runs a phase after f under the inner clock
    p = parse(
        "param N >= 1;\narray A[1];\n"
        "finish for (i = 0 : N) async clocked finish {\n"
        "  clocked async A[0] = f();\n"
        "  clocked async { advance; A[0] = g(); }\n"
        "}\n"
    )
    a = analyze(p, bound=3)
    pair = [(c.reduction, v.status) for c, v in a.candidates
            if p.stmt_label(c.u_id) == "f" and p.stmt_label(c.v_id) == "g"]
    assert [(r is None, status) for r, status in pair] == [
        (True, "witness"), (False, "race-free")
    ]
    assert pair[1][0].finish_id == 3  # the inner clocked finish


# ---------------------------------------------------------------------------
# Solver tier (tier 2) with command stubs


def test_solver_unsat_short_circuits_qr():
    a = analyze(load("qr"), solver_cmd="echo unsat")
    assert a.verdict == "RaceFree"
    assert len(a.candidates) == 8
    for _, v in a.candidates:
        assert v.status == "race-free" and v.method == "smt"
    assert len(a.smt_scripts) == 8


def test_solver_garbage_falls_through_to_bounded():
    a = analyze(load("qr"), solver_cmd="echo flubber", bound=2)
    assert all(v.method == "bounded" for _, v in a.candidates)
    assert a.verdict == "Unknown"


def test_unsound_sat_model_is_rejected():
    # a solver claiming "sat" without a usable model must not produce a
    # witness; the engine falls back to the bounded tier
    a = analyze(load("qr"), solver_cmd="echo sat", bound=2)
    assert a.verdict == "Unknown"
    assert all(v.status != "witness" for _, v in a.candidates)


# ---------------------------------------------------------------------------
# The witness gate: substitution, then replay


def _squares():
    # races exactly when x*x = y*y in one (x, y) iteration, i.e. at x = y
    from clockrace import parse_poly, race_test

    return race_test(parse_poly("x^2"), parse_poly("y^2")).program


def _solver_printing(model):
    defs = " ".join(f"(define-fun {k} () Int {v})" for k, v in model.items())
    return f"echo 'sat ({defs})'"


def test_valid_smt_model_is_a_confirmed_witness():
    model = {"m_x": 1, "m_y": 1, "u_x": 1, "u_y": 1, "v_x": 1, "v_y": 1}
    a = analyze(_squares(), solver_cmd=_solver_printing(model), bound=2)
    ((_, v),) = a.candidates
    assert (v.status, v.method, v.confirmed, v.witness) == ("witness", "smt", True, model)


@pytest.mark.parametrize(
    "model",
    [
        # in the system, but the phases x^2 = 1 and y^2 = 0 differ
        {"m_x": 1, "m_y": 1, "u_x": 1, "u_y": 0, "v_x": 1, "v_y": 0},
        # equal phases, but x = 2 lies outside 0..m_x
        {"m_x": 1, "m_y": 1, "u_x": 2, "u_y": 2, "v_x": 2, "v_y": 2},
    ],
    ids=["unequal-phases", "outside-system"],
)
def test_smt_model_failing_substitution_is_not_the_witness(model):
    # a race exists at m_x = m_y = 1, so a replay alone would accept the
    # model; substitution rejects it and the bounded tier finds its own
    a = analyze(_squares(), solver_cmd=_solver_printing(model), bound=2)
    ((_, v),) = a.candidates
    assert (v.status, v.method, v.confirmed) == ("witness", "bounded", True)
    assert v.witness != model


def test_refuted_affine_point_is_unknown():
    from clockrace.races import _Run, disprove

    class NoRaces(_Run):
        def explore(self, params):
            # every instance pair ordered both ways, so none can race
            res = super().explore(params)
            return res._replace(hb_forbidden=[0] * len(res.instances))

    p = parse(
        "param N >= 1;\narray A[1];\n"
        "finish { for (i=0:N-1) { async { A[0] = W(); } } }\n"
    )
    (cand,) = race_candidates(p)
    # N = 2 races, but i = 2 lies outside 0..N-1
    outside = {"N": 2, "u_i": 0, "v_i": 2}
    for run, emptiness in (
        (NoRaces(p), cand.emptiness),  # the replay refutes the point
        (_Run(p), (False, outside)),  # substitution refutes it
    ):
        v = disprove(run, cand._replace(emptiness=emptiness))
        assert (v.status, v.method, v.detail) == ("unknown", "affine", "unconfirmed witness")


def test_unavailable_phase_passes_the_clocked_candidate_on():
    # the advance's guard has a coefficient 2 on i, so f's phase is
    # unavailable; the affine tier cannot decide the candidate, and the
    # bounded tier finds the race
    p = parse(
        "param N >= 1;\narray A[1];\n"
        "clocked finish { for (i = 0 : N) { clocked async {"
        " if (2 * i >= N) { advance; } A[0] = f(); } } }\n"
    )
    a = analyze(p, bound=2)
    assert a.verdict == "PotentialRaces"
    ((cand, v),) = a.candidates
    assert cand.reduction is not None and cand.phi_u is None
    assert (v.status, v.method, v.confirmed) == ("witness", "bounded", True)
    assert v.witness == {"N": 2, "u_i": 1, "v_i": 2}


def test_undecided_emptiness_passes_the_candidate_on(monkeypatch):
    # an emptiness check that decides nothing proves nothing: the affine
    # tier passes the unclocked candidate on, and the bounded tier finds the
    # race
    monkeypatch.setattr(races, "is_empty_with_witness", lambda system: (None, None))
    p = parse("param N >= 1;\narray A[1];\nfinish for (i = 0 : N) async A[0] = f();\n")
    a = analyze(p, bound=2)
    assert a.verdict == "PotentialRaces"
    ((cand, v),) = a.candidates
    assert cand.emptiness == (None, None)
    assert (v.status, v.method, v.confirmed) == ("witness", "bounded", True)


# ---------------------------------------------------------------------------
# Bounded tier (tier 3)


def test_qr_unknown_without_solver_bound_3():
    a = analyze(load("qr"), bound=3)
    assert a.verdict == "Unknown"
    for _, v in a.candidates:
        assert v.status == "unknown" and v.method == "bounded" and v.bound == 3
        assert v.detail == ""  # the bounded search was exhaustive


def test_qr_nonstrict_guard_races():
    # regression: weakening the guard to j >= k lets activity j = k write
    # column k at the very phase the other activities read it, a genuine
    # race the interpreter reproduces at N = 2
    from conftest import corpus_path

    source = corpus_path("qr").read_text().replace("j > k", "j >= k")
    p = parse(source)
    a = analyze(p, bound=2)
    assert a.verdict == "PotentialRaces"
    hits = [v for _, v in a.candidates if v.status == "witness"]
    assert hits and all(v.confirmed for v in hits)
    assert explore(p, {"N": 2}).races


def test_replay_refutes_a_point_whose_own_pair_does_not_race():
    from clockrace.races import _Run, _gate

    p = _squares()
    (cand,) = race_candidates(p)
    run = _Run(p)
    # at m_x = m_y = 1 the instances x = y = 0 race ...
    x0y0 = {"m_x": 1, "m_y": 1, "u_x": 0, "u_y": 0, "v_x": 0, "v_y": 0}
    assert _gate(run, cand, x0y0, "smt").confirmed
    # ... but this point's own pair runs at phases 1 and 0; with a phase
    # unavailable the gate skips the phase check, the point passes
    # substitution, and only the replay refutes it
    point = {"m_x": 1, "m_y": 1, "u_x": 1, "u_y": 0, "v_x": 1, "v_y": 0}
    assert _gate(run, cand, point, "smt") is None  # the phase check
    unphased = cand._replace(phi_v=None)
    unreplayed = _gate(run, unphased, point, "smt", "no exploration")
    assert (unreplayed.status, unreplayed.confirmed) == ("witness", False)
    assert _gate(run, unphased, point, "smt") is None


def test_bounded_races_pass_the_phase_gate():
    # x^2 = y^2 races at x = y; shifting one phase by 1 leaves no point
    # with equal phases, so the races the interpreter observes between the
    # two statements are no witness of the shifted candidate
    from clockrace.phi import QuasiPoly
    from clockrace.races import _Run, disprove

    p = _squares()
    (cand,) = race_candidates(p)
    shifted = cand._replace(phi_v=cand.phi_v + QuasiPoly.constant(1))
    run = _Run(p, bound=2)
    v = disprove(run, cand)
    assert (v.status, v.method, v.confirmed, v.bound) == ("witness", "bounded", True, 2)
    v = disprove(run, shifted)
    assert (v.status, v.method, v.bound, v.detail) == ("unknown", "bounded", 2, "")


def test_bounded_search_lists_every_point_when_a_phase_is_unavailable():
    # x^2 + 1 = y^2 + 1 races at x = y, at the first valuation already; with
    # either phase lost, the other alone is never 0, and the search still
    # lists every point and the replay finds the race
    from clockrace.races import _Run, disprove

    t = race_test(parse_poly("x^2 + 1"), parse_poly("y^2 + 1"))
    (cand,) = race_candidates(t.program)
    for lost in (cand._replace(phi_u=None), cand._replace(phi_v=None)):
        v = disprove(_Run(t.program, bound=2), lost)
        assert (v.status, v.method, v.confirmed, v.bound) == ("witness", "bounded", True, 2)
        assert v.witness == dict.fromkeys(("m_x", "m_y", "u_x", "u_y", "v_x", "v_y"), 0)


def test_bounded_confirms_nonlinear_race():
    # equal nonlinear phases that tier 1 cannot linearize: two activities
    # race exactly when x*x phases coincide with y*y phases (x = y)
    from clockrace import parse_poly, race_test

    t = race_test(parse_poly("x^2"), parse_poly("y^2"))
    a = analyze(t.program, bound=2)
    assert a.verdict == "PotentialRaces"
    (pair,) = a.candidates
    _, v = pair
    assert v.status == "witness" and v.confirmed and v.method == "bounded"


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_points_of_every_corpus_candidate(name):
    # the prepared listing gives each candidate's points at each valuation
    # in lb..lb+2, as brute force over the loop bounds finds them
    from clockrace.affine import Listing

    def key(point):
        return sorted(point.items())

    p = load(name)
    for cand in race_candidates(p):
        listing = Listing(cand.system, p.param_names())
        for combo in itertools.product(*(range(lb, lb + 3) for _, lb in p.params)):
            params = dict(zip(p.param_names(), combo))
            listed = list(listing.points(params))
            assert None not in listed
            expected = fuzzgen.candidate_points(p, cand, params)
            assert sorted(map(key, listed)) == sorted(map(key, expected)), (cand.index, params)


# Lower bounds with none, negative and mixed values.
LOWER_BOUNDS = [(), (0,), (2,), (-2,), (0, 0), (1, -1), (-3, 2, 0), (2, 2, 5), (0, 3)]


@pytest.mark.parametrize("lower_bounds", LOWER_BOUNDS, ids=str)
def test_valuations_are_the_sorted_grid(lower_bounds):
    # the order of sorting the whole grid by maximum, then as tuples
    from clockrace.races import _valuations

    for bound in range(6):
        grid = itertools.product(*(range(lb, max(lb, bound) + 1) for lb in lower_bounds))
        expected = sorted(grid, key=lambda t: (max(t, default=0), t))
        assert list(_valuations(lower_bounds, bound)) == expected, bound


@contextlib.contextmanager
def address_space_limit(headroom: int):
    """Cap this process's address space at its current size plus
    ``headroom`` bytes for the block, so that building a huge grid fails
    at once with a MemoryError."""
    resource = pytest.importorskip("resource")
    try:
        with open("/proc/self/statm") as f:
            size = int(f.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        pytest.skip("the process size is not readable")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + headroom if soft == resource.RLIM_INFINITY else min(size + headroom, soft)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def test_valuations_are_made_lazily():
    # the grid at bound 10^9 does not fit in memory; the first two
    # valuations need none of it
    from clockrace.races import _valuations

    with address_space_limit(1 << 28):
        first = list(itertools.islice(_valuations([0, 1], 10**9), 2))
    assert first == [(0, 1), (1, 1)]


# ---------------------------------------------------------------------------
# Why a witness was not replayed, and why the bounded search was partial

RACING_ASYNCS = "async { A[0] = f(); } async { A[0] = g(); }"


def _nested(body: str, depth: int = 700) -> str:
    """``body`` under ``depth`` finishes: deep enough for the interpreter's
    recursion, two frames per finish, shallow enough to parse."""
    return "finish " * depth + "{ " + body + " }"


@pytest.mark.parametrize(
    "source, max_states, detail",
    [
        ("param N >= 1;\narray A[1];\n" + _nested(RACING_ASYNCS), 60_000,
         "not replayed: program nested too deeply to interpret"),
        ("param N >= 7;\narray A[1];\nfinish { " + RACING_ASYNCS + " }", 60_000,
         "not replayed: parameter above 6"),
        ("param N >= 1;\narray A[1];\nfinish { " + RACING_ASYNCS + " }", 2,
         "not replayed: state limit hit"),
    ],
    ids=["nested", "param-above-6", "state-limit"],
)
def test_unreplayed_witness_says_why(monkeypatch, source, max_states, detail):
    monkeypatch.setattr(races, "_CONFIRM_MAX_STATES", max_states)
    a = analyze(parse(source), bound=2)
    ((_, v),) = a.candidates
    assert (v.status, v.method, v.confirmed) == ("witness", "affine", False)
    assert v.detail == detail


def _nested_program(source: str) -> Program:
    """The program of ``source`` with its statements under ``_nested``'s
    finishes."""
    lines = source.splitlines()
    decls = [ln for ln in lines if ln.startswith(("param", "array"))]
    body = [ln for ln in lines if ln and not ln.startswith(("param", "array", "//"))]
    return parse("\n".join(decls) + "\n" + _nested("\n".join(body)) + "\n")


def test_bounded_search_says_why_it_was_partial(monkeypatch):
    # x^2 = y^2 has a point with equal phases at every valuation, so each
    # valuation is replayed, and here each replay fails
    squares = print_program(_squares())
    for p, max_states, detail in (
        (_squares(), 2, "state limit hit during bounded search"),
        (_nested_program(squares), 60_000,
         "program nested too deeply to interpret during bounded search"),
    ):
        monkeypatch.setattr(races, "_CONFIRM_MAX_STATES", max_states)
        a = analyze(p, bound=2)
        ((_, v),) = a.candidates
        assert (v.status, v.method, v.detail) == ("unknown", "bounded", detail)
    # no point of a QR candidate has equal phases, so QR is never
    # interpreted and the state limit cannot cut its search
    monkeypatch.setattr(races, "_CONFIRM_MAX_STATES", 5)
    a = analyze(load("qr"), bound=3)
    assert len(a.candidates) == 8
    for _, v in a.candidates:
        assert (v.status, v.method, v.detail) == ("unknown", "bounded", "")


def test_bounded_search_says_when_the_walk_was_cut(monkeypatch):
    # a walk of at most 2 nodes reaches no point of x^2 = y^2's system
    from clockrace import affine
    from clockrace.races import _Run, _bounded_tier

    p = _squares()
    (cand,) = race_candidates(p)
    monkeypatch.setattr(affine, "_SEARCH_MAX_NODES", 2)
    run = _Run(p, bound=2)
    v = _bounded_tier(run, cand)
    assert (v.status, v.method, v.detail) == (
        "unknown", "bounded", "point limit hit during bounded search")
    assert run.explored == {}


def test_bounded_replay_takes_any_parameter():
    # x^2 = 7x + 8 only at x = 8: the bounded tier replays that point
    # itself, so the gate's own cap on replayed parameters does not apply
    t = race_test(parse_poly("x^2"), parse_poly("7*x + 8"))
    ((_, v),) = analyze(t.program, bound=8).candidates
    assert races._REPLAY_MAX_PARAM < 8
    assert (v.status, v.method, v.confirmed, v.detail) == ("witness", "bounded", True, "")
    assert v.witness == {"m_x": 8, "u_x": 8, "v_x": 8}


def test_qr_bounded_search_interprets_nothing(monkeypatch):
    # no point of a QR candidate has equal phases at any valuation up to
    # 12, so the search is complete without one exploration
    def no_explore(*args, **kwargs):
        raise AssertionError("QR's bounded search explored")

    monkeypatch.setattr(races, "explore", no_explore)
    a = analyze(load("qr"), bound=12)
    assert len(a.candidates) == 8
    for _, v in a.candidates:
        assert (v.status, v.method, v.bound, v.detail) == ("unknown", "bounded", 12, "")


def test_qr_bounded_search_builds_no_point(monkeypatch):
    # the walk checks the phases before a point is built, and no point of
    # a QR candidate has equal phases at any valuation up to 12
    from clockrace import affine
    from clockrace.races import _Run, disprove

    def no_reconstruct(*args, **kwargs):
        raise AssertionError("QR's bounded search built a point")

    p = load("qr")
    cands = race_candidates(p)
    monkeypatch.setattr(affine._System, "reconstruct", no_reconstruct)
    run = _Run(p, bound=12)
    assert len(cands) == 8
    for cand in cands:
        v = disprove(run, cand)
        assert (v.status, v.method, v.bound, v.detail) == ("unknown", "bounded", 12, "")


def test_a_pruned_walk_still_says_it_was_cut(monkeypatch):
    # QR's walks cut off every subtree by the phase check, and a walk of at
    # most 2 nodes is still a partial one
    from clockrace import affine
    from clockrace.races import _Run, _bounded_tier

    p = load("qr")
    cands = race_candidates(p)
    monkeypatch.setattr(affine, "_SEARCH_MAX_NODES", 2)
    run = _Run(p, bound=3)
    for cand in cands:
        v = _bounded_tier(run, cand)
        assert (v.status, v.method, v.detail) == (
            "unknown", "bounded", "point limit hit during bounded search")
    assert run.explored == {}


def test_bounded_search_explores_only_valuations_with_a_point():
    # x0*...*x5 = 1 only where every x is 1, and at bound 1 only the
    # valuation with every parameter 1 has such a point, of 64
    from clockrace.races import _Run, disprove

    t = race_test(parse_poly("*".join(f"x{k}" for k in range(6))), parse_poly("1"))
    run = _Run(t.program, bound=1)
    (cand,) = race_candidates(t.program)
    v = disprove(run, cand)
    assert (v.status, v.method, v.confirmed) == ("witness", "bounded", True)
    assert list(run.explored) == [tuple((f"m_x{k}", 1) for k in range(6))]
