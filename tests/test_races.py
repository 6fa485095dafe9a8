import pytest

from clockrace import analyze, explore, parse, race_candidates

from conftest import load


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
    from clockrace.races import _Confirmer, disprove

    class NoRaces(_Confirmer):
        def race_between(self, cand, params):
            return None

    p = parse(
        "param N >= 1;\narray A[1];\n"
        "finish { for (i=0:N-1) { async { A[0] = W(); } } }\n"
    )
    (cand,) = race_candidates(p)
    # N = 2 races, but i = 2 lies outside 0..N-1
    outside = {"N": 2, "u_i": 0, "v_i": 2}
    for confirmer, emptiness in (
        (NoRaces(p), cand.emptiness),  # the replay refutes the point
        (_Confirmer(p), (False, outside)),  # substitution refutes it
    ):
        cand.emptiness = emptiness
        v = disprove(p, cand, confirmer)
        assert (v.status, v.method, v.detail) == ("unknown", "affine", "unconfirmed witness")


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


# ---------------------------------------------------------------------------
# Why a witness was not replayed, and why the bounded search was partial

RACING_ASYNCS = "async { A[0] = f(); } async { A[0] = g(); }"


def _nested(body: str, depth: int = 400) -> str:
    return "finish { " * depth + body + " }" * depth


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
def test_unreplayed_witness_says_why(source, max_states, detail):
    a = analyze(parse(source), bound=2, confirm_max_states=max_states)
    ((_, v),) = a.candidates
    assert (v.status, v.method, v.confirmed) == ("witness", "affine", False)
    assert v.detail == detail


def test_bounded_search_says_why_it_was_partial():
    from conftest import corpus_path

    lines = corpus_path("qr").read_text().splitlines()
    decls = [ln for ln in lines if ln.startswith(("param", "array"))]
    body = [ln for ln in lines if ln and not ln.startswith(("param", "array", "//"))]
    nested = parse("\n".join(decls) + "\n" + _nested("\n".join(body)) + "\n")
    for p, max_states, detail in (
        (load("qr"), 5, "state limit hit during bounded search"),
        (nested, 60_000, "program nested too deeply to interpret during bounded search"),
    ):
        a = analyze(p, bound=3, confirm_max_states=max_states)
        assert a.candidates
        for _, v in a.candidates:
            assert (v.status, v.method, v.detail) == ("unknown", "bounded", detail)
