import itertools
import random
import shlex
import stat
import sys
from pathlib import Path

import pytest

from clockrace import (
    AffineSet,
    analyze,
    emit_smtlib,
    parse,
    parse_poly,
    race_test,
    race_tests_all_orthants,
    run_solver,
)
from clockrace.affine import eq, ge
from clockrace.races import race_candidates
from clockrace.smt import parse_model
from clockrace.syntax import AffineExpr

import fuzzgen
from conftest import CORPUS_NAMES, load
from smt_eval import Script
from sympy_oracle import from_sympy, sym
from test_golden import GOLDEN_PHASES


def test_script_shape():
    s = AffineSet.conjunction(
        [ge(AffineExpr.make(0, {"u_i": 1}))],
        [ge(AffineExpr.make(-2, {"N": 1}))],
    )
    phi_u = from_sympy(sym("N") * sym("u_i"))
    phi_v = from_sympy(2 * sym("v_i"))
    script = emit_smtlib(s, phi_u, phi_v, comment="unit test")
    assert "; unit test" in script
    assert "(set-logic QF_NIA)" in script
    for v in ("u_i", "v_i", "N"):
        assert f"(declare-const {v} Int)" in script
    assert "(check-sat)" in script
    assert "(get-model)" in script
    assert script.index("(check-sat)") < script.index("(get-model)")
    # the phase equality mentions a product for N * u_i
    assert "(* " in script


def test_script_for_empty_set_is_unsat():
    s = AffineSet(())  # no disjunct: the empty set
    script = emit_smtlib(s)
    assert "(assert false)" in script


def test_fractional_phases_are_scaled_to_integers():
    k = sym("u_k")
    phi_u = from_sympy(k**2 / 2 + k / 2)
    phi_v = from_sympy(sym("v_k"))
    s = AffineSet.conjunction([])
    script = emit_smtlib(s, phi_u, phi_v)
    assert "/" not in script  # SMT integers only; the equality was scaled


def test_corpus_scripts_parse_roundtrip_names():
    p = load("qr")
    a = analyze(p, solver_cmd="echo unsat")
    assert len(a.smt_scripts) == 8
    for k, script in enumerate(a.smt_scripts):
        assert f"race candidate {k}" in script
        assert "(declare-const N Int)" in script


# ---------------------------------------------------------------------------
# Model parsing and solver invocation


def test_parse_model_positive_and_negative():
    out = """sat
(
  (define-fun u_i () Int 3)
  (define-fun v_i () Int (- 2))
  (define-fun N () Int 0)
)"""
    assert parse_model(out) == {"u_i": 3, "v_i": -2, "N": 0}


def test_run_solver_unsat_stub():
    status, model = run_solver("echo unsat", "(check-sat)")
    assert status == "unsat" and model == {}


def test_run_solver_sat_with_model(tmp_path):
    stub = tmp_path / "fakesolver.sh"
    stub.write_text(
        "#!/bin/sh\n"
        "cat > /dev/null\n"
        "echo sat\n"
        "echo '((define-fun x () Int 7) (define-fun y () Int (- 1)))'\n"
    )
    stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
    status, model = run_solver(str(stub), "(check-sat)")
    assert status == "sat"
    assert model == {"x": 7, "y": -1}


def test_run_solver_missing_binary_is_unknown():
    status, model = run_solver("/nonexistent/solver --flag", "(check-sat)")
    assert status == "unknown" and model == {}


def test_script_agrees_with_system_semantics(tmp_path):
    # brute-force the QR candidate systems and make sure sat/unsat of the
    # generated scripts matches, using a tiny hand-rolled evaluator
    p = load("qr")
    cands = race_candidates(p)
    assert cands
    for cand in cands:
        s = cand.system
        # phase-equal points exist (that is why QR stays Unknown without a
        # solver), so the combined system must be satisfiable or not
        # according to a direct check at small N
        found = _brute(s, cand.phi_u, cand.phi_v, n=3)
        # with the strict guard there is no phase-equal unordered pair
        # touching the same element
        assert found is False, cand.describe(p)


def _brute(s, phi_u, phi_v, n):
    names = sorted(set(s.variables) | {"N"})
    import itertools

    for point in itertools.product(range(0, n + 1), repeat=len(names)):
        env = dict(zip(names, point))
        if env.get("N", n) != n:
            continue
        if not all(c.satisfied(env) for c in s.context):
            continue
        if not s.contains(env):
            continue
        if phi_u is not None and phi_v is not None:
            if phi_u.evaluate(env) != phi_v.evaluate(env):
                continue
        return True
    return False


# ---------------------------------------------------------------------------
# What a script means: an independent evaluator against the candidate


def _check_script(cand, points) -> tuple[int, int]:
    """Assert that the candidate's script holds at each of points(names),
    values of its declared constants in order, exactly where the context,
    the system and, when clocked, phase equality hold.  The numbers of
    points in the system and of points where the script holds."""
    script = Script(emit_smtlib(cand.system, cand.phi_u, cand.phi_v))
    s, clocked = cand.system, cand.reduction is not None
    in_system = holding = 0
    for values in points(script.declared):
        point = dict(zip(script.declared, values))
        inside = all(c.satisfied(point) for c in s.context) and s.contains(point)
        expected = inside and (
            not clocked or cand.phi_u.evaluate(point) == cand.phi_v.evaluate(point)
        )
        assert script.holds(point) == expected, (cand, point)
        in_system += inside
        holding += expected
    return in_system, holding


def test_evaluator_reads_the_subset():
    script = Script(
        "; a comment (with a parenthesis\n(set-logic QF_NIA)\n"
        "(declare-const x Int)\n(declare-const y Int)\n"
        "(assert (or (and) false))\n"
        "(assert (= (- (* 2 x y) (+ y (- 3))) (- 1)))\n(check-sat)\n(get-model)\n"
    )
    assert script.declared == ["x", "y"]
    box = itertools.product(range(-5, 6), repeat=2)
    assert [p for p in box if script.holds(dict(zip("xy", p)))] == [(0, 4), (1, -4)]
    for bad in ("(assert (>= y 0))", "(assert (< x 0))", "(assert (= x))", "(push 1)"):
        with pytest.raises(ValueError):
            Script("(declare-const x Int)\n" + bad)


# the pairs without an integer root: their phases never meet, so their
# scripts hold nowhere
ROOTLESS_PAIRS = {("2*x^2+1", "3*x+2"), ("x^2+x+2", "3*x")}


@pytest.mark.parametrize("pair", GOLDEN_PHASES, ids="=".join)
def test_race_test_scripts_mean_their_systems(pair):
    # every point of a box holding the race tests' small roots: a wrong
    # sign in the phase equality shows only at points where the phases meet
    def box(names):
        side = range(-1, 4) if len(names) <= 3 else range(-1, 3)
        return itertools.product(side, repeat=len(names))

    holding = 0
    for test in race_tests_all_orthants(*map(parse_poly, pair)):
        for cand in race_candidates(test.program):
            holding += _check_script(cand, box)[1]
    assert (holding == 0) == (pair in ROOTLESS_PAIRS)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_scripts_mean_their_systems(name):
    # points next to the witness of each candidate's (non-empty) system,
    # some of them in it; most coordinates are the witness's own
    rng = random.Random(name)
    for cand in race_candidates(load(name)):
        if cand.reduction is not None and (cand.phi_u is None or cand.phi_v is None):
            continue
        witness = cand.emptiness[1]

        def near(names):
            return [[witness[v] + rng.choice((-1, 0, 0, 1)) for v in names] for _ in range(300)]

        assert _check_script(cand, near)[0]


@pytest.mark.parametrize("first", range(0, 200, 50))
def test_fuzz_scripts_mean_their_systems(first):
    # as for the corpus, over the candidates of 50 fuzz programs each
    for seed in range(first, first + 50):
        rng = random.Random(seed)
        for cand in race_candidates(fuzzgen.generate(seed)):
            if cand.reduction is not None and (cand.phi_u is None or cand.phi_v is None):
                continue
            witness = cand.emptiness[1]

            def near(names):
                return [[witness[v] + rng.choice((-1, 0, 0, 1)) for v in names] for _ in range(100)]

            assert _check_script(cand, near)[0], seed


# ---------------------------------------------------------------------------
# The SMT tier with an enumerating stub solver

ENUM_SOLVER = Path(__file__).resolve().parent / "enum_solver.py"


def enum_solver_cmd():
    return shlex.join([sys.executable, str(ENUM_SOLVER), "--box", "6"])


def test_enum_solver_finds_models_and_never_proves_unsat():
    script = (
        "(declare-const x Int)\n(declare-const y Int)\n"
        "(assert (and (>= x 0) (= (* x x) (+ y 4))))\n(assert (>= y 1))\n"
    )
    status, model = run_solver(enum_solver_cmd(), script)
    assert status == "sat" and model["x"] ** 2 == model["y"] + 4 and model["y"] >= 1
    assert run_solver(enum_solver_cmd(), "(declare-const x Int)\n(assert false)\n") == ("unknown", {})
    # a constant the script uses but does not declare is an error, not a model
    assert run_solver(enum_solver_cmd(), "(declare-const x Int)\n(assert (= x y))\n") == ("unknown", {})


# The race tests of the race-hunt benchmark workload (its seed-7 orientation),
# as writer and reader polynomials, with the tier that decides each today
# and the verdict it gives.
RACE_HUNT_PAIRS = {
    "2*x+1=x+3": "witness/affine",
    "3*x^2+2*x+1=3*x+1": "witness/bounded",
    "3*x^2+3*x+2=2*x^2+x+2": "witness/bounded",
    "3*x^2+2*x=2*x^2+3": "witness/bounded",
    "x^2+2=3*x^2+3*x+2": "witness/bounded",
    "2*x^2+x=3*x^2+2": "unknown/bounded",
    "0=3*x+3": "race-free/affine",
    "1=3*x^2+3": "unknown/bounded",
    "2*x^2+3*x+1=x+3": "unknown/bounded",
    "3*x+1=x^2+x+3": "unknown/bounded",
    "3*x^2+3*x*y+x+y^2+2*y+1=3*x^2+3*x*y+y^2+y+2": "witness/affine",
    "x^2+3*x*y+2*x+y^2+3*y=x^2+x+y^2+3*y+1": "witness/bounded",
}


def race_hunt_test(pair):
    return race_test(*map(parse_poly, pair.split("="))).program


def verdict_of(analysis):
    (_, v), = analysis.candidates
    return v


@pytest.mark.parametrize("pair", RACE_HUNT_PAIRS)
def test_smt_tier_confirms_what_only_the_bounded_tier_found(pair):
    """With a solver, a witness only the bounded tier finds becomes a
    confirmed SMT witness through the gate; an undecided test stays with
    the bounded tier, as the stub never says unsat."""
    p = race_hunt_test(pair)
    before = verdict_of(analyze(p, bound=4))
    assert f"{before.status}/{before.method}" == RACE_HUNT_PAIRS[pair]
    (cand, after), = analyze(p, solver_cmd=enum_solver_cmd(), bound=4).candidates
    if before.method == "bounded" and before.status == "witness":
        assert (after.status, after.method, after.confirmed) == ("witness", "smt", True)
        assert cand.phi_u.evaluate(after.witness) == cand.phi_v.evaluate(after.witness)
    else:
        assert (after.status, after.method) == (before.status, before.method)


def test_a_refuted_model_falls_through_to_the_bounded_tier():
    # the all-zero point is no race of 3x^2+2x = 2x^2+3 (phases 0 and 3);
    # the gate refutes it and the bounded tier still finds x = 1
    p = race_hunt_test("3*x^2+2*x=2*x^2+3")
    model = " ".join(f"(define-fun {v} () Int 0)" for v in ("m_x", "u_x", "v_x"))
    v = verdict_of(analyze(p, solver_cmd=shlex.join(["echo", f"sat ({model})"]), bound=4))
    assert (v.status, v.method, v.confirmed) == ("witness", "bounded", True)
    assert v.witness["u_x"] == 1
