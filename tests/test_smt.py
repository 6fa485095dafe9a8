import itertools
import random
import stat

import pytest

from clockrace import AffineSet, emit_smtlib, parse, parse_poly, race_tests_all_orthants, run_solver
from clockrace.affine import eq, ge
from clockrace.races import _smt_script, race_candidates
from clockrace.smt import parse_model
from clockrace.syntax import AffineExpr

from conftest import CORPUS_NAMES, load
from smt_eval import Script
from sympy_oracle import from_sympy, sym
from test_golden import GOLDEN_PHASES


def test_script_shape():
    s = AffineSet.conjunction(
        ["u_i", "v_i"],
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
    s = AffineSet(("x",), ())  # no disjunct: the empty set
    script = emit_smtlib(s)
    assert "(assert false)" in script


def test_fractional_phases_are_scaled_to_integers():
    k = sym("u_k")
    phi_u = from_sympy(k**2 / 2 + k / 2)
    phi_v = from_sympy(sym("v_k"))
    s = AffineSet.conjunction(["u_k", "v_k"], [])
    script = emit_smtlib(s, phi_u, phi_v)
    assert "/" not in script  # SMT integers only; the equality was scaled


def test_corpus_scripts_parse_roundtrip_names():
    p = load("qr")
    from clockrace import analyze

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
    script = Script(_smt_script(cand))
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
