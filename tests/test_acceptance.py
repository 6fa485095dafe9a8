"""Acceptance gate: one test (and one printed PASS/FAIL line) per exit
criterion.  Run with ``pytest -v tests/test_acceptance.py`` or ``-s`` to
see the summary lines."""

import itertools
import shutil
import time

import pytest
import sympy

from clockrace import analyze, explore, parse, phi
from clockrace.generators import counting_nest, parse_poly
from clockrace.interp import instantiate, term_instances
from clockrace.phi import Counting

import fuzzgen
from conftest import advance_count, load
from oracles import count_concrete, dynamic_phi
from sympy_oracle import same_poly, sym


def conclude(criterion: int, ok: bool, detail: str):
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. Jacobi: 4 candidates, exact phases, all affine race-free, < 5 s


def test_criterion_1_jacobi():
    p = load("jacobi")
    t0 = time.monotonic()
    a = analyze(p)
    elapsed = time.monotonic() - t0
    described = {c.describe(p) for c, _ in a.candidates}
    expected_pairs = {
        "S0:B[i] vs S1:B[i-1] [read-write]",
        "S0:B[i] vs S1:B[i+1] [read-write]",
        "S1:A[i] vs S0:A[i-1] [read-write]",
        "S1:A[i] vs S0:A[i+1] [read-write]",
    }
    s0, s1 = (s.node_id for s in p.basic_statements())
    ok = (
        len(a.candidates) == 4
        and described == expected_pairs
        and same_poly(phi(Counting(p), 0, s0, "u_"), 2 * sym("u_t"))
        and same_poly(phi(Counting(p), 0, s1, "u_"), 2 * sym("u_t") + 1)
        and all(v.status == "race-free" and v.method == "affine" for _, v in a.candidates)
        and elapsed < 5.0
    )
    conclude(1, ok, f"4 candidates, phi=2t/2t+1, RaceFree(affine) in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Gauss-Seidel: 2 candidates, phi = 2t + i, parity disproof


def test_criterion_2_gauss_seidel():
    p = load("gauss_seidel")
    a = analyze(p)
    (s0,) = (s.node_id for s in p.basic_statements())
    ok = (
        len(a.candidates) == 2
        and same_poly(phi(Counting(p), 0, s0, "u_"), 2 * sym("u_t") + sym("u_i"))
        and all(v.status == "race-free" and v.method == "affine" for _, v in a.candidates)
    )
    conclude(2, ok, "2 candidates, phi=2t+i, both RaceFree(affine)")


# ---------------------------------------------------------------------------
# 3. QR: 8 candidates, exact nonlinear phase, solver vs bounded branches


def _external_solver():
    for name in ("z3", "cvc5", "cvc4"):
        path = shutil.which(name)
        if path:
            return f"{path} -in" if name == "z3" else f"{path} --lang smt2"
    return None


def test_criterion_3_qr():
    p = load("qr")
    N, k, i = sym("N"), sym("u_k"), sym("u_i")
    expected = N * k + i - sympy.Rational(1, 2) * k**2 - sympy.Rational(1, 2) * k
    phis_ok = all(
        same_poly(phi(Counting(p), 0, s.node_id, "u_"), expected) for s in p.basic_statements()
    )

    without = analyze(p, bound=8)
    without_ok = len(without.candidates) == 8 and all(
        v.status == "unknown" and v.method == "bounded" and v.bound == 8
        and v.witness is None
        for _, v in without.candidates
    )

    solver = _external_solver()
    solver_cmd = solver or "echo unsat"
    with_solver = analyze(p, solver_cmd=solver_cmd)
    with_ok = len(with_solver.candidates) == 8 and all(
        v.status == "race-free" and v.method == "smt" for _, v in with_solver.candidates
    )
    label = solver if solver else "stub 'echo unsat' (no solver installed)"
    conclude(
        3,
        phis_ok and without_ok and with_ok,
        f"8 candidates, phi=Nk+i-k^2/2-k/2; UnknownBounded(8) without solver, "
        f"RaceFree(SMT) with {label}",
    )


# ---------------------------------------------------------------------------
# 4. Counting nests: advance count equals Q(x, y) on [0, 6]^2


def test_criterion_4_counting_nest():
    spec = parse_poly("x^2+x*y+y^2")
    p = counting_nest(spec)
    checked = 0
    for x, y in itertools.product(range(7), repeat=2):
        env = {"x": x, "y": y}
        if advance_count(p, env) != spec.evaluate(env):
            conclude(4, False, f"mismatch at {env}")
        checked += 1
    conclude(4, checked == 49, f"advance count == x^2+xy+y^2 on all {checked} points")


# ---------------------------------------------------------------------------
# 5 & 7 share one fuzz run


@pytest.fixture(scope="module")
def fuzz_run():
    return fuzzgen.run_soundness_suite(count=200, seed=0)


def test_criterion_5_oracle_soundness(fuzz_run):
    stats, errors = fuzz_run
    for k, source, errs in errors:
        print(f"violation in fuzz program {k}:\n{source}\n{errs}")
    conclude(
        5,
        stats["programs"] >= 200 and not errors and stats["spurious_points"] == 0,
        f"{stats['programs']} fuzzed programs, "
        f"{stats['with_candidates']} with candidates, "
        f"{stats['with_witnesses']} with confirmed witnesses, 0 violations, "
        f"{stats['spurious_points']} static race points that are no dynamic race",
    )


# ---------------------------------------------------------------------------
# 6. phi matches enumeration and dynamic phases on the corpus


CORPUS_WITH_CLOCKS = [
    "jacobi",
    "gauss_seidel",
    "qr",
    "fig1a",
    "fig1b",
    "sor",
    "moldyn",
    "lufact",
]


def _param_grid(p, hi=3):
    values = [range(max(lb, 1), hi + 1) for _, lb in p.params]
    return [dict(zip(p.param_names(), combo)) for combo in itertools.product(*values)]


def test_criterion_6_phi_validation():
    total_points = 0
    for name in CORPUS_WITH_CLOCKS:
        p = load(name)
        # wider parameters for the enumeration cross-check so that sparse
        # domains (the guarded QR nest) still contribute >= 20 points
        enum_grid = _param_grid(p, hi=4)
        for stmt in p.basic_statements():
            q = phi(Counting(p), 0, stmt.node_id, "v_")
            assert q is not None, (name, stmt.name)
            points_checked = 0
            for params in enum_grid:
                points = [
                    dict(env)
                    for _, node_id, env in term_instances(instantiate(p, params))
                    if node_id == stmt.node_id
                ]
                for point in points:
                    expected = count_concrete(p, 0, stmt.node_id, point, params)
                    env = {("v_" + k): x for k, x in point.items()}
                    env.update(params)
                    if q.evaluate(env) != expected:
                        conclude(6, False, f"{name}/{stmt.name}: enum mismatch at {point} {params}")
                    points_checked += 1
            if points_checked < 20:
                conclude(6, False, f"{name}/{stmt.name}: only {points_checked} points in domain")
            total_points += points_checked
        # dynamic phases, at interpreter-sized parameters
        for params in _param_grid(p):
            res = explore(p, params)
            assert res.terminated
            for inst in res.instances:
                if inst[0] != "basic":
                    continue
                qq = phi(Counting(p), 0, inst[1], "u_")
                env = {("u_" + k): x for k, x in inst[2]}
                env.update(params)
                if qq.evaluate(env) != dynamic_phi(res, inst, (0, ())):
                    conclude(6, False, f"{name}: phase mismatch at {inst} {params}")
    conclude(6, True, f"phi == enumeration on {total_points} points and == phases on all instances")


# ---------------------------------------------------------------------------
# 7. Deadlock freedom


def test_criterion_7_deadlock_freedom(fuzz_run):
    stats, errors = fuzz_run
    fuzz_ok = not any(
        "deadlock" in e or "state limit" in e for _, _, errs in errors for e in errs
    )
    corpus_ok = True
    for name in CORPUS_WITH_CLOCKS:
        p = load(name)
        for params in _param_grid(p):
            res = explore(p, params)
            corpus_ok &= res.terminated and not res.incomplete
    conclude(
        7,
        fuzz_ok and corpus_ok,
        f"all corpus runs and {stats['programs']} fuzzed programs terminate",
    )


# ---------------------------------------------------------------------------
# 8. Negative control


def test_criterion_8_negative_control():
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
    hits = [v for _, v in a.candidates if v.status == "witness"]
    res = explore(p, {"N": 3, "T": 1})
    ok = (
        a.verdict == "PotentialRaces"
        and hits
        and all(v.confirmed for v in hits)
        and bool(res.races)
    )
    conclude(8, ok, f"{len(hits)} confirmed witnesses; dynamic race at N=3, T=1")


# ---------------------------------------------------------------------------
# 9. Reconstructed analogues are race-free (counts not asserted)


def test_criterion_9_reconstructed_analogues():
    ok = True
    details = []
    for name in ("sor", "moldyn", "lufact"):
        p = load(name)
        a = analyze(p)
        params = _param_grid(p)[-1]
        res = explore(p, params)
        ok &= a.verdict == "RaceFree" and res.terminated and not res.races
        details.append(f"{name}: {a.verdict}, {len(a.candidates)} candidates")
    conclude(9, ok, "; ".join(details))
