import importlib
import itertools
from fractions import Fraction
from math import comb

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clockrace import (
    QuasiPoly,
    explore,
    parse,
    parse_poly,
    phi,
    race_candidates,
    race_test,
    unordered_disjuncts,
)
from clockrace.affine import AffineSet
from clockrace.generators import counting_nest
from clockrace.interp import instantiate, term_instances
from clockrace.phi import Counting, _bernoulli
from clockrace.smt import emit_smtlib
from clockrace.syntax import AccessRef, AffineExpr, Basic, Program, Seq

from conftest import load, recursion_headroom
from oracles import count_concrete, dynamic_phi
from sympy_oracle import from_sympy, same_poly, sym, to_sympy


# ---------------------------------------------------------------------------
# QuasiPoly basics


def test_quasipoly_round_trip_and_str():
    e = sympy.expand(sym("N") * sym("u_k") - sympy.Rational(1, 2) * sym("u_k") ** 2)
    q = from_sympy(e)
    assert sympy.expand(to_sympy(q) - e) == 0
    assert q.evaluate({"u_k": 3, "N": 5}) == Fraction(21, 2)
    assert not q.is_affine()


def test_quasipoly_affine_conversion():
    q = from_sympy(2 * sym("t") + 1)
    assert q.is_affine()
    a = q.as_affine()
    assert a == AffineExpr.make(1, {"t": 2})
    # half-integer coefficients have no affine form
    h = from_sympy(sym("t") / 2)
    assert h.as_affine() is None


def test_quasipoly_substitute():
    q = from_sympy(sym("x") ** 2 + sym("y"))
    r = q.substitute({"x": AffineExpr.make(1, {"z": 1})})  # x := z + 1
    expected = sympy.expand((sym("z") + 1) ** 2 + sym("y"))
    assert sympy.expand(to_sympy(r) - expected) == 0


def test_scalar_product_commutes():
    # a QuasiPoly is a tuple, so without its own __rmul__ a scalar on the
    # left would repeat the tuple instead of scaling the polynomial
    q = from_sympy(sym("x") ** 2 + 3 * sym("y"))
    assert 2 * q == q * 2 == from_sympy(2 * sym("x") ** 2 + 6 * sym("y"))
    assert Fraction(1, 2) * q == q * Fraction(1, 2)


def from_affine(e):
    """The affine expression as a polynomial."""
    terms = {((v, 1),): c for v, c in e.terms}
    terms[()] = e.const
    return QuasiPoly.from_terms(terms)


def is_canonical(q):
    """Distinct well-formed monomials with nonzero Fraction coefficients, in
    the order ``from_terms`` gives whatever order its input has (the order
    itself is pinned in test_canonical_order_is_pinned)."""
    monomials = [m for m, _ in q.terms]
    return (
        len(set(monomials)) == len(monomials)
        and all(list(m) == sorted(dict(m).items()) and all(e >= 1 for _, e in m) for m in monomials)
        and all(isinstance(c, Fraction) and c != 0 for _, c in q.terms)
        and QuasiPoly.from_terms(dict(reversed(q.terms))).terms == q.terms
    )


def test_quasipoly_constructors():
    assert QuasiPoly.constant(0) == QuasiPoly.zero()
    assert str(QuasiPoly.var("x") * 3 - QuasiPoly.constant(Fraction(1, 2))) == "3*x+(-1/2)"
    a = from_affine(AffineExpr.make(-2, {"N": 1, "i": 3}))
    assert a.as_affine() == AffineExpr.make(-2, {"N": 1, "i": 3})
    assert (a - a) == QuasiPoly.zero()
    assert a.variables == ("N", "i")
    assert a.evaluate({"N": 4, "i": 1}) == 5


# ---------------------------------------------------------------------------
# Native arithmetic against sympy (an independent oracle) and point sums


@pytest.mark.parametrize("degree", range(7))
def test_sum_over_matches_sympy_and_point_sums(degree):
    v, N, M = sym("v"), sym("N"), sym("M")
    integrand = from_sympy(v**degree * (N - 2) + sympy.Rational(1, 3) * v * M + 5)
    lo = AffineExpr.make(-1, {"N": 1, "M": -2})  # N - 2M - 1
    hi = AffineExpr.make(3, {"N": 2})  # 2N + 3
    got = integrand.sum_over("v", lo, hi)
    assert is_canonical(got)
    expected = sympy.summation(to_sympy(integrand), (v, N - 2 * M - 1, 2 * N + 3))
    assert got == from_sympy(expected)
    for n, m in itertools.product(range(-3, 4), range(-2, 3)):
        a, b = lo.evaluate({"N": n, "M": m}), hi.evaluate({"N": n, "M": m})
        if b < a - 1:
            continue  # the closed form counts only non-negative extents
        brute = sum(integrand.evaluate({"v": x, "N": n, "M": m}) for x in range(a, b + 1))
        assert got.evaluate({"N": n, "M": m}) == brute


NAMES = ("x", "y", "z")


monomials = st.dictionaries(st.sampled_from(NAMES), st.integers(1, 3)).map(
    lambda exps: tuple(sorted(exps.items()))
)


def polys():
    fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return st.dictionaries(monomials, fractions, max_size=4).map(QuasiPoly.from_terms)


@st.composite
def affines(draw):
    coeffs = {v: draw(st.integers(-3, 3)) for v in NAMES + ("w",)}
    return AffineExpr.make(draw(st.integers(-4, 4)), coeffs)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.integers(-5, 5))
def test_ring_operations_match_sympy(p, q, k):
    sp, sq = to_sympy(p), to_sympy(q)
    for got, expected in (
        (p + q, sp + sq),
        (p - q, sp - sq),
        (p * q, sp * sq),
        (-p, -sp),
        (p * k, sp * k),
        (p**3, sp**3),
        (k * p, sp * k),
    ):
        assert is_canonical(got)
        assert sympy.expand(to_sympy(got) - expected) == 0


@settings(max_examples=60, deadline=None)
@given(polys(), st.sampled_from(NAMES), affines(), st.sampled_from(NAMES), affines())
def test_substitute_matches_sympy(p, v1, e1, v2, e2):
    env = {v1: e1, v2: e2}
    got = p.substitute(env)
    assert is_canonical(got)
    # simultaneous: the replacement for one variable is not substituted into
    expected = to_sympy(p).xreplace(
        {sym(v): to_sympy(from_affine(e)) for v, e in env.items()}
    )
    assert sympy.expand(to_sympy(got) - expected) == 0


@settings(max_examples=60, deadline=None)
@given(polys(), st.lists(monomials, max_size=3), st.randoms(use_true_random=False))
def test_from_terms_is_canonical(p, zero_monomials, rng):
    """The pairs, their order, hash and text do not depend on the order of
    the input or on zero terms, which may name variables that do not occur."""
    items = list(p.terms) + [(m, 0) for m in zero_monomials if m not in dict(p.terms)]
    rng.shuffle(items)
    q = QuasiPoly.from_terms(dict(items))
    assert q == p and hash(q) == hash(p) and str(q) == str(p)
    assert p - p == QuasiPoly.zero()
    assert p.variables == tuple(sorted({v for m, _ in p.terms for v, _ in m}))


def test_canonical_order_is_pinned():
    """Monomials sort by their exponent vectors over the sorted variables
    (here (x, y)); the text puts higher total degree first and the SMT term
    keeps the canonical order."""
    q = parse_poly("3*x^2+3*x*y+y^2+y+2")
    assert [m for m, _ in q.terms] == [
        (), (("y", 1),), (("y", 2),), (("x", 1), ("y", 1)), (("x", 2),)
    ]
    assert str(q) == "y^2+3*x*y+3*x^2+y+2"
    script = emit_smtlib(AffineSet.conjunction([]), q, QuasiPoly.zero())
    assert "(assert (= (- (+ 2 y (* y y) (* 3 x y) (* 3 x x)) 0) 0))\n" in script


# ---------------------------------------------------------------------------
# sum_over against the per-power reference it replaced


def reference_faulhaber(e, n):
    """``F_e(n) = sum_{v=1}^{n} v^e`` by Horner's rule on whole polynomials."""
    out = QuasiPoly.zero()
    for j in range(e + 2):
        coeff = comb(e + 1, j) * _bernoulli(j) / (e + 1) if j <= e else 0
        out = out * n + QuasiPoly.constant(coeff)
    return out


def reference_sum_over(q, var, lo, hi):
    """One Faulhaber difference per power of var, times its coefficient."""
    by_power = {}
    for m, c in q.terms:
        rest = tuple(x for x in m if x[0] != var)
        by_power.setdefault(dict(m).get(var, 0), {})[rest] = c
    upper = from_affine(hi)
    below = from_affine(lo.shift(-1))
    total = QuasiPoly.zero()
    for e, rest in by_power.items():
        power_sum = reference_faulhaber(e, upper) - reference_faulhaber(e, below)
        total += QuasiPoly.from_terms(rest) * power_sum
    return total


@st.composite
def sum_cases(draw):
    """An integrand of total degree <= 6 in x, y, z, a summation variable
    and affine bounds over the other variables (and w)."""
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        budget, mono = 6, []
        for v in NAMES:
            e = draw(st.integers(0, budget))
            budget -= e
            if e:
                mono.append((v, e))
        terms[tuple(mono)] = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
    var = draw(st.sampled_from(NAMES))
    lo, hi = (
        AffineExpr.make(
            draw(st.integers(-4, 4)),
            {v: draw(st.integers(-3, 3)) for v in NAMES + ("w",) if v != var},
        )
        for _ in range(2)
    )
    return QuasiPoly.from_terms(terms), var, lo, hi


LO = AffineExpr.make(-1, {"y": 2, "w": -1})
HI = AffineExpr.make(3, {"z": 1})


@settings(max_examples=150, deadline=None)
@given(sum_cases())
@example((QuasiPoly.zero(), "x", LO, HI))
@example((QuasiPoly.constant(Fraction(-5, 2)), "x", LO, HI))
@example((QuasiPoly.var("y") ** 3 * QuasiPoly.var("z"), "x", LO, HI))
@example((QuasiPoly.var("x") ** 6, "x", LO, HI))
def test_sum_over_matches_per_power_reference(case):
    q, var, lo, hi = case
    got = q.sum_over(var, lo, hi)
    assert is_canonical(got)
    assert got == reference_sum_over(q, var, lo, hi)


# ---------------------------------------------------------------------------
# Exact corpus phase polynomials (closed forms frozen here, cross-checked
# against enumeration and the interpreter below)


def corpus_phis(name):
    p = load(name)
    return p, [phi(Counting(p), 0, s.node_id, "u_") for s in p.basic_statements()]


def assert_poly(q, expected):
    assert same_poly(q, expected)


def test_phi_jacobi():
    _, (s0, s1) = corpus_phis("jacobi")
    t = sym("u_t")
    assert_poly(s0, 2 * t)
    assert_poly(s1, 2 * t + 1)


def test_phi_gauss_seidel():
    _, (s0,) = corpus_phis("gauss_seidel")
    assert_poly(s0, 2 * sym("u_t") + sym("u_i"))


def test_phi_qr():
    _, (s0, s1) = corpus_phis("qr")
    N, k, i = sym("N"), sym("u_k"), sym("u_i")
    expected = N * k + i - sympy.Rational(1, 2) * k**2 - sympy.Rational(1, 2) * k
    assert_poly(s0, expected)
    assert_poly(s1, expected)


def test_phi_fig1():
    pa = load("fig1a")
    pb = load("fig1b")
    i, j = sym("u_i"), sym("u_j")
    # fig1a: only the activity's own j - i + 1 advances are ordered before
    # S0(i, j).  fig1b adds the primary's i - 1 skewing advances from the
    # spawns that happened before activity i, for a total of j.
    assert_poly(phi(Counting(pa), 0, pa.basic_statements()[0].node_id, "u_"), j - i + 1)
    assert_poly(phi(Counting(pb), 0, pb.basic_statements()[0].node_id, "u_"), j)


def test_phi_sor_and_moldyn_and_lufact():
    _, (red, black) = corpus_phis("sor")
    assert_poly(red, 2 * sym("u_t"))
    assert_poly(black, 2 * sym("u_t") + 1)
    _, (zero, acc, move) = corpus_phis("moldyn")
    assert_poly(zero, 2 * sym("u_t"))
    assert_poly(acc, 2 * sym("u_t"))
    assert_poly(move, 2 * sym("u_t") + 1)
    _, (elim,) = corpus_phis("lufact")
    assert_poly(elim, sym("u_k"))


# ---------------------------------------------------------------------------
# phi vs exhaustive enumeration (count_concrete)


def in_domain_points(p, stmt_id, params):
    return [
        dict(env)
        for _, node_id, env in term_instances(instantiate(p, params))
        if node_id == stmt_id
    ]


@pytest.mark.parametrize(
    "name, params_list",
    [
        ("jacobi", [{"N": 2, "T": 0}, {"N": 3, "T": 2}, {"N": 5, "T": 3}]),
        ("gauss_seidel", [{"N": 2, "T": 0}, {"N": 4, "T": 2}]),
        ("qr", [{"N": 2}, {"N": 3}, {"N": 5}]),
        ("lufact", [{"N": 2}, {"N": 4}]),
    ],
)
def test_phi_matches_enumeration(name, params_list):
    p = load(name)
    for stmt in p.basic_statements():
        q = phi(Counting(p), 0, stmt.node_id, "v_")
        assert q is not None
        for params in params_list:
            for point in in_domain_points(p, stmt.node_id, params):
                expected = count_concrete(p, 0, stmt.node_id, point, params)
                env = {("v_" + k): x for k, x in point.items()}
                env.update(params)
                assert q.evaluate(env) == expected, (name, point, params)


# ---------------------------------------------------------------------------
# phi vs interpreter clock phases


PHASE_CASES = [
    ("jacobi", {"N": 3, "T": 1}),
    ("gauss_seidel", {"N": 3, "T": 1}),
    ("qr", {"N": 3}),
    ("fig1b", {"N": 3}),
    ("sor", {"M": 2, "T": 1}),
    ("lufact", {"N": 3}),
]


@pytest.mark.parametrize("name, params", PHASE_CASES)
def test_phi_matches_dynamic_phase(name, params):
    p = load(name)
    res = explore(p, params)
    assert res.terminated
    clock = (0, ())
    polys = {s.node_id: phi(Counting(p), 0, s.node_id, "u_") for s in p.basic_statements()}
    checked = 0
    for inst in res.instances:
        if inst[0] != "basic":
            continue
        env = {("u_" + k): x for k, x in inst[2]}
        env.update(params)
        assert polys[inst[1]].evaluate(env) == dynamic_phi(res, inst, clock)
        checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# Failure modes stay conservative


def test_phi_none_on_non_unit_bounds():
    p = parse(
        "param N >= 1;\n"
        "clocked finish { for (i=0:N) { if (2*i <= N) { advance; } } S0(); }\n"
    )
    stmt = p.basic_statements()[0]
    assert phi(Counting(p), 0, stmt.node_id, "u_") is None


def test_phi_zero_when_no_advances():
    # in the second program no N runs both the advance (N >= 10) and S0
    # (N <= 5): the advance's guard is left after summing, implied by
    # nothing but empty under S0's domain, so the count is 0, not unavailable
    for body in ("S0();", "clocked async { if (N >= 10) { advance; } if (N <= 5) { S0(); } }"):
        p = parse(f"param N >= 1;\nclocked finish {{ {body} }}\n")
        stmt = p.basic_statements()[0]
        q = phi(Counting(p), 0, stmt.node_id, "u_")
        assert q is not None and sympy.expand(to_sympy(q)) == 0, body


@pytest.mark.parametrize("source, expected", [
    # S0 runs before every advance, so its phase is 0.
    ("clocked finish { for (i = 0 : N) { S0(); } for (j = 0 : M) { advance; } }", "0"),
    # Every advance runs before S0, whatever its iterator.
    ("clocked finish { for (j = 0 : N) { advance; } for (i = 0 : M) { S0(); } }", "N+1"),
])
def test_phi_lists_every_iterator_and_parameter(source, expected):
    """The variables are the statement's prefixed iterators and the
    parameters that occur in the polynomial: here M and u_i never do."""
    p = parse("param N >= 1;\nparam M >= 0;\n" + source + "\n")
    stmt = p.basic_statements()[0]
    q = phi(Counting(p), 0, stmt.node_id, "u_")
    assert str(q) == expected
    assert q.variables == {"0": (), "N+1": ("N",)}[expected]


def test_sum_over_of_zero_is_zero():
    lo, hi = AffineExpr.var("i"), AffineExpr.var("N")
    assert QuasiPoly.zero().sum_over("v", lo, hi) == QuasiPoly.zero()


@pytest.mark.parametrize("body", [
    "for (j = i + 1 : i) { advance; }",
    "for (j = 0 : i) { if (j >= i + 1) advance; }",
])
def test_phi_zero_when_inner_range_is_empty(body):
    """The inner count is 0 for every i, so the outer sum runs over 0."""
    p = parse(
        "param N >= 1;\n"
        f"clocked finish {{ for (i = 1 : N) {{ {body} }} S0(); }}\n"
    )
    stmt = p.basic_statements()[0]
    q = phi(Counting(p), 0, stmt.node_id, "u_")
    assert q is not None and str(q) == "0"


# ---------------------------------------------------------------------------
# Each distinct subproblem is counted once per phase function


def record_counting(monkeypatch):
    """The list that every later ``QuasiPoly.sum_over`` and ``phi``-module
    ``is_empty`` call appends its name and arguments to."""
    phi_module = importlib.import_module("clockrace.phi")
    calls = []
    sum_over, is_empty = QuasiPoly.sum_over, phi_module.is_empty

    def recorded_sum_over(q, var, lo, hi):
        calls.append(("sum_over", q, var, lo, hi))
        return sum_over(q, var, lo, hi)

    def recorded_is_empty(s):
        calls.append(("is_empty", s))
        return is_empty(s)

    monkeypatch.setattr(QuasiPoly, "sum_over", recorded_sum_over)
    monkeypatch.setattr(phi_module, "is_empty", recorded_is_empty)
    return calls


def test_phi_counts_each_subproblem_once(monkeypatch):
    """One phi call sums and proves each distinct subproblem once, and the
    next call keeps nothing from it: it makes the same calls again."""
    p = race_test(
        parse_poly("3*x^2+3*x*y+y^2+y+2"), parse_poly("3*x^2+3*x*y+x+y^2+2*y+1")
    ).program
    writer, reader = p.basic_statements()
    [(reduction, _)] = unordered_disjuncts(p, writer.node_id, reader.node_id)
    calls = record_counting(monkeypatch)
    first = phi(Counting(p), reduction.finish_id, reduction.rep_u, "u_")
    once = list(calls)
    assert first is not None
    assert {c[0] for c in once} == {"sum_over", "is_empty"}
    assert len(set(once)) == len(once)
    assert phi(Counting(p), reduction.finish_id, reduction.rep_u, "u_") == first
    assert calls[len(once):] == once


def test_race_candidates_counts_each_subproblem_once(monkeypatch):
    """The phi calls of one race_candidates run share one counting context:
    the two representatives of a clock count the same advances, yet each
    distinct summation and emptiness proof is made once per run.  The next
    run keeps nothing from it: it makes the same calls again."""
    p = race_test(
        parse_poly("3*x^2+3*x*y+x+y^2+2*y+1"), parse_poly("3*x^2+3*x*y+y^2+y+2")
    ).program
    calls = record_counting(monkeypatch)
    [cand] = race_candidates(p)
    once = list(calls)
    assert cand.phi_u is not None and cand.phi_v is not None
    assert len(set(once)) == len(once)
    # 62 and 128 when each phi call counted on its own
    assert [c[0] for c in once].count("is_empty") == 34
    assert [c[0] for c in once].count("sum_over") == 68
    race_candidates(p)
    assert calls[len(once):] == once


# Two statements in one loop body that differ only by a guard.  The advance
# loop's upper bounds on a_t are N - 2 and u_t - 1 (the advance comes after
# the statement); only the guard u_t <= N - 1 proves the second the least.
GUARDED = parse(
    "param N >= 2;\narray A[1];\n"
    "clocked finish { clocked async { for (t = 0 : N) {\n"
    "  if (N - 1 >= t) A[0] = F();\n"
    "  A[0] = G();\n"
    "  if (N - 2 >= t) advance;\n"
    "} } }\n"
)


def test_shared_counting_keeps_each_statements_domain():
    """A count depends on the statement domain it is proved under: on a
    shared context, the proofs made for the guarded statement do not answer
    the unguarded one's, and a failed count fails again."""
    guarded, plain = GUARDED.basic_statements()
    counting = Counting(GUARDED)
    assert phi(counting, 0, guarded.node_id, "u_") == QuasiPoly.var("u_t")
    assert phi(counting, 0, plain.node_id, "u_") is None
    assert phi(counting, 0, plain.node_id, "u_") is None
    assert phi(Counting(GUARDED), 0, plain.node_id) is None


# ---------------------------------------------------------------------------
# Counting is a loop over the nest


# counting_nest(P), then a write of a scalar in the same clocked finish: every
# advance comes before the write, so its phase is P.  Each polynomial's nest
# depth is given; the corpus and the fuzzer reach 3.
COUNTING_NESTS = {"x^2+x*y+y^2": 3, "x^3": 4, "x^6": 7, "x^3*y^2+2*x+5": 6, "x^8": 9}


@pytest.mark.parametrize("poly", COUNTING_NESTS)
def test_phase_after_a_counting_nest_is_its_polynomial(poly):
    spec = parse_poly(poly)
    nest = counting_nest(spec)
    write = Basic(name="f", write=AccessRef("s", (), "write"))
    root = nest.root._replace(body=Seq(body=nest.root.body.body + (write,)))
    p = Program(root, nest.params, (("s", 0),))
    depths = [len(p.enclosing_iterators(a.node_id)) for a in p.advance_statements()]
    assert max(depths) == COUNTING_NESTS[poly]
    (stmt,) = p.basic_statements()
    assert phi(Counting(p), 0, stmt.node_id, "u_") == spec


def test_phi_counts_a_deep_nest_in_bounded_stack():
    """Counting takes the same frames at any nest depth: 60 loops fit in a
    hundred frames more than the caller's."""
    loops = "".join(f"for (i{k} = 0 : N) " for k in range(60))
    p = parse(
        "param N >= 1;\narray A[1];\n"
        f"clocked finish {{ {loops}clocked async {{ advance; A[0] = f(); }} }}\n"
    )
    (stmt,) = p.basic_statements()
    with recursion_headroom(100):
        q = phi(Counting(p), 0, stmt.node_id, "u_")
    assert q == QuasiPoly.constant(1)
