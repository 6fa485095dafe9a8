import itertools

import pytest

from clockrace import (
    QuasiPoly,
    analyze,
    counting_nest,
    explore,
    parse_poly,
    print_program,
    race_test,
    race_tests_all_orthants,
    validate_clock_rules,
)
from clockrace import parse

from conftest import advance_count


# ---------------------------------------------------------------------------
# Polynomial parsing


def test_parse_poly_basic():
    spec = parse_poly("x^2 + x*y + y^2")
    assert spec.variables == ("x", "y")
    assert spec.evaluate({"x": 2, "y": 3}) == 4 + 6 + 9
    assert all(c > 0 for _, c in spec.terms)


def test_parse_poly_signs_and_constants():
    spec = parse_poly("3*x - 2")
    assert spec.evaluate({"x": 5}) == 13
    assert sorted(c for _, c in spec.terms) == [-2, 3]
    assert parse_poly("7").evaluate({}) == 7


def test_parse_poly_blank_and_spaced():
    assert parse_poly("") == QuasiPoly.zero()
    assert parse_poly(" x ^ 2 ") == QuasiPoly.var("x") ** 2
    assert parse_poly("x // comment\n+ 1") == parse_poly("x+1")


@pytest.mark.parametrize(
    "bad", ["x^", "x^y", "^2", "* x", "x +", "x y", "x $", "(x)", "x*-y"]
)
def test_parse_poly_errors(bad):
    with pytest.raises(ValueError):
        parse_poly(bad)


# ---------------------------------------------------------------------------
# Counting nests


def test_counting_nest_is_valid_and_reparses():
    p = counting_nest(parse_poly("x^2+x*y+y^2"))
    assert validate_clock_rules(p) == []
    assert print_program(parse(print_program(p))) == print_program(p)


@pytest.mark.parametrize("poly", ["x^2+x*y+y^2", "x^3", "2*x+5", "0", "c0^2"])
def test_counting_nest_counts_exactly(poly):
    spec = parse_poly(poly)
    p = counting_nest(spec)
    points = itertools.product(range(4), repeat=len(spec.variables))
    for point in points:
        env = dict(zip(spec.variables, point))
        assert advance_count(p, env) == spec.evaluate(env), env


def test_counting_nest_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        counting_nest(parse_poly("x - 1"))


# Its variables become parameters, which may not use the analysis' prefixes
# nor be keywords.
RESERVED_VARIABLES = {
    "u_x^2+1": "variable 'u_x' uses a reserved prefix",
    "x*v_y": "variable 'v_y' uses a reserved prefix",
    "a_0+2": "variable 'a_0' uses a reserved prefix",
    "advance": "variable 'advance' is a keyword",
    "x*finish+1": "variable 'finish' is a keyword",
}


@pytest.mark.parametrize("poly", list(RESERVED_VARIABLES))
def test_counting_nest_rejects_reserved_variables(poly):
    with pytest.raises(ValueError, match=RESERVED_VARIABLES[poly]):
        counting_nest(parse_poly(poly))


def test_counting_nest_runs_to_completion():
    p = counting_nest(parse_poly("x^2"))
    res = explore(p, {"x": 3})
    assert res.terminated and res.trace_count == 1  # a straight line


def test_counting_nest_is_linear_in_the_degree():
    # the 8th difference of x^8 is the constant 8! = 40 320, emitted as one
    # loop of advances rather than as 40 320 statements
    assert len(print_program(counting_nest(parse_poly("x^8")))) == 1_622
    spec = parse_poly("x^4+3")
    p = counting_nest(spec)
    for x in range(4):
        res = explore(p, {"x": x})
        fired = sum(inst[0] == "advance" for inst in res.phases)
        assert res.terminated and fired == spec.evaluate({"x": x})


# ---------------------------------------------------------------------------
# Race reductions


def test_race_test_witness_when_zeros_exist():
    t = race_test(parse_poly("x"), parse_poly("y"))
    assert validate_clock_rules(t.program) == []
    a = analyze(t.program, bound=2)
    assert a.verdict == "PotentialRaces"
    ((cand, v),) = a.candidates
    assert cand.kind == "read-write"
    assert v.status == "witness" and v.confirmed
    # the witness encodes an equal-phase point: P1(x) = P2(y)
    assert v.witness["u_x"] == v.witness["v_y"]


def test_race_test_race_free_when_no_zeros():
    t = race_test(parse_poly("x + 1"), parse_poly("0"))
    a = analyze(t.program, bound=2)
    assert a.verdict == "RaceFree"


@pytest.mark.parametrize("p1, p2, keyword", [("for", "2", "for"), ("x", "async^2", "async")])
def test_race_test_rejects_keyword_variables(p1, p2, keyword):
    # a variable becomes a loop iterator, which may not be a keyword
    for build in (race_test, race_tests_all_orthants):
        with pytest.raises(ValueError, match=f"variable '{keyword}' is a keyword"):
            build(parse_poly(p1), parse_poly(p2))


def test_race_test_dynamic_cross_check():
    t = race_test(parse_poly("2*x"), parse_poly("3"))  # 2x = 3: no zeros
    res = explore(t.program, {"m_x": 3})
    assert res.terminated and res.races == []
    t2 = race_test(parse_poly("2*x"), parse_poly("4"))  # x = 2
    res2 = explore(t2.program, {"m_x": 3})
    assert res2.races


# Polynomials whose variables take a name that a generator picks for
# something else when it is free: a counting nest's first iterator c0, a
# race test's scalar u, and the box parameter m_x of x.
NAME_CLASHES = {
    "c0^2": lambda: counting_nest(parse_poly("c0^2")),
    "u^2 = 4": lambda: race_test(parse_poly("u^2"), parse_poly("4")).program,
    "x + m_x = 3": lambda: race_test(parse_poly("x+m_x"), parse_poly("3")).program,
}


@pytest.mark.parametrize("build", NAME_CLASHES.values(), ids=list(NAME_CLASHES))
def test_generated_names_skip_the_variables(build):
    text = print_program(build())
    p = parse(text)
    assert print_program(p) == text
    assert validate_clock_rules(p) == []


def test_race_test_box_parameter_skips_the_variables():
    # x + m_x = 3 with m_x = 0: x's own box bound m_x0 decides whether x = 3 is reached
    p = NAME_CLASHES["x + m_x = 3"]()
    assert [bool(explore(p, {"m_m_x": 0, "m_x0": m}).races) for m in (2, 3)] == [False, True]


def test_all_orthants_find_negative_roots():
    # x^2 = 4 has roots +2 and -2; the positive-orthant test and the
    # negative-orthant test must both produce witnesses
    tests = race_tests_all_orthants(parse_poly("x^2"), parse_poly("4"))
    assert len(tests) == 2
    roots = set()
    for t in tests:
        a = analyze(t.program, bound=3)
        if a.verdict == "PotentialRaces":
            ((_, v),) = a.candidates
            sign = dict(t.signs)["x"]
            roots.add(sign * v.witness["u_x"])
    assert roots == {2, -2}


def test_all_orthants_keep_a_variable_that_cancels():
    # x+1 - x has no x, yet each orthant's program still loops over x
    tests = race_tests_all_orthants(parse_poly("x+1"), parse_poly("x"))
    assert [t.signs for t in tests] == [(("x", 1),), (("x", -1),)]
    for t in tests:
        assert [n for n, _ in t.program.params] == ["m_x"]
        assert analyze(t.program, bound=2).verdict == "RaceFree"


def test_all_orthants_no_roots():
    # x^2 + 1 = 0 has no integer roots anywhere; the phase difference is
    # nonlinear, so without a solver the analyzer stays honestly Unknown
    # and the bounded search must not fabricate a witness
    for t in race_tests_all_orthants(parse_poly("x^2"), parse_poly("-1")):
        a = analyze(t.program, bound=2)
        assert a.verdict == "Unknown"
        assert all(v.status != "witness" for _, v in a.candidates)
        # a stubbed solver answering unsat resolves it through tier 2
        assert analyze(t.program, solver_cmd="echo unsat").verdict == "RaceFree"
        res = explore(t.program, {"m_x": 3})
        assert res.terminated and res.races == []
