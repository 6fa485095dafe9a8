import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clockrace import AffineSet, eq, ge, is_empty
from clockrace import affine
from clockrace.affine import is_empty_with_witness
from clockrace.syntax import AffineExpr

from conftest import recursion_headroom


def expr(const=0, **coeffs):
    return AffineExpr.make(const, coeffs)


def conj(*constraints):
    return AffineSet.conjunction(constraints)


def union(a, b):
    return AffineSet(a.disjuncts + b.disjuncts, a.context)


def with_context(s, context):
    return AffineSet(s.disjuncts, tuple(context))


def enumerate_points(s, box):
    """All integer points of the set within the box, in lexicographic order;
    the context is ignored."""
    return [
        point
        for point in itertools.product(*(range(box[v][0], box[v][1] + 1) for v in s.variables))
        if s.contains(dict(zip(s.variables, point)))
    ]


# ---------------------------------------------------------------------------
# Direct emptiness facts


def test_interval():
    s = conj(ge(expr(0, x=1)), ge(expr(5, x=-1)))  # 0 <= x <= 5
    empty, witness = is_empty_with_witness(s)
    assert empty is False
    assert s.contains(witness)


def test_contradictory_interval():
    s = conj(ge(expr(-1, x=1)), ge(expr(0, x=-1)))  # x >= 1 and x <= 0
    assert is_empty(s) is True


def test_parity_gap():
    # 2x = 2y + 1 has no integer solution
    s = conj(eq(expr(-1, x=2, y=-2)))
    assert is_empty(s) is True


def test_gcd_tightening():
    # 1 <= 3x <= 2 has no integer solution but is rationally feasible
    s = conj(ge(expr(-1, x=3)), ge(expr(2, x=-3)))
    assert is_empty(s) is True


def test_bezout_equality():
    assert is_empty(conj(eq(expr(-1, x=6, y=10)))) is True
    s = conj(eq(expr(-2, x=6, y=10)))
    empty, witness = is_empty_with_witness(s)
    assert empty is False
    assert 6 * witness["x"] + 10 * witness["y"] == 2


def test_union_and_context():
    a = conj(eq(expr(-1, x=2)))  # 2x = 1, empty
    b = conj(eq(expr(-4, x=2)))  # x = 2
    u = with_context(union(a, b), [ge(expr(0, x=1))])
    empty, witness = is_empty_with_witness(u)
    assert empty is False
    assert witness["x"] == 2
    bounded = with_context(b, [ge(expr(-5, x=1))])  # context forces x >= 5
    assert is_empty(bounded) is True


def test_witness_respects_context():
    s = with_context(conj(eq(expr(0, x=1, N=-1))), [ge(expr(-3, N=1))])
    empty, witness = is_empty_with_witness(s)
    assert empty is False
    assert witness["N"] >= 3 and witness["x"] == witness["N"]


def test_variables_are_the_names_that_occur():
    s = with_context(
        union(conj(ge(expr(0, y=1, x=-1))), conj(eq(expr(0, z=2)), ge(expr(1)))),
        [ge(expr(-1, N=1))],
    )
    assert s.variables == ("N", "x", "y", "z")
    assert AffineSet(()).variables == ()


def test_solve_for_a_unit_coefficient():
    e = expr(3, x=1, y=-2)  # x - 2y + 3
    assert e.solve("x") == expr(-3, y=2)
    assert (-e).solve("x") == expr(-3, y=2)
    assert e.solve("y") is None  # coefficient -2
    assert e.solve("z") is None  # absent


# ---------------------------------------------------------------------------
# Enumeration


def test_enumerate_triangle():
    # 0 <= x <= y <= 3
    s = conj(ge(expr(0, x=1)), ge(expr(0, y=1, x=-1)), ge(expr(3, y=-1)))
    pts = enumerate_points(s, {"x": (0, 3), "y": (0, 3)})
    assert len(pts) == 10
    assert pts == sorted(pts)
    assert all(0 <= x <= y <= 3 for x, y in pts)


# ---------------------------------------------------------------------------
# Cross-validation against brute force on boxed random systems


def _random_system(rng, n_vars, n_cons, box=3):
    names = [f"x{i}" for i in range(n_vars)]
    cons = []
    for v in names:  # keep every system bounded so brute force is total
        cons.append(ge(expr(box, **{v: 1})))
        cons.append(ge(expr(box, **{v: -1})))
    for _ in range(n_cons):
        coeffs = {v: rng.randint(-3, 3) for v in rng.sample(names, rng.randint(1, n_vars))}
        c = expr(rng.randint(-4, 4), **{k: v for k, v in coeffs.items() if v})
        cons.append(eq(c) if rng.random() < 0.3 else ge(c))
    return conj(*cons), names, box


def _brute_force(s, names, box):
    def rec(i, env):
        if i == len(names):
            return s.contains(env)
        return any(rec(i + 1, {**env, names[i]: v}) for v in range(-box, box + 1))

    return rec(0, {})


def test_emptiness_matches_brute_force():
    rng = random.Random(20240817)
    for _ in range(100):
        s, names, box = _random_system(rng, rng.randint(1, 3), rng.randint(1, 4))
        empty, witness = is_empty_with_witness(s)
        has_point = _brute_force(s, names, box)
        assert empty is not None, f"undecided on bounded system {s}"
        assert empty == (not has_point), f"wrong emptiness for {s}"
        if not empty:
            assert s.contains(witness), f"bad witness {witness} for {s}"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_emptiness_matches_brute_force_hypothesis(data):
    n_vars = data.draw(st.integers(1, 2))
    names = [f"x{i}" for i in range(n_vars)]
    cons = []
    for v in names:
        cons.append(ge(expr(2, **{v: 1})))
        cons.append(ge(expr(2, **{v: -1})))
    for _ in range(data.draw(st.integers(1, 3))):
        coeffs = {
            v: data.draw(st.integers(-2, 2), label=f"coeff_{v}") for v in names
        }
        coeffs = {k: c for k, c in coeffs.items() if c}
        e = expr(data.draw(st.integers(-3, 3), label="const"), **coeffs)
        cons.append(eq(e) if data.draw(st.booleans(), label="is_eq") else ge(e))
    s = conj(*cons)
    empty, witness = is_empty_with_witness(s)
    assert empty is not None
    assert empty == (not _brute_force(s, names, 2))
    if not empty:
        assert s.contains(witness)


# ---------------------------------------------------------------------------
# Each cap of the decision procedure ends in None, never in a wrong True.
# Every system below is integer-empty; each is built once just inside the
# cap, where the procedure proves it empty, and once just past it.


def odd_gap(*names):
    """2 * (names[0] - sum of the others) = 1, as two inequalities: integer
    empty, rationally feasible, and invisible to equality elimination."""
    e = expr(-1, **{v: 2 if i == 0 else -2 for i, v in enumerate(names)})
    return ge(e), ge(-e)


def box(name, lo, hi):
    return ge(expr(-lo, **{name: 1})), ge(expr(hi, **{name: -1}))


def cap_rows(n):
    """x >= y + i and x <= z - j for i, j in 1..n, and y >= z: eliminating x
    leaves n * n + 1 rows, n * n of them on (y, z) beside y >= z, which are
    rationally infeasible.  No variable has two bounds, so the search cannot
    finish either."""
    return (
        *(ge(expr(-i, x=1, y=-1)) for i in range(1, n + 1)),
        *(ge(expr(-j, x=-1, z=1)) for j in range(1, n + 1)),
        ge(expr(0, y=1, z=-1)),
    )


@pytest.mark.parametrize("n, expected", [(8, True), (64, None), (300, None)])
def test_fm_constraint_cap(n, expected):
    # at n = 300 the step stops at the cap rather than building 90 000
    assert (n * n + 1 > affine._FM_MAX_CONSTRAINTS) == (expected is None)
    assert is_empty(conj(*cap_rows(n))) is expected


@pytest.mark.parametrize("extra, expected", [(1, True), (0, None)])
def test_fm_constraint_cap_is_exact(monkeypatch, extra, expected):
    # n * n + 1 rows live after x: a cap of exactly that many still proves
    # the set empty, one less stops the step
    n = 8
    monkeypatch.setattr(affine, "_FM_MAX_CONSTRAINTS", n * n + extra)
    assert affine._System(cap_rows(n)).fm_infeasible() is expected


def test_fm_cap_holds_after_a_step_that_pairs_nothing(monkeypatch):
    # a >= 0 bounds a on one side only, so its step combines nothing and
    # leaves 4 rows, past a cap of 2; under the default cap, b's step
    # empties the set
    rows = (ge(expr(0, a=1)), *box("b", 1, 0), ge(expr(0, c=1)), ge(expr(0, d=1)))
    assert affine._System(rows).fm_infeasible() is True
    monkeypatch.setattr(affine, "_FM_MAX_CONSTRAINTS", 2)
    assert affine._System(rows).fm_infeasible() is None


def reference_fm_infeasible(rows):
    """The reference for _System.fm_infeasible: the same projection over one
    row list, where each step rescans every live row for the ones that
    mention its variable."""
    cons = [(dict(c), k) for c, k in rows]
    for var in sorted({v for c, _ in cons for v in c}):
        pos = [(c, k) for c, k in cons if c.get(var, 0) > 0]
        neg = [(c, k) for c, k in cons if c.get(var, 0) < 0]
        new = [(c, k) for c, k in cons if c.get(var, 0) == 0]
        for (ca, ka), (cb, kb) in itertools.product(pos, neg):
            fa, fb = -cb[var], ca[var]
            coeffs = {}
            for v in set(ca) | set(cb):
                c = fa * ca.get(v, 0) + fb * cb.get(v, 0)
                if v != var and c:
                    coeffs[v] = c
            const = fa * ka + fb * kb
            if not coeffs:
                if const < 0:
                    return True
                continue
            g = math.gcd(*coeffs.values())
            new.append(({v: c // g for v, c in coeffs.items()}, const // g))
            if len(new) > affine._FM_MAX_CONSTRAINTS:
                return None
        cons = new
        if len(cons) > affine._FM_MAX_CONSTRAINTS:
            return None
    return any(not c and k < 0 for c, k in cons)


@st.composite
def fm_rows(draw):
    """1 to 12 rows over 1 to 5 variables, coefficients -3..3; an empty
    coefficient map is a row without variables."""
    names = [f"x{i}" for i in range(draw(st.integers(1, 5)))]
    row = st.tuples(st.dictionaries(st.sampled_from(names), st.integers(-3, 3)), st.integers(-6, 6))
    return draw(st.lists(row, min_size=1, max_size=12))


@pytest.mark.parametrize("cap", [3, 10, 40, None])
@settings(max_examples=150, deadline=None)
@given(rows=fm_rows())
# at a cap of 10 the cap and a negative constant meet in one step, and the
# order of the rows that step reads decides which comes first
@example(rows=[
    ({"x0": -2, "x1": 3}, -6), ({"x0": 1, "x1": 3}, -1), ({"x0": 2, "x1": -1, "x2": -1}, 5),
    ({"x0": 2, "x2": 1}, -4), ({"x0": -3}, 0), ({"x0": -2, "x1": -2}, 0),
])
def test_fm_matches_the_reference(cap, rows):
    s = affine._System([ge(expr(k, **c)) for c, k in rows])
    before = [(dict(c), k) for c, k in s.ineqs]
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(affine, "_FM_MAX_CONSTRAINTS", cap)
        assert s.fm_infeasible() == reference_fm_infeasible(s.ineqs)
    assert s.ineqs == before  # no row is changed


@pytest.mark.parametrize(
    "cap, expected", [(None, True), (1641, True), (1640, None), (1000, None)]
)
def test_search_node_cap(monkeypatch, cap, expected):
    # (x, y) in a 40 x 40 box, 2z = 2x + 2y + 1: the root, each x and each
    # choice of (x, y) is one search node, 1641 in all, so a cap of exactly
    # 1641 still proves the set empty.  Reaching the real cap takes 200 000
    # nodes, so the past-the-cap cases lower it.
    if cap is not None:
        monkeypatch.setattr(affine, "_SEARCH_MAX_NODES", cap)
    assert (affine._SEARCH_MAX_NODES >= 1641) == (expected is True)
    s = conj(*box("x", 0, 39), *box("y", 0, 39), *odd_gap("z", "x", "y"))
    assert is_empty(s) is expected


def test_search_checks_rows_without_variables():
    # a violated row without variables (one Fourier-Motzkin leaves when it
    # stops at its cap) empties the search, though every other row holds
    s = affine._System([*box("x", 0, 3), ge(expr(-1))])
    assert s.search_witness() == (None, True)


@pytest.mark.parametrize("extra, expected", [(0, True), (1, None)])
def test_search_range_cap(extra, expected):
    width = affine._SEARCH_MAX_RANGE + extra
    s = conj(*box("x", 0, width - 1), *odd_gap("y", "x"))
    assert is_empty(s) is expected


@pytest.mark.parametrize("bounded, expected", [(True, True), (False, None)])
def test_search_fallback_width(bounded, expected):
    # x without an upper bound is searched over a fallback window only
    upper = (ge(expr(affine._FALLBACK_WIDTH, x=-1)),) if bounded else ()
    s = conj(ge(expr(0, x=1)), *upper, *odd_gap("y", "x"))
    assert is_empty(s) is expected


def test_search_takes_the_first_of_equally_tight_variables():
    # x and y both range over 0..3; x comes first, and its values are tried
    # in ascending order, so x = 0 leaves y = 3
    s = conj(*box("x", 0, 3), *box("y", 0, 3), ge(expr(-3, x=1, y=1)))
    assert is_empty_with_witness(s) == (False, {"x": 0, "y": 3})


@pytest.mark.parametrize(
    "constraints, witness",
    [
        # x >= 0 only: the window x in 0..8, and only x = 8 leaves y a value
        ((ge(expr(0, x=1)), ge(expr(0, y=-1)), ge(expr(-8, x=1, y=1))), {"x": 8, "y": 0}),
        # x <= 0 only: the window x in -8..0
        ((ge(expr(0, x=-1)), ge(expr(0, y=1)), ge(expr(8, x=1, y=-1))), {"x": -8, "y": 0}),
        # x unbounded: the window x in -8..8
        ((ge(expr(0, y=1)), ge(expr(8, x=1, y=-1))), {"x": -8, "y": 0}),
    ],
)
def test_search_fallback_windows(constraints, witness):
    # neither variable has both bounds, so x, the first, takes the window
    # beside its bound and y the range that x's value leaves it
    assert affine._FALLBACK_WIDTH == 8
    assert is_empty_with_witness(conj(*constraints)) == (False, witness)


def test_search_depth_is_bounded():
    # x000 <= x001 <= ... <= x299 in 0..5: the search sets one variable per
    # node, 300 deep, within a few frames of its caller
    names = [f"x{k:03}" for k in range(300)]
    rows = [ge(expr(0, **{names[0]: 1})), ge(expr(5, **{names[-1]: -1}))]
    rows += [ge(expr(0, **{b: 1, a: -1})) for a, b in zip(names, names[1:])]
    s = affine._System(rows)
    with recursion_headroom(40):
        witness, complete = s.search_witness()
    assert witness == dict.fromkeys(names, 0)
    assert complete is False


# ---------------------------------------------------------------------------
# Listing the points of a set: the witness search's walk, run to its end


@st.composite
def boxed_systems(draw):
    """Up to 4 random rows, equalities among them, over 1 to 3 variables
    that each lie in a box of width at most 5; the boxes; and a value for
    at most one variable."""
    names = [f"x{i}" for i in range(draw(st.integers(1, 3)))]
    bounds, rows = {}, []
    for v in names:
        lo = draw(st.integers(-3, 2))
        bounds[v] = (lo, lo + draw(st.integers(0, 4)))
        rows += box(v, *bounds[v])
    for _ in range(draw(st.integers(0, 4))):
        coeffs = draw(st.dictionaries(st.sampled_from(names), st.integers(-3, 3), min_size=1))
        e = expr(draw(st.integers(-6, 6)), **{v: c for v, c in coeffs.items() if c})
        rows.append(eq(e) if draw(st.booleans()) else ge(e))
    fixed = draw(st.dictionaries(st.sampled_from(names), st.integers(-3, 6), max_size=1))
    return rows, bounds, fixed


@settings(max_examples=100, deadline=None)
@given(system=boxed_systems())
def test_points_match_brute_force(system):
    rows, bounds, fixed = system
    names = sorted(bounds)
    # the walk itself, over the inequalities
    ineqs = [c for c in rows if c.kind == "ge"]
    s = affine._System(ineqs)
    walked = [tuple(point[v] for v in names) for point in s.points()]
    assert s.complete
    assert sorted(walked) == enumerate_points(conj(*ineqs), bounds)
    # and the prepared listing, with a variable's value fixed
    listed = list(affine.Listing(conj(*rows), list(fixed)).points(fixed))
    assert None not in listed
    values = [eq(expr(-x, **{v: 1})) for v, x in fixed.items()]
    expected = enumerate_points(conj(*rows, *values), bounds)
    assert sorted(tuple(point[v] for v in names) for point in listed) == expected


def listed_per_valuation(s, values):
    """The reference for Listing.points: at one valuation, a system per
    disjunct with each parameter set by an equality, every equality
    eliminated (the parameters' popped first), walked and reconstructed."""
    fixed = tuple(eq(expr(-x, **{n: 1})) for n, x in values.items())
    out = []
    for d in s.disjuncts:
        sys = affine._System(tuple(d) + s.context + fixed)
        try:
            sys.eliminate_equalities()
        except affine._Infeasible:
            continue
        out += [sys.reconstruct(env) for env in sys.points()]
        if not sys.complete:
            out.append(None)
    return out


@st.composite
def parametric_sets(draw):
    """1 or 2 disjuncts, each of up to 4 random rows over 1 to 3 boxed
    variables and 1 or 2 parameters; the parameters; 1 to 3 valuations;
    and a random polynomial check over the variables."""
    names = [f"x{i}" for i in range(draw(st.integers(1, 3)))]
    params = ["N", "M"][: draw(st.integers(1, 2))]
    disjuncts = []
    for _ in range(draw(st.integers(1, 2))):
        rows = []
        for v in names:
            lo = draw(st.integers(-3, 2))
            rows += box(v, lo, lo + draw(st.integers(0, 4)))
        for _ in range(draw(st.integers(0, 4))):
            coeffs = draw(st.dictionaries(st.sampled_from(names + params), st.integers(-3, 3), min_size=1))
            e = expr(draw(st.integers(-6, 6)), **{v: c for v, c in coeffs.items() if c})
            rows.append(eq(e) if draw(st.booleans()) else ge(e))
        disjuncts.append(tuple(rows))
    context = tuple(ge(expr(3, **{n: 1})) for n in params)
    valuations = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * len(params)), min_size=1, max_size=3))
    monomials = st.lists(st.sampled_from(names), max_size=2).map(tuple)
    check = draw(st.lists(st.tuples(st.integers(-2, 2), monomials), max_size=3))
    return AffineSet(tuple(disjuncts), context), params, valuations, check


def _shape(rows, params, valuations, check=()):
    return AffineSet((tuple(rows),), ()), params, valuations, list(check)


@settings(max_examples=150, deadline=None)
@given(case=parametric_sets())
# the only +-1 coefficient is on a parameter: 2 x0 = 4 - N
@example(case=_shape([*box("x0", 0, 3), eq(expr(-4, N=1, x0=2))], ["N"], [(0,), (1,), (2,), (4,)]))
# an equality over the parameters only: N = M + 1
@example(case=_shape([*box("x0", 0, 2), eq(expr(-1, N=1, M=-1))], ["N", "M"], [(2, 1), (2, 2), (3, 2)]))
# no +-1 coefficient, after one with a +-1 on x2: 2 x0 + 3 x1 = N, x2 = x0 + N
@example(case=_shape(
    [*box("x0", -3, 3), *box("x1", -3, 3), *box("x2", -2, 4),
     eq(expr(0, x0=2, x1=3, N=-1)), eq(expr(0, x2=1, x0=-1, N=-1))],
    ["N"], [(0,), (1,), (2,), (5,)], [(1, ("x0",)), (-2, ())]))
def test_listing_matches_each_valuations_own_system(case):
    s, params, valuations, check = case
    listing = affine.Listing(s, params)

    def items(points):
        return [None if p is None else list(p.items()) for p in points]

    for combo in valuations:
        values = dict(zip(params, combo))
        expected = listed_per_valuation(s, values)
        # the same points, in the same order, with the same keys in the
        # same order, and a None at the same places
        assert items(listing.points(values)) == items(expected)
        # with the check, the points of the reference where it is 0
        checked = list(listing.points(values, check))
        holds = [
            p for p in expected
            if p is not None and not sum(c * math.prod(p[v] for v in m) for c, m in check)
        ]
        assert items(p for p in checked if p is not None) == items(holds)
        assert checked.count(None) <= expected.count(None)


def test_a_checked_value_counts_as_a_node(monkeypatch):
    # x in 0..3 where x - 3 = 0: the root and 4 values take 5 nodes, of
    # which the first 3 values fail the check
    s = affine._System(box("x", 0, 3))
    check = [(1, ("x",)), (-3, ())]
    assert list(s.points(check=check)) == [{"x": 3}] and s.complete
    monkeypatch.setattr(affine, "_SEARCH_MAX_NODES", 4)
    assert list(s.points(check=check)) == [] and not s.complete


def test_search_witness_is_the_first_point():
    # x + y >= 3 in 0..3 x 0..3: x, then y, ascending; the first point of
    # the walk is the witness
    s = affine._System([*box("x", 0, 3), *box("y", 0, 3), ge(expr(-3, x=1, y=1))])
    walked = list(s.points())
    assert walked[0] == {"x": 0, "y": 3} == s.search_witness()[0]
    assert len(walked) == 10


def test_points_say_when_a_cap_cut_the_walk(monkeypatch):
    # a box of 4 x 4 points takes 1 + 4 + 16 nodes; one fewer cuts the last
    # point, and the list ends in None
    listing = affine.Listing(conj(*box("x", 0, 3), *box("y", 0, 3)), [])
    assert len(list(listing.points({}))) == 16
    monkeypatch.setattr(affine, "_SEARCH_MAX_NODES", 20)
    listed = list(listing.points({}))
    assert len(listed) == 16 and listed[-1] is None
    # and a variable without an upper bound is listed over a window only
    monkeypatch.undo()
    listed = list(affine.Listing(conj(ge(expr(0, x=1))), []).points({}))
    assert listed[-1] is None and len(listed) == affine._FALLBACK_WIDTH + 2
