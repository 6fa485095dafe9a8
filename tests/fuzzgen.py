"""Seeded generator of small valid programs plus the soundness checks
that compare the static analysis against the exhaustive interpreter.

Generated programs respect the clock validation rules by construction:
the builder threads two flags through the recursion, one for "an advance
is allowed here" and one for "a clocked async is allowed here", updated
exactly as the rules prescribe (an unclocked finish keeps advances legal
but kills clocked asyncs; an unclocked async kills both).
"""

from __future__ import annotations

import functools
import itertools
import random

from clockrace import (
    analyze,
    explore,
    hb_disjuncts,
    print_program,
    race_candidates,
    unordered_disjuncts,
)
from clockrace.interp import instantiate, term_instances
from clockrace.parser import validate_clock_rules
from clockrace.syntax import (
    AccessRef,
    Advance,
    AffineExpr,
    Async,
    Basic,
    Finish,
    For,
    If,
    Program,
    Seq,
)

MAX_DEPTH = 5
MAX_LOOPS = 3
MAX_ASYNCS = 3
MAX_INSTANCES = 40
MAX_DYNAMIC_ASYNCS = 6
PARAM_RANGE = (1, 3)


def _count_asyncs(t) -> int:
    if t is None:
        return 0
    kind = t[0]
    if kind == "seq":
        return sum(_count_asyncs(c) for c in t[1])
    if kind == "async":
        return 1 + _count_asyncs(t[1])
    if kind == "finish":
        return _count_asyncs(t[4])
    return 0


class _Builder:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.loops = 0
        self.asyncs = 0
        self.names = iter(f"f{i}" for i in itertools.count())

    def subscript(self, iters):
        expr = AffineExpr.const_expr(self.rng.randint(0, 2))
        if iters and self.rng.random() < 0.8:
            expr = expr + AffineExpr.var(self.rng.choice(iters), self.rng.choice([1, 1, -1]))
        return expr

    def basic(self, iters):
        write = None
        if self.rng.random() < 0.6:
            write = AccessRef("A", (self.subscript(iters),), "write")
        reads = tuple(
            AccessRef("A", (self.subscript(iters),), "read")
            for _ in range(self.rng.randint(0 if write else 1, 2))
        )
        return Basic(name=next(self.names), write=write, reads=reads)

    def stmt(self, depth, iters, clean_adv, clean_casync):
        rng = self.rng
        if depth == 0:
            # always start with some structure
            return Seq(
                body=tuple(
                    self.stmt(1, iters, clean_adv, clean_casync)
                    for _ in range(rng.randint(2, 3))
                )
            )
        choices = ["basic"] if depth > 2 else []
        if clean_adv:
            choices += ["advance"]
        if depth < MAX_DEPTH:
            choices += ["seq", "if"]
            if self.loops < MAX_LOOPS:
                choices += ["for", "for", "for"]
            choices += ["cfinish", "cfinish", "finish"]
            if self.asyncs < MAX_ASYNCS:
                choices += ["async", "async"]
                if clean_casync:
                    choices += ["casync", "casync", "casync"]
        else:
            choices += ["basic", "basic"] + (["advance"] if clean_adv else [])
        kind = rng.choice(choices)
        if kind == "basic":
            return self.basic(iters)
        if kind == "advance":
            return Advance()
        if kind == "seq":
            return Seq(
                body=tuple(
                    self.stmt(depth + 1, iters, clean_adv, clean_casync)
                    for _ in range(rng.randint(1, 3))
                )
            )
        if kind == "for":
            self.loops += 1
            var = f"i{self.loops}"
            lo = AffineExpr.const_expr(rng.randint(0, 1))
            hi = rng.choice(
                [AffineExpr.var("N"), AffineExpr.var("N") + AffineExpr.const_expr(-1),
                 AffineExpr.const_expr(rng.randint(1, 2))]
            )
            body = self.stmt(depth + 1, iters + [var], clean_adv, clean_casync)
            return For(var=var, lo=lo, hi=hi, body=body)
        if kind == "if":
            if iters and rng.random() < 0.8:
                v = rng.choice(iters)
                # i <= N - 1  or  i >= 1
                cond = rng.choice(
                    [AffineExpr.var("N") - AffineExpr.var(v) + AffineExpr.const_expr(-1),
                     AffineExpr.var(v) + AffineExpr.const_expr(-1)]
                )
            else:
                cond = AffineExpr.var("N") + AffineExpr.const_expr(-1)
            return If(conds=(cond,), body=self.stmt(depth + 1, iters, clean_adv, clean_casync))
        if kind == "cfinish":
            return Finish(clocked=True, body=self.stmt(depth + 1, iters, True, True))
        if kind == "finish":
            return Finish(clocked=False, body=self.stmt(depth + 1, iters, clean_adv, False))
        if kind == "casync":
            self.asyncs += 1
            return Async(clocked=True, body=self.stmt(depth + 1, iters, clean_adv, clean_casync))
        assert kind == "async"
        self.asyncs += 1
        return Async(clocked=False, body=self.stmt(depth + 1, iters, False, False))


def generate(seed: int) -> Program:
    """A valid program with a bounded dynamic footprint."""
    rng = random.Random(seed)
    for attempt in itertools.count():
        b = _Builder(rng)
        root = b.stmt(0, [], clean_adv=False, clean_casync=False)
        p = Program(root=root, params=(("N", rng.randint(0, 1)),), arrays=(("A", 1),))
        if validate_clock_rules(p):
            raise AssertionError(f"generator emitted an invalid program (seed {seed})")
        t = instantiate(p, {"N": PARAM_RANGE[1]})
        n = len(term_instances(t))
        if 1 <= n <= MAX_INSTANCES and _count_asyncs(t) <= MAX_DYNAMIC_ASYNCS:
            return p
        if attempt > 200:
            raise AssertionError(f"seed {seed}: could not fit the footprint budget")


def _static_subset_dynamic(p, res, params):
    """Static hb implies dynamic hb, and ``hb(u, v)``, ``hb(v, u)`` and
    ``unordered`` split every pair of distinct instances three ways while
    identical instances satisfy none of them."""
    errors = []

    @functools.cache
    def systems(a, b):
        return (
            hb_disjuncts(p, a, b, "u_", "v_"),
            hb_disjuncts(p, b, a, "v_", "u_"),
            [d for _, d in unordered_disjuncts(p, a, b)],
        )

    for u, v in itertools.product(res.instances, repeat=2):
        env = dict(params)
        env.update(("u_" + k, x) for k, x in u[2])
        env.update(("v_" + k, x) for k, x in v[2])
        forward, backward, unordered = (
            any(all(c.satisfied(env) for c in d) for d in disjuncts)
            for disjuncts in systems(u[1], v[1])
        )
        if forward + backward + unordered != (u != v):
            errors.append(
                f"not a three-way split: {u}, {v} at {params}: "
                f"hb {forward}, reverse hb {backward}, unordered {unordered}"
            )
        if forward and not res.hb(u, v):
            errors.append(f"static hb not dynamic: {u} -> {v} at {params}")
    return errors


def nest_points(p: Program, stmt_id: int, params, prefix: str) -> list[dict]:
    """Every iteration of the loops around a statement at these parameters,
    guards ignored, as its prefixed iterator values: brute force over the
    loop bounds."""
    envs = [{}]
    for n in p.path_to(stmt_id)[:-1]:
        if isinstance(n, For):
            envs = [
                {**e, n.var: x}
                for e in envs
                for x in range(n.lo.evaluate({**params, **e}), n.hi.evaluate({**params, **e}) + 1)
            ]
    return [{prefix + k: x for k, x in e.items()} for e in envs]


def candidate_points(p: Program, cand, params) -> list[dict]:
    """The points of a candidate's system at these parameters, by brute
    force over its two statements' loop bounds."""
    us, vs = nest_points(p, cand.u_id, params, "u_"), nest_points(p, cand.v_id, params, "v_")
    points = ({**params, **eu, **ev} for eu in us for ev in vs)
    return [point for point in points if cand.system.contains(point)]


def _instance(p: Program, stmt_id: int, point, prefix: str):
    """The statement instance that a point names by its prefixed iterators."""
    env = sorted((it, point[prefix + it]) for it in p.enclosing_iterators(stmt_id))
    return ("basic", stmt_id, tuple(env))


def check_exact(p: Program, runs):
    """Exactness of the static model over ``runs``, the (parameters,
    exploration) pairs: the points of each candidate whose phases are equal
    (every point when a phase is unavailable), as instance pairs, against
    the exploration's races in both orders.  Returns the violations (a
    dynamic race that is no such point) and the number of such points that
    are no dynamic race."""
    errors, spurious = [], 0
    candidates = race_candidates(p)
    for params, res in runs:
        dynamic = {(a, b) for pair in res.races for a, b in (pair, pair[::-1])}
        static = set()
        for cand in candidates:
            phased = cand.phi_u is not None and cand.phi_v is not None
            for point in candidate_points(p, cand, params):
                if phased and cand.phi_u.evaluate(point) != cand.phi_v.evaluate(point):
                    continue
                pair = (_instance(p, cand.u_id, point, "u_"), _instance(p, cand.v_id, point, "v_"))
                static.add(pair)
                spurious += pair not in dynamic
        for pair in res.races:
            if pair not in static and pair[::-1] not in static:
                errors.append(f"dynamic race {pair} at {params} is no point with equal phases")
    return errors, spurious


def check_program(p: Program, rng: random.Random, bound: int = 3):
    """All soundness checks for one program, and the exactness check.

    Returns (violations, candidate count, witness count, the number of
    static race points that are no dynamic race)."""
    errors = []
    lo, hi = PARAM_RANGE
    results = {}
    for n in range(lo, hi + 1):
        res = explore(p, {"N": n}, max_states=200_000)
        if res.incomplete:
            errors.append(f"state limit hit at N={n}")
            return errors, 0, 0, 0
        if not res.terminated:
            errors.append(f"deadlock at N={n}")
            return errors, 0, 0, 0
        results[n] = res
    # (a) the static order never claims more than the dynamic one
    n = rng.randint(lo, hi)
    errors += _static_subset_dynamic(p, results[n], {"N": n})
    # (b, c) analyzer verdict against ground truth
    analysis = analyze(p, bound=bound)
    dynamic_races = {n: bool(results[n].races) for n in results}
    if analysis.verdict == "RaceFree" and any(dynamic_races.values()):
        errors.append(f"analyzer said RaceFree but dynamic races exist: {dynamic_races}")
    for cand, v in analysis.candidates:
        if v.status != "witness":
            continue
        if not v.confirmed:
            errors.append(f"unconfirmed witness for {cand.describe(p)}: {v.witness}")
            continue
        witness_env = {k: x for k, x in v.witness.items()}
        if not all(c.satisfied(witness_env) for c in cand.system.context):
            errors.append(f"witness violates context: {v.witness}")
        elif not cand.system.contains(witness_env):
            errors.append(f"witness not in the race system: {v.witness}")
    # (d, e) each candidate against the dynamic races explored above
    runs = [({"N": n}, res) for n, res in results.items()]
    errors += _candidates_against_dynamic_races(p, analysis, runs)
    # (f) the static race points against the same races
    exact_errors, spurious = check_exact(p, runs)
    errors += exact_errors
    n_witnesses = sum(1 for _, v in analysis.candidates if v.status == "witness")
    return errors, len(analysis.candidates), n_witnesses, spurious


def _candidates_against_dynamic_races(p, analysis, runs):
    """(d) No ``race-free`` candidate's system holds a dynamic race, and (e)
    every dynamic race lies in the system of some candidate that is not
    ``race-free``, over ``runs``, the (parameters, exploration) pairs.  A
    race lies in a candidate's system when its instances are the
    candidate's statements, touch one element through the candidate's
    access pair, and fall in the candidate's component."""
    errors = []
    for params, res in runs:
        for pair in res.races:
            statuses = []
            for a, b in (pair, pair[::-1]):
                point = {**params, **{"u_" + k: x for k, x in a[2]},
                         **{"v_" + k: x for k, x in b[2]}}
                for cand, v in analysis.candidates:
                    if (cand.u_id, cand.v_id) == (a[1], b[1]) and cand.system.contains(point):
                        statuses.append(v.status)
                        if v.status == "race-free":
                            errors.append(
                                f"race-free {cand.describe(p)} has the dynamic race {point}"
                            )
            if all(status == "race-free" for status in statuses):
                errors.append(
                    f"dynamic race {pair} at {params} is in no candidate that is not race-free"
                )
    return errors


def run_soundness_suite(count: int = 200, seed: int = 0):
    """Generate `count` programs and run every check; returns (stats, errors)."""
    rng = random.Random(seed ^ 0x5EED)
    errors = []
    stats = {"programs": 0, "with_candidates": 0, "with_witnesses": 0, "spurious_points": 0}
    for k in range(count):
        p = generate(seed + k)
        errs, n_cand, n_wit, spurious = check_program(p, rng)
        if errs:
            errors.append((k, print_program(p), errs))
        stats["programs"] += 1
        stats["with_candidates"] += bool(n_cand)
        stats["with_witnesses"] += bool(n_wit)
        stats["spurious_points"] += spurious
    return stats, errors
