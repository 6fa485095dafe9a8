"""Seeded generator of small valid clocked programs for the race-hunt
workload.

This is the benchmark's own frozen copy of the generator the test suite
uses.  The test suite's generator is expected to widen (more parameters,
2-D arrays); a benchmark that imported it would silently change its
inputs, so the two are kept apart on purpose.

Programs respect the clock validation rules by construction: the builder
threads two flags through the recursion, one for "an advance is allowed
here" and one for "a clocked async is allowed here".
"""

from __future__ import annotations

import itertools
import random

from clockrace.interp import instantiate, term_instances
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
        self.asyncs += 1
        return Async(clocked=False, body=self.stmt(depth + 1, iters, False, False))


def generate(seed: int) -> Program:
    """A valid program whose instantiation at the largest N of PARAM_RANGE
    has between 1 and MAX_INSTANCES statement instances."""
    rng = random.Random(seed)
    for _ in range(200):
        root = _Builder(rng).stmt(0, [], clean_adv=False, clean_casync=False)
        p = Program(root=root, params=(("N", rng.randint(0, 1)),), arrays=(("A", 1),))
        t = instantiate(p, {"N": PARAM_RANGE[1]})
        if 1 <= len(term_instances(t)) <= MAX_INSTANCES and _count_asyncs(t) <= MAX_DYNAMIC_ASYNCS:
            return p
    raise RuntimeError(f"fuzz seed {seed}: no program fits the footprint budget")
