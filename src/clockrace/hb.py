"""Static happens-before for mini-X10: an incomplete lexicographic order.

Two statement instances are compared through their paths from the root.
:func:`_components` lists every way their iteration vectors can first
differ: for each shared ``for`` node, outermost first, "u's index smaller"
then "v's index smaller" with the outer shared iterators equal; then the
divergence node (always a sequence) with every shared iterator equal, where
the branch order says which side runs first.  A component orders the pair
when the earlier instance's work below the component's node completes
synchronously: the first ``async``/``finish`` node strictly below it on the
earlier instance's path is not an ``async`` (no such node, or a ``finish``,
seals the subcomputation).

The components are disjoint and cover every pair of distinct instances, so
the relation splits three ways by construction: :func:`hb_disjuncts` keeps
the sealed components where u runs first, :func:`unordered_disjuncts` the
unsealed ones, and the rest are ``v hb u``.  Identical instances satisfy
none.  The order is sound but deliberately incomplete.

For clocked programs, the same walk gives each component its clock.  Two
instances share an instance of a clocked ``finish`` only when they agree on
every iterator of the loops above it, so a clocked ``finish`` inside a loop
is a new clock in every iteration.  The clock of a component is therefore
the innermost clocked ``finish`` strictly above the component's node: above
the loop where the iteration vectors first differ, or anywhere on the common
path for the divergence node.  A component with no such ``finish`` is
unclocked.  :func:`reduce_clock` builds a clock's reduction once, when the
walk meets the ``finish``; each side gets a representative: the outermost
clocked ``finish`` below the clock containing the leaf (or the leaf itself).
Phases are compared only under one clock instance, on the representatives.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

from .affine import Constraint, eq, ge
from .syntax import (
    AffineExpr,
    Async,
    Finish,
    For,
    If,
    Program,
    Seq,
    Stmt,
    governing_clocked_finish,
)


def _common_prefix(pu: Sequence[Stmt], pv: Sequence[Stmt]) -> int:
    """Length of the longest common prefix of two root paths."""
    m = 0
    while m < len(pu) and m < len(pv) and pu[m] is pv[m]:
        m += 1
    return m


def _sealed(path: Sequence[Stmt]) -> list[bool]:
    """``sealed[i]``: whether the subcomputation below ``path[i]`` along
    ``path`` completes before control returns -- True unless the path
    escapes into an ``async`` before any ``finish``.  One backward pass."""
    sealed, seals = [], True
    for n in reversed(path[:-1]):
        sealed.append(seals)
        if isinstance(n, (Async, Finish)):
            seals = isinstance(n, Finish)
    sealed.reverse()
    return sealed


class ClockReduction(NamedTuple):
    """The clock instance both leaves run under, plus per-side
    representatives on which phase counting is performed."""

    finish_id: int
    rep_u: int
    rep_v: int


def reduce_clock(pu: Sequence[Stmt], pv: Sequence[Stmt], i: int) -> ClockReduction:
    """The reduction to the clocked finish at index ``i`` of the common
    prefix of both root paths: each representative is the outermost clocked
    finish below it on that side's path, or the leaf."""

    def representative(path: Sequence[Stmt]) -> int:
        below = (n for n in path[i + 1 :] if isinstance(n, Finish) and n.clocked)
        return next(below, path[-1]).node_id

    return ClockReduction(pu[i].node_id, representative(pu), representative(pv))


Component = tuple[Optional[ClockReduction], list[Constraint]]


def _components(
    p: Program,
    u_id: int,
    v_id: int,
    u_prefix: str,
    v_prefix: str,
    keep: Callable[[bool, bool], bool],
) -> list[Component]:
    """The ways the two iteration vectors can first differ, in order, as
    (clock, constraint system over prefixed iterators).  Only the
    components for which ``keep(u_first, seals)`` holds are built:
    ``u_first`` says whether u's instance runs first, ``seals`` whether the
    earlier instance's path seals at the component's node.  The walk keeps
    the innermost clocked finish seen so far; the sealing comes from one
    backward pass per path (:func:`_sealed`)."""
    pu, pv = p.path_to(u_id), p.path_to(v_id)
    m = _common_prefix(pu, pv)
    su, sv = _sealed(pu), _sealed(pv)
    out: list[Component] = []
    clock: Optional[ClockReduction] = None
    equal: list[Constraint] = []
    for i, n in enumerate(pu[:m]):
        if isinstance(n, Finish) and n.clocked:
            clock = reduce_clock(pu, pv, i)
        if not isinstance(n, For):
            continue
        v_minus_u = AffineExpr.var(v_prefix + n.var) - AffineExpr.var(u_prefix + n.var)
        u_minus_v = -v_minus_u
        if keep(True, su[i]):
            out.append((clock, equal + [ge(v_minus_u.shift(-1))]))
        if keep(False, sv[i]):
            out.append((clock, equal + [ge(u_minus_v.shift(-1))]))
        equal = equal + [eq(u_minus_v)]
    if m < len(pu) or m < len(pv):
        div = pu[m - 1]
        assert isinstance(div, Seq) and m < len(pu) and m < len(pv), (
            "paths can only diverge at a sequence"
        )
        u_first = next(t for t in div.body if t is pu[m] or t is pv[m]) is pu[m]
        if keep(u_first, (su if u_first else sv)[m - 1]):
            out.append((clock, equal))
    return out


def _rename(expr: AffineExpr, prefix: str, iterators: Sequence[str]) -> AffineExpr:
    return expr.rename({v: prefix + v for v in iterators})


def statement_domain(p: Program, node_id: int, prefix: str) -> list[Constraint]:
    """Loop-bound and guard constraints for one instance, with the node's
    iterators prefixed; parameter bounds are not included."""
    path = p.path_to(node_id)
    out: list[Constraint] = []
    outer: list[str] = []
    for n in path[:-1]:
        if isinstance(n, For):
            it = AffineExpr.var(prefix + n.var)
            lo = _rename(n.lo, prefix, outer)
            hi = _rename(n.hi, prefix, outer)
            out.append(ge(it - lo))
            out.append(ge(hi - it))
            outer.append(n.var)
        elif isinstance(n, If):
            out.extend(ge(_rename(c, prefix, outer)) for c in n.conds)
    return out


def hb_disjuncts(
    p: Program, u_id: int, v_id: int, u_prefix: str, v_prefix: str
) -> list[list[Constraint]]:
    """Pairwise-disjoint constraint systems whose union is ``u hb v``
    (ignoring clocks), over prefixed iterator variables.

    Each disjunct fixes the first component where the iteration vectors
    differ, so the disjuncts never overlap -- counting arguments may sum
    over them."""
    components = _components(
        p, u_id, v_id, u_prefix, v_prefix, lambda u_first, seals: u_first and seals
    )
    return [d for _, d in components]


def unordered_disjuncts(p: Program, u_id: int, v_id: int) -> list[Component]:
    """(clock, constraint system over ``u_``/``v_`` iterators) per
    component, the systems covering exactly the instance pairs ordered in
    neither direction (clocks ignored).  Distinctness of the instances is
    implied; the systems are pairwise disjoint.  The clock is the
    component's :class:`ClockReduction`, or None when no clocked finish is
    above its node."""
    return _components(p, u_id, v_id, "u_", "v_", lambda u_first, seals: not seals)


def governed_advances(p: Program, finish_id: int) -> list[int]:
    """Advance statements whose governing clock is the given finish."""
    return [
        a.node_id
        for a in p.advance_statements()
        if governing_clocked_finish(p, a.node_id) == finish_id
    ]
