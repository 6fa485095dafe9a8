"""Static happens-before for mini-X10: an incomplete lexicographic order.

Two statement instances are compared through their paths from the root.
Shared ``for`` nodes contribute iterator components; the divergence node
(always a sequence) contributes a pair of branch constants.  A component
position can only order the pair when the earlier instance's remaining work
completes synchronously: position p orders u before v exactly when the
first ``async``/``finish`` node strictly below p's node on the path toward
u is not an ``async`` (no such node, or a ``finish``, both seal the
subcomputation).  The resulting order is sound but deliberately incomplete.

For clocked programs, :func:`reduce_clock` maps a pair of leaves to the
innermost clocked ``finish`` governing both, together with a representative
per side: the outermost clocked ``finish`` below it containing the leaf (or
the leaf itself).  Phase reasoning is then performed on representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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
)


@dataclass(frozen=True)
class PairShape:
    """Aligned component structure of a pair of paths.

    ``fors`` lists the shared ``for`` nodes in order (outermost first);
    ``div`` is the divergence sequence node with the two branch indices,
    or None when both paths end at the same node.
    """

    u_path: tuple[Stmt, ...]
    v_path: tuple[Stmt, ...]
    fors: tuple[For, ...]
    div: Optional[Seq]
    branch_u: int = -1
    branch_v: int = -1


def pair_shape(p: Program, u_id: int, v_id: int) -> PairShape:
    pu, pv = tuple(p.path_to(u_id)), tuple(p.path_to(v_id))
    m = 0
    while m < len(pu) and m < len(pv) and pu[m] is pv[m]:
        m += 1
    if m == len(pu) and m == len(pv):  # same node
        fors = tuple(n for n in pu[:-1] if isinstance(n, For))
        return PairShape(pu, pv, fors, None)
    assert m < len(pu) and m < len(pv), "one statement nested inside the other"
    div = pu[m - 1]
    assert isinstance(div, Seq), "paths can only diverge at a sequence"
    fors = tuple(n for n in pu[: m - 1] if isinstance(n, For))
    bu = next(i for i, t in enumerate(div.body) if t is pu[m])
    bv = next(i for i, t in enumerate(div.body) if t is pv[m])
    return PairShape(pu, pv, fors, div, bu, bv)


def _seals(path: Sequence[Stmt], node: Stmt) -> bool:
    """Whether the subcomputation below ``node`` along ``path`` completes
    before control returns: True unless the path escapes into an ``async``
    before any ``finish``."""
    i = next(k for k, n in enumerate(path) if n is node)
    for n in path[i + 1 : len(path) - 1]:
        if isinstance(n, Async):
            return False
        if isinstance(n, Finish):
            return True
    return True


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


def param_context(p: Program) -> list[Constraint]:
    return [ge(AffineExpr.var(n).shift(-lb)) for n, lb in p.params]


def hb_disjuncts(
    p: Program,
    u_id: int,
    v_id: int,
    u_prefix: str = "u_",
    v_prefix: str = "v_",
) -> list[list[Constraint]]:
    """Pairwise-disjoint constraint systems whose union is ``u hb v``
    (ignoring clocks), over prefixed iterator variables.

    Each disjunct fixes the first component where the iteration vectors
    differ, so the disjuncts never overlap -- counting arguments may sum
    over them."""
    shape = pair_shape(p, u_id, v_id)
    out: list[list[Constraint]] = []
    for k, node in enumerate(shape.fors):
        if not _seals(shape.u_path, node):
            continue
        d = _prefix_equalities(shape.fors[:k], u_prefix, v_prefix)
        uk = AffineExpr.var(u_prefix + node.var)
        vk = AffineExpr.var(v_prefix + node.var)
        d.append(ge((vk - uk).shift(-1)))  # u's index strictly smaller
        out.append(d)
    if shape.div is not None and shape.branch_u < shape.branch_v:
        if _seals(shape.u_path, shape.div):
            out.append(_prefix_equalities(shape.fors, u_prefix, v_prefix))
    return out


def unordered_disjuncts(
    p: Program,
    u_id: int,
    v_id: int,
    u_prefix: str = "u_",
    v_prefix: str = "v_",
) -> list[list[Constraint]]:
    """Constraint systems covering exactly the instance pairs ordered in
    neither direction (clocks ignored).  Distinctness of the instances is
    implied; the systems are pairwise disjoint."""
    shape = pair_shape(p, u_id, v_id)
    out: list[list[Constraint]] = []
    for k, node in enumerate(shape.fors):
        for earlier_path, lo_pref, hi_pref in (
            (shape.u_path, u_prefix, v_prefix),
            (shape.v_path, v_prefix, u_prefix),
        ):
            if _seals(earlier_path, node):
                continue  # this direction orders the pair
            d = _prefix_equalities(shape.fors[:k], u_prefix, v_prefix)
            lo = AffineExpr.var(lo_pref + node.var)
            hi = AffineExpr.var(hi_pref + node.var)
            d.append(ge((hi - lo).shift(-1)))
            out.append(d)
    if shape.div is not None:
        earlier = shape.u_path if shape.branch_u < shape.branch_v else shape.v_path
        if not _seals(earlier, shape.div):
            out.append(_prefix_equalities(shape.fors, u_prefix, v_prefix))
    return out


def _prefix_equalities(
    fors: Sequence[For], u_prefix: str, v_prefix: str
) -> list[Constraint]:
    return [
        eq(AffineExpr.var(u_prefix + n.var) - AffineExpr.var(v_prefix + n.var))
        for n in fors
    ]


# ---------------------------------------------------------------------------
# Clock reduction


@dataclass(frozen=True)
class ClockReduction:
    """Innermost clocked finish spanning both leaves, plus per-side
    representatives on which phase counting is performed."""

    finish_id: int
    rep_u: int
    rep_v: int


def reduce_clock(p: Program, u_id: int, v_id: int) -> Optional[ClockReduction]:
    pu, pv = p.path_to(u_id), p.path_to(v_id)
    m = 0
    while m < len(pu) and m < len(pv) and pu[m] is pv[m]:
        m += 1
    finish = None
    for n in pu[:m]:
        if isinstance(n, Finish) and n.clocked:
            finish = n
    if finish is None:
        return None

    def representative(path) -> int:
        below = False
        for n in path:
            if below and isinstance(n, Finish) and n.clocked:
                return n.node_id
            if n is finish:
                below = True
        return path[-1].node_id

    return ClockReduction(finish.node_id, representative(pu), representative(pv))


def governed_advances(p: Program, finish_id: int) -> list[int]:
    """Advance statements whose governing clock is the given finish."""
    from .syntax import governing_clocked_finish

    return [
        a.node_id
        for a in p.advance_statements()
        if governing_clocked_finish(p, a.node_id) == finish_id
    ]
