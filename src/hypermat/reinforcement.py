"""Primal-dual solver for minimum-cost network reinforcement.

Given per-edge costs and multiplicity bounds, choose multiplicities x
with 0 <= x <= bounds so that every partition P of the vertices
satisfies x(crossing P) >= k * (|P| - 1), at minimum total cost.  For a
connected graph and k = 1 this is spanning-tree feasibility; general k
asks for enough capacity to pack k hypertrees.

The algorithm is the primal-dual loop of Cunningham's "Optimal attack
and reinforcement of a network" (J. ACM 32(3), 1985).  It grows a set of
"tight" edges and keeps a current partition that attains the minimum of
the subproblem bounds(crossing tight edges) - k * (|P| - 1).  Each round
raises the dual variable of the current partition until some crossing
non-tight edge's reduced cost hits zero and admits that edge.  The new
subproblem optimum is then either the current partition or the current
one with a single group of blocks merged, a group holding every block
the admitted edge meets, so one min cut of the supermodular gadget on
the quotient by the current partition finds it.  On a merge the
multiplicity of the just-admitted edge is set by the merge's deficit
(and the merged blocks fuse); otherwise the edge enters at its bound.
The subproblem minimum reaching zero certifies primal feasibility;
running out of crossing edges proves infeasibility with the current
partition as the certificate.  Every dual update keeps feasibility and
complementary slackness, which are asserted, so the final cost equality
is a proof of optimality; with integer k and bounds the multiplicities
come out integral.

Costs and bounds come in as Fractions, and every number handed out is
one.  The loop itself runs on integers: reduced costs and duals over the
costs' common denominator, multiplicities and bounds over the bounds'.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import EdgeVector, Hypergraph, Partition
from .gadgets import build_supermodular_gadget, interpret_gadget_cut
from .mincut import min_st_cut


@dataclass(frozen=True)
class MergeDescriptor:
    """Outcome of canonicalizing a subproblem optimum against the old partition.

    block_indices are positions of the old partition's blocks fusing into
    `merged`; value is the multiplicity assigned to the triggering edge,
    chosen so the edges inside `merged` sum to exactly k * (blocks - 1).
    """

    block_indices: frozenset[int]
    merged: frozenset[int]
    value: Fraction


@dataclass
class DualState:
    """Dual variables and bookkeeping at the end of a run.

    partition_duals lists (partition, raise) pairs in the order first
    raised; bound_duals and reduced_costs are per-edge; tight_edges in
    admission order; final_partition is the last subproblem optimum, and
    on infeasibility it is the certificate violating feasibility.
    """

    partition_duals: list[tuple[Partition, Fraction]]
    bound_duals: list[Fraction]
    reduced_costs: list[Fraction]
    tight_edges: list[int]
    final_partition: Partition


@dataclass(frozen=True)
class ReinforcementResult:
    status: str  # "optimal" or "infeasible"
    x: EdgeVector | None
    cost: Fraction | None
    dual: DualState
    merges: tuple[MergeDescriptor, ...] = ()


def canonicalize_merge(h: Hypergraph, old: Partition, new: Partition, trigger: int,
                       x: Sequence[Fraction], threshold: Fraction,
                       bounds: Sequence[Fraction]) -> MergeDescriptor | None:
    """Rewrite a subproblem optimum into at most one merge of old blocks.

    First, any old block crossing several new blocks forces those new
    blocks to merge (the rewritten partition is then a coarsening of the
    old one).  Second, every merged group not spanned by the triggering
    edge splits back into its old blocks.  Both rewrites preserve the
    subproblem value; at most one merged group can survive, because the
    triggering edge spans at most one.  Returns None when the result is
    the old partition itself, else the merge with the multiplicity that
    makes the edges inside it sum to threshold * (group size - 1).
    """
    if old.n != h.n or new.n != h.n:
        raise ValueError("partition vertex count mismatch")
    # union-find over new blocks, linked through old blocks that cross them
    parent = list(range(len(new.blocks)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for ob in old.blocks:
        hit = sorted({find(new.block_index(v)) for v in ob})
        for other in hit[1:]:
            parent[find(other)] = find(hit[0])
    groups: dict[int, set[int]] = {}
    for i, ob in enumerate(old.blocks):
        groups.setdefault(find(new.block_index(ob[0])), set()).add(i)
    span = set(h.edges[trigger].vertices)
    surviving: list[set[int]] = []
    for members in groups.values():
        if len(members) < 2:
            continue
        union_verts = {v for i in members for v in old.blocks[i]}
        if span <= union_verts:
            surviving.append(members)
    assert len(surviving) <= 1, "triggering edge spans more than one merged group"
    if not surviving:
        return None
    members = surviving[0]
    merged = frozenset(v for i in members for v in old.blocks[i])
    inner_blocks = [old.blocks[i] for i in sorted(members)]
    crossing = h.cross_edges(None, inner_blocks)
    assert trigger in crossing, "triggering edge does not cross the merged blocks"
    lam = threshold * (len(members) - 1) - sum(
        (x[e] for e in crossing if e != trigger), Fraction(0)
    )
    assert 0 <= lam <= bounds[trigger], "merge deficit outside the edge bound"
    return MergeDescriptor(block_indices=frozenset(members), merged=merged, value=lam)


def _subproblem(h: Hypergraph, tight: Sequence[int], bounds: Sequence[Fraction],
                threshold: Fraction, current: Partition, trigger: int) -> tuple[Fraction, Partition]:
    """Minimize bounds(crossing tight edges) - threshold * (|P| - 1) once `trigger` is tight.

    The current partition attained the minimum before the trigger became
    tight, and admitting it raises every partition it crosses by the same
    bound.  So the new optimum is the current partition or the current
    one with one group S of blocks merged, S holding the blocks the
    trigger meets, which changes the value by
    delta(S) = threshold * (|S| - 1) - bounds(tight edges inside S).
    One cut minimizes delta.  On the quotient each block is a vertex
    charged threshold, except that the trigger's blocks contract into the
    forced vertex 0, charged threshold for all but one of them; each
    crossing tight edge maps to its block image, a loop at 0 when it lies
    within the trigger's blocks.  Then charge(W) - bounds(E[W]) is delta
    of the blocks W stands for.
    A minimum of zero or less merges the cut's witness, the
    inclusion-maximal minimizer.  At a new optimum of zero that is every
    block, so reinforcement ends on the one-block partition.
    """
    blocks = current.blocks
    trigger_blocks = {current.block_index(v) for v in h.edges[trigger].vertices}
    others = [i for i in range(len(blocks)) if i not in trigger_blocks]
    qid = [0] * len(blocks)
    for q, i in enumerate(others, 1):
        qid[i] = q
    images: list[list[int]] = []
    weights: list[Fraction] = []
    for e in tight:
        img = {current.block_index(v) for v in h.edges[e].vertices}
        if len(img) >= 2:
            images.append(sorted({qid[i] for i in img}))
            weights.append(bounds[e])
    charges = [threshold * (len(trigger_blocks) - 1)] + [threshold] * len(others)
    g = build_supermodular_gadget(Hypergraph(len(charges), images), EdgeVector(weights),
                                  charges, forced=0)
    cut = interpret_gadget_cut(g, min_st_cut(g.network))
    value = g.x.total() - threshold * (len(blocks) - 1)
    if cut.value > 0:
        return value, current
    merged = tuple(v for i, b in enumerate(blocks) if qid[i] in cut.witness for v in b)
    rest = tuple(b for i, b in enumerate(blocks) if qid[i] not in cut.witness)
    return value + cut.value, Partition(h.n, (merged, *rest))


def _partition_value(h: Hypergraph, tight: Iterable[int], bounds: Sequence[int],
                     threshold: int, p: Partition) -> int:
    crossing = h.cross_edges(list(tight), p)
    return sum([bounds[e] for e in crossing]) - threshold * (len(p.blocks) - 1)


def reinforce(h: Hypergraph, tree_count: int, costs: EdgeVector,
              bounds: EdgeVector | None = None) -> ReinforcementResult:
    """Minimum-cost multiplicities packing `tree_count` hypertrees.

    bounds None treats every edge as unbounded; internally each bound
    becomes tree_count * (|V| - 1), which no optimal solution exceeds.
    Infeasibility is certified by a partition whose crossing edges cannot
    reach the requirement even at full bounds.  With integer tree_count
    and bounds the optimal multiplicities are integral.
    """
    if h.n < 1:
        raise ValueError("no vertices")
    if not isinstance(tree_count, int) or tree_count < 0:
        raise ValueError("tree count must be a nonnegative integer")
    costs.require_length(h.m, "costs")
    costs.require_nonnegative("costs")
    k = Fraction(tree_count)
    if bounds is None:
        ub = [k * max(h.n - 1, 1)] * h.m
        ubi, bscale = [tree_count * max(h.n - 1, 1)] * h.m, 1
    else:
        bounds.require_length(h.m, "bounds")
        bounds.require_nonnegative("bounds")
        ub = list(bounds)
        ubi, bscale = bounds._integers()

    if tree_count == 0 or h.n == 1:
        dual = DualState(partition_duals=[], bound_duals=[Fraction(0)] * h.m,
                         reduced_costs=list(costs), tight_edges=[],
                         final_partition=Partition.whole(h.n))
        return ReinforcementResult(status="optimal", x=EdgeVector.zeros(h.m),
                                   cost=Fraction(0), dual=dual)

    # the loop runs on integers: reduced costs and duals over the costs'
    # common denominator cscale, multiplicities over the bounds' bscale,
    # with kb = k * bscale; x keeps the Fractions canonicalize_merge reads
    cnums, cscale = costs._integers()
    reduced = list(cnums)
    bdual = [0] * h.m
    gammas: dict[Partition, int] = {}
    x: list[Fraction] = [Fraction(0)] * h.m
    xi = [0] * h.m
    kb = tree_count * bscale
    tight: list[int] = []
    current = Partition.singletons(h.n)
    merges: list[MergeDescriptor] = []
    # the crossing edges of the current partition, split into the open
    # candidates and the tight ones
    candidates = set(h.cross_edges(None, current))
    held: set[int] = set()

    def dual_state(p: Partition) -> DualState:
        return DualState(
            partition_duals=[(q, Fraction(g, cscale)) for q, g in gammas.items()],
            bound_duals=[Fraction(b, cscale) for b in bdual],
            reduced_costs=[Fraction(r, cscale) for r in reduced],
            tight_edges=list(tight), final_partition=p)

    rounds = 0
    while True:
        rounds += 1
        assert rounds <= h.m + 1, "admitted more edges than exist"
        if not candidates:
            # even at full bounds the crossing edges cannot meet the
            # requirement: the current partition certifies infeasibility
            assert _partition_value(h, tight, ubi, kb, current) < 0
            return ReinforcementResult(status="infeasible", x=None, cost=None,
                                       dual=dual_state(current), merges=tuple(merges))
        step = min([reduced[e] for e in candidates])
        assert step >= 0, "reduced cost went negative"
        if step > 0:
            gammas[current] = gammas.get(current, 0) + step
            for e in held:
                bdual[e] += step
                assert xi[e] == ubi[e], "crossing tight edge below its bound"
            for e in candidates:
                reduced[e] -= step
        trigger = min([e for e in candidates if reduced[e] == 0])
        tight.append(trigger)
        candidates.remove(trigger)
        held.add(trigger)

        value, optimum = _subproblem(h, tight, ub, k, current, trigger)
        scaled = value * bscale
        assert scaled.denominator == 1, "subproblem value off the bounds' denominator"
        value = scaled.numerator
        assert value <= 0
        assert value < 0 or optimum == Partition.whole(h.n), \
            "zero-value optimum is not the one-block partition"
        assert _partition_value(h, tight, ubi, kb, optimum) == value, \
            "lifted optimum does not attain the subproblem value"
        desc = canonicalize_merge(h, current, optimum, trigger, x, k, ub)
        if desc is None:
            assert _partition_value(h, tight, ubi, kb, current) == value, \
                "canonical identity step lost optimality"
            x[trigger], xi[trigger] = ub[trigger], ubi[trigger]
        else:
            lam = desc.value * bscale
            assert lam.denominator == 1, "merge deficit off the bounds' denominator"
            x[trigger], xi[trigger] = desc.value, lam.numerator
            merges.append(desc)
            merged_partition = Partition(h.n, tuple(
                [tuple(sorted(desc.merged))]
                + [b for i, b in enumerate(current.blocks) if i not in desc.block_indices]
            ))
            assert _partition_value(h, tight, ubi, kb, merged_partition) == value, \
                "canonical merge step lost optimality"
            inside = h.induced_edges(None, desc.merged)
            assert sum([xi[e] for e in inside]) == kb * (len(desc.merged) - 1), \
                "merged block misses its exact requirement"
            candidates -= inside
            held -= inside
            current = merged_partition
        if value == 0:
            break
        # loop invariants: dual feasibility, and partially used edges
        # buried inside blocks so later raises never touch them
        assert min(reduced, default=0) >= 0 and min(bdual, default=0) >= 0
        label = current._label
        for e, (xe, ue) in enumerate(zip(xi, ubi)):
            if 0 < xe < ue:
                vs = h.edges[e].vertices
                assert all(label[v] == label[vs[0]] for v in vs), \
                    "partially used edge crosses the partition"

    assert sum(xi) == kb * (h.n - 1), "terminal multiplicity total off"
    # cost and dual objective over cscale * bscale
    cost = sum([c * xe for c, xe in zip(cnums, xi)])
    dual_obj = sum([g * kb * (len(p.blocks) - 1) for p, g in gammas.items()])
    dual_obj -= sum([u * b for u, b in zip(ubi, bdual)])
    assert cost == dual_obj, "primal and dual objectives differ"
    # complementary slackness, exactly
    for p, g in gammas.items():
        if g > 0:
            got = sum([xi[e] for e in h.cross_edges(None, p)])
            assert got == kb * (len(p.blocks) - 1), "raised partition not tight in x"
    for e in range(h.m):
        if bdual[e] > 0:
            assert xi[e] == ubi[e], "bound dual positive on an unsaturated edge"
        if xi[e] > 0:
            assert reduced[e] == 0, "used edge with positive reduced cost"
        assert 0 <= xi[e] <= ubi[e]
    if tree_count >= 0 and (bounds is None or bounds.is_integral()):
        assert all(v.denominator == 1 for v in x), "integral data, fractional optimum"
    return ReinforcementResult(status="optimal", x=EdgeVector(x),
                               cost=Fraction(cost, cscale * bscale),
                               dual=dual_state(current), merges=tuple(merges))
