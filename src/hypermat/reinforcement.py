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
the quotient by the current partition finds it.  The blocks in the
cut's witness fuse (`canonicalize_merge`), and the just-admitted edge
takes the merge's deficit: what the tight edges between those blocks
lack of k * (blocks - 1).  Without a merge the edge enters at its bound.
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
from .gadgets import GadgetEngine, build_supermodular_gadget


@dataclass(frozen=True)
class MergeDescriptor:
    """One merge of a reinforcement round, read off the round's cut.

    block_indices are the positions of the old partition's blocks in the
    cut's witness, which fuse into the vertex set `merged`; value is the
    multiplicity assigned to the triggering edge, chosen so the edges
    between those blocks sum to exactly k * (blocks - 1).
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


def _subproblem(h: Hypergraph, held: Iterable[int], bounds: Sequence[int],
                threshold: int, current: Partition, trigger: int) -> tuple[int, frozenset[int]]:
    """Minimize bounds(crossing tight edges) - threshold * (|P| - 1) once `trigger` is tight.

    `held` is the tight edges crossing the current partition, the
    trigger among them.  The current partition attained the minimum
    before the trigger became tight, and admitting it raises every
    partition it crosses by the same bound.  So the new optimum is the
    current partition or the current one with one group S of blocks
    merged, S holding the blocks the trigger meets, which changes the
    value by delta(S) = threshold * (|S| - 1) - bounds(tight edges inside S).
    One cut minimizes delta.  On the quotient each block is a vertex
    charged threshold, except that the trigger's blocks contract into the
    forced vertex 0, charged threshold for all but one of them; each held
    edge maps to its block image, a loop at 0 when it lies within the
    trigger's blocks.  Then charge(W) - bounds(E[W]) is delta of the
    blocks W stands for.
    Bounds and threshold are integers over one denominator, and so is
    the new minimum, returned with the group to merge: the indices of the
    blocks in the cut's witness, the inclusion-maximal minimizer, when
    the cut's value is zero or less, else the empty set.  At a new
    optimum of zero the group is every block, so reinforcement ends on
    the one-block partition.
    """
    nblocks = len(current.blocks)
    label = current._label
    trigger_blocks = {label[v] for v in h.edges[trigger].vertices}
    others = [i for i in range(nblocks) if i not in trigger_blocks]
    qid = [0] * nblocks
    for q, i in enumerate(others, 1):
        qid[i] = q
    images: list[list[int]] = []
    weights: list[int] = []
    for e in held:
        images.append(sorted({qid[label[v]] for v in h.edges[e].vertices}))
        weights.append(bounds[e])
    charges = [threshold * (len(trigger_blocks) - 1)] + [threshold] * len(others)
    g = build_supermodular_gadget(Hypergraph(len(charges), images), weights, charges, forced=0)
    cut = GadgetEngine(g).solve()
    value = sum(weights) - threshold * (nblocks - 1)
    if cut.value > 0:
        return value, frozenset()
    return value + cut.value, frozenset(i for i in range(nblocks) if qid[i] in cut.witness)


def canonicalize_merge(h: Hypergraph, current: Partition, group: frozenset[int], trigger: int,
                       held: set[int], x: Sequence[int],
                       threshold: int) -> tuple[Partition, frozenset[int], frozenset[int], int]:
    """The merge step of a reinforcement round: fuse the blocks in `group`.

    `group` holds the indices of the blocks of `current` in the round's
    cut witness, as `_subproblem` returns them; `held` is the tight edges
    crossing `current`, the trigger among them.  Returns the new
    partition, the fused vertex set, the edges inside it, and the deficit
    the trigger takes: what the other held edges inside lack of
    threshold * (|group| - 1).  Multiplicities x and the threshold are
    integers over one denominator.
    """
    blocks = current.blocks
    merged = frozenset(v for i in group for v in blocks[i])
    inside = h.induced_edges(None, merged)
    lam = threshold * (len(group) - 1) - sum([x[e] for e in held & inside if e != trigger])
    new = Partition(h.n, (tuple(sorted(merged)), *[b for i, b in enumerate(blocks) if i not in group]))
    return new, merged, inside, lam


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
    if bounds is None:
        ubi, bscale = [tree_count * (h.n - 1)] * h.m, 1
    else:
        bounds.require_length(h.m, "bounds")
        bounds.require_nonnegative("bounds")
        ubi, bscale = bounds._integers()

    if tree_count == 0 or h.n == 1:
        dual = DualState(partition_duals=[], bound_duals=[Fraction(0)] * h.m,
                         reduced_costs=list(costs), tight_edges=[],
                         final_partition=Partition.whole(h.n))
        return ReinforcementResult(status="optimal", x=EdgeVector.zeros(h.m),
                                   cost=Fraction(0), dual=dual)

    # the loop runs on integers: reduced costs and duals over the costs'
    # common denominator cscale, multiplicities over the bounds' bscale,
    # with kb = k * bscale
    cnums, cscale = costs._integers()
    reduced = list(cnums)
    bdual = [0] * h.m
    gammas: dict[Partition, int] = {}
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

        value, group = _subproblem(h, held, ubi, kb, current, trigger)
        assert value <= 0
        if group:
            merged_partition, merged, inside, lam = canonicalize_merge(
                h, current, group, trigger, held, xi, kb)
            assert trigger in inside, "triggering edge does not lie inside the merged block"
            assert 0 <= lam <= ubi[trigger], "merge deficit outside the edge bound"
            xi[trigger] = lam
            merges.append(MergeDescriptor(block_indices=group, merged=merged,
                                          value=Fraction(lam, bscale)))
            assert sum([xi[e] for e in inside]) == kb * (len(merged) - 1), \
                "merged block misses its exact requirement"
            candidates -= inside
            held -= inside
            current = merged_partition
        else:
            xi[trigger] = ubi[trigger]
        assert value < 0 or current == Partition.whole(h.n), \
            "zero-value optimum is not the one-block partition"
        assert _partition_value(h, tight, ubi, kb, current) == value, \
            "new partition misses the subproblem value"
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
    x = [Fraction(xe, bscale) for xe in xi]
    if bounds is None or bounds.is_integral():
        assert all(v.denominator == 1 for v in x), "integral data, fractional optimum"
    return ReinforcementResult(status="optimal", x=EdgeVector(x),
                               cost=Fraction(cost, cscale * bscale),
                               dual=dual_state(current), merges=tuple(merges))
