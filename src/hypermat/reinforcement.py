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
optimum is the current partition or the current one with one group of
blocks merged, a group holding every block the admitted edge meets.  The
group's blocks fuse (`canonicalize_merge`), and the admitted edge takes
the merge's deficit: what the tight edges between those blocks lack of
k * (blocks - 1).  Without a merge it enters at its bound.  The
one-block partition certifies primal feasibility; running out of
crossing edges proves infeasibility with the current partition as the
certificate.  Every dual update keeps feasibility and complementary
slackness, checked by `if ...: raise`, so `python -O` keeps them, and
the final cost equality proves optimality; with integer k and bounds the
multiplicities come out integral.

No cut finds the group: the admitted edges join one gathering pass
(`matroid._Gathering`) at capacity k with their bounds as demands, and
the blocks are its maximal tight sets, the X with x(E[X]) = k (|X| - 1).
Proof, for the admitted edge t, by induction on the rounds:
1. A set tight after t joins that spans two blocks holds t, else it
   was tight before.  Tight sets that meet have a tight union, so the
   maximal tight set M holding t, if any, is a union of blocks.
2. `_Gathering.join` from the blocks over t and the held crossing edges
   leaves M one group, by the argument of `_Gathering.blocks`.  A held
   crossing edge outside M has no tight set, as it would span two blocks,
   so the groups are M and the other blocks: the next maximal tight sets.
3. Every held edge but t took its bound u.  For a group S of the blocks,
   t's among them, on V(S), the deficit k (|V(S)| - 1) - x(E[V(S)]) before
   t joins is D(S) = k (|S| - 1) - u(held edges inside V(S) but t), and
   merging S changes the subproblem value by D(S) - u_t.  Adding a tight
   block that a set meets never raises the set's deficit, so the pass
   gives t a = min(u_t, min D), and the V(S) tight afterwards are those
   with D(S) = a: the merges that lower the value most, when one does
   not raise it.  M is the largest, so ties go to the merge.
4. So with a merge a = D(M), the deficit `canonicalize_merge` recounts
   from x, and without one a = u_t; both are checked.

A round costs what it touches: a heap on costs gives the next edge, and
a merge relabels and walks the incidence of all but its largest block.
The blocks are plain lists (`_Blocks`): a block's position in the
canonical order is a bisection of the sorted least vertices, and a
`Partition` is built only where one is handed out, for a raised round,
the infeasibility certificate and the final partition.  The round checks
stay per merge: the fused block's running sum of x against
k * (|block| - 1), and a partially used edge's block ids once, when it
becomes partial, as blocks only coarsen.  Costs and bounds come in as
Fractions, and every number handed out is one, one per distinct value;
the loop runs on integers over their denominators.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Container, Sequence

from .core import EdgeVector, Hypergraph, Partition
from .matroid import _find, _Gathering


@dataclass(frozen=True)
class MergeDescriptor:
    """One merge of a reinforcement round, read off the gathering pass.

    block_indices are the positions of the old partition's blocks in the
    pass's new maximal tight set, the vertex set `merged`; value is the
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
    Entries equal in value may be the same immutable Fraction object.
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


class _Blocks:
    """The current blocks of a reinforcement run, kept as plain lists.

    A block's id is a vertex, and a fused block keeps the id of the
    largest block it absorbed.  `label` maps each vertex to its block's
    id; `members`, `least`, `inner` and `xsum` give each live block's
    vertices, least vertex, the edges inside it and the sum of x over
    those edges.  `leasts` is the sorted list of the live blocks' least
    vertices, so a block's position in the order `Partition` sorts
    blocks by is one bisection.
    """

    __slots__ = ("label", "members", "least", "leasts", "inner", "xsum")

    def __init__(self, inner: list[set[int]]) -> None:
        n = len(inner)
        self.label = list(range(n))
        self.members: list[list[int]] = [[v] for v in range(n)]
        self.least = list(range(n))
        self.leasts = list(range(n))
        self.inner = inner
        self.xsum = [0] * n

    def partition(self) -> Partition:
        members, label = self.members, self.label
        return Partition(len(label), tuple([tuple(members[label[v]]) for v in self.leasts]))


def canonicalize_merge(h: Hypergraph, incident: Sequence[Sequence[int]], blocks: _Blocks,
                       group: Collection[int], trigger: int, held: Container[int],
                       x: Sequence[int],
                       threshold: int) -> tuple[frozenset[int], set[int], list[int], int]:
    """The merge step of a reinforcement round: fuse the blocks in `group`.

    `group` holds the ids of the blocks that the round's new tight set
    fuses; `held` is the tight edges crossing the current blocks, the
    trigger among them, and `incident` lists each vertex's edges.  The
    group's largest block absorbs the others: their vertices take its id
    and join its members, its inside-edge set gains the edges of their
    vertices that lie inside the fused set, and its sum of x gains x over
    those.  Their least vertices leave `leasts`, the fused block keeping
    the least of all.  So a merge walks the members and incidence of the
    smaller blocks only.  Returns the fused vertex set, the edges inside
    it, the ones among those that the largest block did not hold, and the
    deficit the trigger takes: what the other held edges inside lack of
    threshold * (|group| - 1).  Multiplicities x and the threshold are
    integers over one denominator.
    """
    label, members, least, leasts, inner = (blocks.label, blocks.members, blocks.least,
                                            blocks.leasts, blocks.inner)
    edges = h.edges
    largest = max(group, key=lambda b: len(members[b]))
    others = [b for b in group if b != largest]
    fused = members[largest]
    for b in others:
        for v in members[b]:
            label[v] = largest
        fused.extend(members[b])
    merged = frozenset(fused)
    inside = inner[largest]
    added: list[int] = []
    for b in others:
        for v in members[b]:
            for e in incident[v]:
                if e not in inside and merged.issuperset(edges[e].vertices):
                    inside.add(e)
                    added.append(e)
        members[b] = []
        inner[b] = set()
    lo = min([least[b] for b in group])
    for b in group:
        if least[b] != lo:
            del leasts[bisect_left(leasts, least[b])]
    least[largest] = lo
    blocks.xsum[largest] += sum([x[e] for e in added])
    # held edges cross the current blocks, so every one inside the fused set was added
    lam = threshold * (len(group) - 1) - sum([x[e] for e in added if e in held and e != trigger])
    return merged, inside, added, lam


def _fractions(values: Sequence[int], scale: int) -> list[Fraction]:
    """The values over scale, one Fraction per distinct value."""
    table = {v: Fraction(v, scale) for v in set(values)}
    return [table[v] for v in values]


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
    # with kb = k * bscale the pass's capacity
    cnums, cscale = costs._integers()
    reduced = list(cnums)
    bdual = [0] * h.m
    gammas: dict[Partition, int] = {}
    xi = [0] * h.m
    kb = tree_count * bscale
    tight: list[int] = []
    merges: list[MergeDescriptor] = []
    # each vertex's edges, and the edges inside each singleton block; the
    # crossing edges of the current blocks, split into the open candidates
    # and the tight ones
    incident: list[list[int]] = [[] for _ in range(h.n)]
    inner: list[set[int]] = [set() for _ in range(h.n)]
    candidates: set[int] = set()
    for e, edge in enumerate(h.edges):
        for v in edge.vertices:
            incident[v].append(e)
        if edge.is_loop:
            inner[edge.vertices[0]].add(e)
        else:
            candidates.add(e)
    # the current blocks, and the Partition of them once one is read
    blocks = _Blocks(inner)
    current: Partition | None = None
    # partitions only coarsen, so a candidate has taken every step: its
    # reduced cost is cnums[e] - raised, and a held edge's bound dual is
    # raised less its value when the edge was admitted, kept in `held`;
    # both are written out as the edge leaves, the rest at the end
    raised = 0
    queue = [(cnums[e], e) for e in candidates]
    heapq.heapify(queue)
    held: dict[int, int] = {}
    # the admitted edges' amounts at capacity kb, and a union-find whose
    # groups are the current blocks: the pass's maximal tight sets
    gathering = _Gathering(h.n, kb)
    root = list(range(h.n))

    def release(e: int) -> None:
        if e in candidates:
            candidates.remove(e)
            reduced[e] = cnums[e] - raised
        elif e in held:
            bdual[e] = raised - held.pop(e)
            if bdual[e] > 0 and xi[e] != ubi[e]:
                raise AssertionError("crossing tight edge below its bound")

    def dual_state(p: Partition) -> DualState:
        gathering.certify()
        for e in [*candidates, *held]:
            release(e)
        if min(reduced, default=0) < 0 or min(bdual, default=0) < 0:
            raise AssertionError("a dual variable went negative")
        return DualState(
            partition_duals=[(q, Fraction(g, cscale)) for q, g in gammas.items()],
            bound_duals=_fractions(bdual, cscale),
            reduced_costs=_fractions(reduced, cscale),
            tight_edges=list(tight), final_partition=p)

    rounds = 0
    while True:
        rounds += 1
        if rounds > h.m + 1:
            raise AssertionError("admitted more edges than exist")
        if not candidates:
            # even at full bounds the crossing edges cannot meet the
            # requirement: the current partition certifies infeasibility
            if current is None:
                current = blocks.partition()
            crossing = h.cross_edges(tight, current)
            if sum([ubi[e] for e in crossing]) >= kb * (len(current.blocks) - 1):
                raise AssertionError("infeasibility certificate meets the requirement")
            return ReinforcementResult(status="infeasible", x=None, cost=None,
                                       dual=dual_state(current), merges=tuple(merges))
        while queue[0][1] not in candidates:
            heapq.heappop(queue)
        top, trigger = heapq.heappop(queue)
        step = top - raised
        if step < 0:
            raise AssertionError("reduced cost went negative")
        if step > 0:
            if current is None:
                current = blocks.partition()
            gammas[current] = gammas.get(current, 0) + step
            raised = top
        tight.append(trigger)
        release(trigger)
        held[trigger] = raised

        verts = h.edges[trigger].vertices
        xi[trigger] = amount = gathering.add(verts, ubi[trigger])
        if gathering.tight_set(verts) is None:
            if amount != ubi[trigger]:
                raise AssertionError("an edge that merges nothing took less than its bound")
            continue
        # the merge is the new maximal tight set holding the trigger
        edges = [h.edges[e].vertices for e in held]
        gathering.join(root, [verts, *edges])
        r = _find(root, verts[0])
        label = blocks.label
        group = {label[v] for vs in edges for v in vs if _find(root, v) == r}
        indices = frozenset([bisect_left(blocks.leasts, blocks.least[b]) for b in group])
        merged, inside, added, lam = canonicalize_merge(h, incident, blocks, group, trigger,
                                                        held, xi, kb)
        if trigger not in inside:
            raise AssertionError("triggering edge does not lie inside the merged block")
        if not 0 <= lam <= ubi[trigger]:
            raise AssertionError("merge deficit outside the edge bound")
        if amount != lam:
            raise AssertionError("the pass's amount is not the merge deficit")
        merges.append(MergeDescriptor(block_indices=indices, merged=merged,
                                      value=Fraction(lam, bscale)))
        fused = label[verts[0]]
        if blocks.xsum[fused] != kb * (len(merged) - 1):
            raise AssertionError("merged block misses its exact requirement")
        # a partially used edge is buried inside its block, and blocks only
        # coarsen, so later raises never touch it
        if 0 < lam < ubi[trigger] and any([label[v] != fused for v in verts]):
            raise AssertionError("partially used edge crosses the partition")
        for e in added:
            release(e)
        current = None
        if len(blocks.leasts) == 1:
            break

    dual = dual_state(Partition.whole(h.n))
    if sum(xi) != kb * (h.n - 1):
        raise AssertionError("terminal multiplicity total off")
    # cost and dual objective over cscale * bscale
    cost = sum([c * xe for c, xe in zip(cnums, xi)])
    dual_obj = sum([g * kb * (len(p.blocks) - 1) for p, g in gammas.items()])
    dual_obj -= sum([u * b for u, b in zip(ubi, bdual)])
    if cost != dual_obj:
        raise AssertionError("primal and dual objectives differ")
    # complementary slackness, exactly
    for p, g in gammas.items():
        if g > 0:
            got = sum([xi[e] for e in h.cross_edges(None, p)])
            if got != kb * (len(p.blocks) - 1):
                raise AssertionError("raised partition not tight in x")
    for e in range(h.m):
        if bdual[e] > 0 and xi[e] != ubi[e]:
            raise AssertionError("bound dual positive on an unsaturated edge")
        if xi[e] > 0 and reduced[e] != 0:
            raise AssertionError("used edge with positive reduced cost")
        if not 0 <= xi[e] <= ubi[e]:
            raise AssertionError("multiplicity outside its bounds")
    x = _fractions(xi, bscale)
    if bounds is None or bounds.is_integral():
        if any(v.denominator != 1 for v in x):
            raise AssertionError("integral data, fractional optimum")
    return ReinforcementResult(status="optimal", x=EdgeVector(x),
                               cost=Fraction(cost, cscale * bscale),
                               dual=dual, merges=tuple(merges))
