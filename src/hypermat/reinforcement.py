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
certificate.  The duals are read off at the end and checked by
`if ...: raise`, so `python -O` keeps them; the final cost equality
proves optimality, and with integer k and bounds the multiplicities come
out integral.

The loop is Edmonds' polymatroid greedy in increasing cost ("Submodular
functions, matroids and certain polyhedra", 1970), one scan of the edges
sorted by (cost, id).  It keeps Cunningham's order: partitions only
coarsen, so an edge inside a block stays inside, and a crossing edge not
yet admitted has crossed every partition raised so far.  Its reduced
cost is its cost less the total raise, one offset for all such edges, so
the least reduced cost, ties to the least id, is the least (cost, id).
The scan skips each edge inside one block when it is reached, loops from
the start, and a round raises by the scanned cost less the total so far,
never a negative amount.  Ending with two or more blocks, the scan has
left no crossing edge: the run is infeasible.

Each edge keeps one fact: whether it lies inside a block, and b, the
total raise when it came there, or the final total if it still crosses.
The raises it crosses sum to b.  An admitted edge entered when the total
was its cost, so its bound dual is b less its cost; any other edge's
reduced cost is its cost less b.  Both are checked nonnegative, which
fails if the scan skipped a crossing edge.

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

A round costs what it touches: the scan gives the next edge, and a
merge relabels and walks the incidence of all but its largest block.
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
    admission order, which is increasing (cost, id); final_partition is
    the last subproblem optimum, and on infeasibility it is the
    certificate violating feasibility.  Entries equal in value may be the
    same immutable Fraction object.
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
    id; `members`, `least` and `xsum` give each live block's vertices,
    least vertex and the sum of x over the edges inside it.  `inside`
    flags each edge that lies inside one block, loops from the start;
    blocks only coarsen, so a flag is never cleared.  `leasts` is the
    sorted list of the live blocks' least vertices, so a block's position
    in the order `Partition` sorts blocks by is one bisection.
    """

    __slots__ = ("label", "members", "least", "leasts", "inside", "xsum")

    def __init__(self, h: Hypergraph) -> None:
        n = h.n
        self.label = list(range(n))
        self.members: list[list[int]] = [[v] for v in range(n)]
        self.least = list(range(n))
        self.leasts = list(range(n))
        self.inside = bytearray([edge.is_loop for edge in h.edges])
        self.xsum = [0] * n

    def partition(self) -> Partition:
        members, label = self.members, self.label
        return Partition(len(label), tuple([tuple(members[label[v]]) for v in self.leasts]))


def canonicalize_merge(h: Hypergraph, incident: Sequence[Sequence[int]], blocks: _Blocks,
                       group: Collection[int], trigger: int, held: Container[int],
                       x: Sequence[int], threshold: int) -> tuple[frozenset[int], list[int], int]:
    """The merge step of a reinforcement round: fuse the blocks in `group`.

    `group` holds the ids of the blocks that the round's new tight set
    fuses; `held` is the tight edges crossing the current blocks, the
    trigger among them, and `incident` lists each vertex's edges.  The
    group's largest block absorbs the others: their vertices take its id
    and join its members.  The merge buries the edges that crossed the
    blocks and lie inside the fused set; each meets a smaller block, so
    they are read from the incidence of the smaller blocks and flagged
    inside.  The fused block's sum of x is the group's sums plus x over
    the buried edges.  The smaller blocks' least vertices leave `leasts`,
    the fused block keeping the least of all.  So a merge walks the
    members and incidence of the smaller blocks only.  Returns the fused
    vertex set, the buried edges, and the deficit the trigger takes: what
    the other held edges inside lack of threshold * (|group| - 1).
    Multiplicities x and the threshold are integers over one denominator.
    """
    label, members, least, leasts, inside, xsum = (blocks.label, blocks.members, blocks.least,
                                                   blocks.leasts, blocks.inside, blocks.xsum)
    edges = h.edges
    largest = max(group, key=lambda b: len(members[b]))
    others = [b for b in group if b != largest]
    fused = members[largest]
    for b in others:
        for v in members[b]:
            label[v] = largest
        fused.extend(members[b])
    merged = frozenset(fused)
    added: list[int] = []
    for b in others:
        for v in members[b]:
            for e in incident[v]:
                if not inside[e] and merged.issuperset(edges[e].vertices):
                    inside[e] = 1
                    added.append(e)
        members[b] = []
    lo = min([least[b] for b in group])
    for b in group:
        if least[b] != lo:
            del leasts[bisect_left(leasts, least[b])]
    least[largest] = lo
    xsum[largest] = sum([xsum[b] for b in group]) + sum([x[e] for e in added])
    # every held edge inside the fused set crossed the blocks, so it is buried here
    lam = threshold * (len(group) - 1) - sum([x[e] for e in added if e in held and e != trigger])
    return merged, added, lam


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
    gammas: dict[Partition, int] = {}
    xi = [0] * h.m
    kb = tree_count * bscale
    tight: list[int] = []
    merges: list[MergeDescriptor] = []
    incident: list[list[int]] = [[] for _ in range(h.n)]
    for e, edge in enumerate(h.edges):
        for v in edge.vertices:
            incident[v].append(e)
    # the current blocks, and the Partition of them once one is read
    blocks = _Blocks(h)
    inside = blocks.inside
    current: Partition | None = None
    # the total raise, each edge's total when it came inside a block, and
    # the admitted edges that still cross
    raised = 0
    buried = [0] * h.m
    held: set[int] = set()
    # the admitted edges' amounts at capacity kb, and a union-find whose
    # groups are the current blocks: the pass's maximal tight sets
    gathering = _Gathering(h.n, kb)
    root = list(range(h.n))

    # a stable sort, so equal costs go in id order
    for trigger in sorted(range(h.m), key=cnums.__getitem__):
        if inside[trigger]:
            continue
        if cnums[trigger] > raised:
            if current is None:
                current = blocks.partition()
            gammas[current] = gammas.get(current, 0) + cnums[trigger] - raised
            raised = cnums[trigger]
        tight.append(trigger)
        held.add(trigger)

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
        merged, added, lam = canonicalize_merge(h, incident, blocks, group, trigger, held, xi, kb)
        if not inside[trigger]:
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
            buried[e] = raised
        held.difference_update(added)
        current = None
        if len(blocks.leasts) == 1:
            break
    else:
        # even at full bounds the crossing edges cannot meet the
        # requirement: the current partition certifies infeasibility
        if current is None:
            current = blocks.partition()
        crossing = h.cross_edges(tight, current)
        if sum([ubi[e] for e in crossing]) >= kb * (len(current.blocks) - 1):
            raise AssertionError("infeasibility certificate meets the requirement")

    feasible = len(blocks.leasts) == 1
    gathering.certify()
    # every dual from each edge's raise b, as the module docstring says
    reduced = [c - (b if flag else raised) for c, b, flag in zip(cnums, buried, inside)]
    bdual = [0] * h.m
    for e in tight:
        bdual[e], reduced[e] = -reduced[e], 0
        if bdual[e] > 0 and xi[e] != ubi[e]:
            raise AssertionError("bound dual positive on an unsaturated edge")
    if min(reduced, default=0) < 0 or min(bdual, default=0) < 0:
        raise AssertionError("a dual variable went negative")
    dual = DualState(
        partition_duals=[(q, Fraction(g, cscale)) for q, g in gammas.items()],
        bound_duals=_fractions(bdual, cscale), reduced_costs=_fractions(reduced, cscale),
        tight_edges=tight, final_partition=Partition.whole(h.n) if feasible else current)
    if not feasible:
        return ReinforcementResult(status="infeasible", x=None, cost=None, dual=dual,
                                   merges=tuple(merges))

    if sum(xi) != kb * (h.n - 1):
        raise AssertionError("terminal multiplicity total off")
    # cost and dual objective over cscale * bscale
    cost = sum([c * xe for c, xe in zip(cnums, xi)])
    dual_obj = sum([g * kb * (len(p.blocks) - 1) for p, g in gammas.items()])
    dual_obj -= sum([u * b for u, b in zip(ubi, bdual)])
    if cost != dual_obj:
        raise AssertionError("primal and dual objectives differ")
    # complementary slackness, exactly, and each edge's raises: those of
    # the partitions it crosses
    covered = [0] * h.m
    for p, g in gammas.items():
        crossing = h.cross_edges(None, p)
        if sum([xi[e] for e in crossing]) != kb * (len(p.blocks) - 1):
            raise AssertionError("raised partition not tight in x")
        for e in crossing:
            covered[e] += g
    for e in range(h.m):
        if reduced[e] != cnums[e] - covered[e] + bdual[e]:
            raise AssertionError("reduced cost is not cost less crossed raises plus bound dual")
        if not 0 <= xi[e] <= ubi[e]:
            raise AssertionError("multiplicity outside its bounds")
    x = _fractions(xi, bscale)
    if bounds is None or bounds.is_integral():
        if any(v.denominator != 1 for v in x):
            raise AssertionError("integral data, fractional optimum")
    return ReinforcementResult(status="optimal", x=EdgeVector(x),
                               cost=Fraction(cost, cscale * bscale),
                               dual=dual, merges=tuple(merges))
