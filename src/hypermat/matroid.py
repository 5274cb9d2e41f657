"""Rank, independence, greedy optimization, and polytope separation.

The underlying matroid is the hypergraphic one: an edge set is
independent (a hyperforest) when every nonempty vertex set X contains at
most |X| - 1 of its edges, and the rank of an edge set F is

    min over partitions P of  |V| - |P| + |crossing edges of F|.

Independence is also a Hall condition with surplus one (Lorea, 1975):
F is a hyperforest when every nonempty F' of F has |union(F')| >= |F'| + 1.
So a hyperforest F stays one with an edge e exactly when F, e and a
second copy of e can each hold a vertex of its own.

The same condition with surplus p and integer demands q_e reads
q(F') <= p (|V(F')| - 1) for every nonempty edge family F'.  One
gathering pass tests it with no cut: it keeps each accepted edge's
demand split over its own vertices, at most p units on a vertex, and
moves free units onto the next edge by breadth-first bulk moves (the
pebble game of Lee and Streinu).  Rank, independence and the greedy
forest run it at p = q_e = 1, where each kept edge holds one vertex and
a Lorea trimming certifies the kept set.  Polytope membership is the
test at surplus x's common denominator, and strength and arboricity
certify their Newton rounds with it.

The pass also names its maximal tight sets, its blocks.  At cap 1 they
are rank's witness partition.  Where the pass rejects, strength takes
them as its next anchor (see `packing`), and separation and arboricity
find the most violated set through one routine: one unforced min cut on
the selection gadget, and, only when that cut names no set, one forced
cut per block.  Reinforcement reads each merge with `join`, the routine
`blocks` reads with, from one pass kept for its run.  No enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .core import EdgeVector, Hypergraph, Partition
from .gadgets import GadgetEngine, build_supermodular_gadget


@dataclass(frozen=True)
class RankResult:
    """Rank of an edge set with a partition attaining the defining minimum."""

    rank: int
    witness_partition: Partition


@dataclass(frozen=True)
class InPolytope:
    """The point satisfies every hyperforest polytope constraint."""


@dataclass(frozen=True)
class BoundViolation:
    """A single coordinate falls outside its box constraint.

    upper is the violated ceiling (1 in general, 0 on a singleton edge);
    upper None means the coordinate is negative, violating x >= 0.
    """

    edge: int
    value: Fraction
    upper: Fraction | None


@dataclass(frozen=True)
class SetViolation:
    """A vertex set whose induced edges carry more weight than its tree bound.

    lhs = x(edge_set) exceeds rhs = |witness| - 1; the partition form of
    the same inequality keeps the witness as one block and everything
    else as singletons.
    """

    witness: frozenset[int]
    lhs: Fraction
    rhs: int
    edge_set: frozenset[int]
    partition: Partition


SeparationOutcome = Union[InPolytope, BoundViolation, SetViolation]


class _Gathering:
    """Accepted edge demands, each split in integer units over its own vertices.

    Every vertex holds at most `cap` units.  The accepted edge in slot f
    keeps amount[f] units, split[f][v] > 0 of them on each vertex v in
    its split, and holders[v] lists the slots with units on v;
    free[v] is cap less the units on v.

    An edge takes t units once cap + t free units lie on its vertices.
    Each family F' holding it then keeps y(F') <= cap (|V(F')| - 1) for
    the accepted amounts y: the rest of F' sits on V(F'), where at least
    cap + t units are free.  Free units are gathered onto the edge by
    breadth-first bulk moves, each shifting a path's bottleneck of units
    from one holder to the next.  This is the pebble game of Lee and
    Streinu (Discrete Math. 308, 2008) at k = l = cap, carried to
    hypergraphs by Streinu and Theran (European J. Combin. 30, 2009).
    When no search reaches a free unit, every slot with units on the
    reached set R lies inside R and they hold cap |R| less the units
    free on the edge, which bounds what it can take.

    At cap 1 with unit demands the accepted edges form a hyperforest and
    each holds one vertex of its own: Lorea's Hall condition with
    surplus one, which `certify_forest` checks.

    The checks raise AssertionError, the error of the certificate checks
    elsewhere in the package, and do not depend on assertions being on.
    """

    def __init__(self, n: int, cap: int) -> None:
        self.cap = cap
        self.free = [cap] * n
        self.holders: list[list[int]] = [[] for _ in range(n)]
        self.slots: list[tuple[int, ...]] = []
        self.split: list[dict[int, int]] = []
        self.amount: list[int] = []
        # the last search to reach each vertex, and the slot whose units it
        # moves onto that vertex: no search starts by clearing n entries
        self.seen = [0] * n
        self.via = [-1] * n
        self.searches = 0

    def _search(self, verts: tuple[int, ...]) -> tuple[int, list[int], dict[int, int]]:
        """Breadth-first search from verts for a vertex outside them with free units.

        Returns that vertex, or -1 when none is reached, and the search's
        tree: via[w] is the slot whose units move onto a reached vertex w
        (-1 on verts; stale off the reached set), and expanded[f] is the
        reached vertex that slot f's units move off.  A failed search
        expands every slot with units on a reached vertex, each once.
        """
        free, holders, slots, seen, via = self.free, self.holders, self.slots, self.seen, self.via
        self.searches += 1
        stamp = self.searches
        for v in verts:
            seen[v] = stamp
            via[v] = -1
        expanded: dict[int, int] = {}
        queue = list(verts)
        for v in queue:
            for f in holders[v]:
                if f in expanded:
                    continue
                expanded[f] = v
                for w in slots[f]:
                    if seen[w] != stamp:
                        seen[w] = stamp
                        via[w] = f
                        if free[w]:
                            return w, via, expanded
                        queue.append(w)
        return -1, via, expanded

    def _gather(self, verts: tuple[int, ...], demand: int) -> tuple[int, frozenset[int] | None]:
        """Move free units onto verts until cap + demand lie there, and return how much of demand fits.

        Short of the demand, the failed search's reached set comes back
        too, else None.  The slots with units on it lie inside it and,
        with the edge, break y(F') <= cap (|V(F')| - 1), checked by
        counting the accepted amounts.  Every move leaves each split on
        its own edge, so the moves stay either way.
        """
        cap, free, split, holders = self.cap, self.free, self.split, self.holders
        need = cap + demand
        gathered = sum([free[v] for v in verts])
        while gathered < need:
            w, via, expanded = self._search(verts)
            if w < 0:
                break
            delta = min(free[w], need - gathered)
            u = w
            while via[u] >= 0:
                f = via[u]
                u = expanded[f]
                delta = min(delta, split[f][u])
            free[w] -= delta
            while via[w] >= 0:
                f = via[w]
                v = expanded[f]
                units = split[f]
                units[v] -= delta
                if not units[v]:
                    del units[v]
                    holders[v].remove(f)
                if w in units:
                    units[w] += delta
                else:
                    units[w] = delta
                    holders[w].append(f)
                w = v
            free[w] += delta
            gathered += delta
        amount = max(0, min(demand, gathered - cap))
        if sum([free[v] for v in verts]) < cap + amount:
            raise AssertionError("an accepted edge gathered too few free units")
        if amount == demand:
            return amount, None
        reached = frozenset(verts).union(*[self.slots[f] for f in expanded])
        if sum([self.amount[f] for f in expanded]) + demand <= cap * (len(reached) - 1):
            raise AssertionError("a rejected edge has no sparsity violator")
        return amount, reached

    def add(self, verts: tuple[int, ...], demand: int) -> int:
        """Accept as many units of an edge on verts as fit, up to demand, and return that amount."""
        free, holders = self.free, self.holders
        amount, _ = self._gather(verts, demand)
        if amount:
            f = len(self.slots)
            units = {}
            left = amount
            for v in verts:
                take = min(free[v], left)
                if take:
                    free[v] -= take
                    units[v] = take
                    holders[v].append(f)
                    left -= take
            self.slots.append(verts)
            self.split.append(units)
            self.amount.append(amount)
        return amount

    def tight_set(self, verts: tuple[int, ...]) -> frozenset[int] | None:
        """A tight set holding an accepted edge on verts, or None when no tight set holds it.

        A set X is tight when the accepted edges inside it hold
        cap (|X| - 1) units.  One more unit of the edge fits unless a
        tight set holds it, and then the reached set of the failed
        gathering is one.  Nothing is accepted.
        """
        return self._gather(verts, 1)[1]

    def blocks(self) -> Partition:
        """The maximal tight sets, as a partition of the vertices.

        Tight sets that meet have a tight union (cap >= 1), so the maximal
        ones, the blocks, partition V.  `join` reads them over every slot
        in order, from singletons.  Searches move units, not amounts, so
        what is tight stays tight.

        Proof.  A tight set read lies in one block B, as its union with B
        is tight, so every group is a tight set inside one block.  Each
        slot inside B has a tight set and ends inside one group: a read
        slot in the set it joined, a skipped one in the group that held
        it.  Skipping loses nothing, as every slot crossing two groups is
        read.  If B splits into k groups, a lone vertex counting as one,
        its slots hold cap (|B| - k) units; B is tight, so k = 1.  When
        the pass holds cap (|V| - 1) units, V is tight and no walk runs.
        """
        n = len(self.free)
        if sum(self.amount) == self.cap * (n - 1):
            return Partition.whole(n)
        root = list(range(n))
        self.join(root, self.slots)
        groups: dict[int, list[int]] = {}
        for v in range(n):
            groups.setdefault(_find(root, v), []).append(v)
        return Partition(n, tuple([tuple(b) for b in groups.values()]))

    def join(self, root: list[int], slots: Iterable[tuple[int, ...]]) -> None:
        """Join in `root` the `tight_set` of each edge on slots whose vertices span two roots.

        Groups that are tight sets or lone vertices stay so, as tight sets
        that meet have a tight union.
        """
        for verts in slots:
            r = _find(root, verts[0])
            if all([_find(root, v) == r for v in verts]):
                continue
            for v in self.tight_set(verts) or ():
                root[_find(root, v)] = r

    def certify(self) -> None:
        """Check that each slot's units sum to its amount on its own vertices and no load passes cap."""
        load = [0] * len(self.free)
        for verts, units, amount in zip(self.slots, self.split, self.amount):
            if sum(units.values()) != amount or not all([v in verts and units[v] > 0 for v in units]):
                raise AssertionError("an accepted edge's units leave its split")
            for v, u in units.items():
                load[v] += u
        if any([load[v] > self.cap or load[v] + f != self.cap for v, f in enumerate(self.free)]):
            raise AssertionError("a vertex load passes its capacity")

    def certify_forest(self) -> None:
        """Check that the accepted edges form a hyperforest by trimming them (Lorea).

        Each slot must keep exactly one unit, and the vertex under it is
        the one the slot holds.  A breadth-first search from the vertices
        no slot holds reaches each slot through one of its vertices and
        pairs that vertex with the slot's held one.  Each pair inside its
        edge and the pairs forming a forest give every nonempty subfamily
        F' at least |F'| + 1 vertices, so every subset of the family is
        independent.
        """
        slots = self.slots
        n = len(self.free)
        held: list[int] = []
        for units in self.split:
            if list(units.values()) != [1]:
                raise AssertionError("a kept edge holds other than one unit")
            held.extend(units)
        touching: list[list[int]] = [[] for _ in range(n)]
        for s, verts in enumerate(slots):
            for v in verts:
                touching[v].append(s)
        holds = set(held)
        queue = [v for v in range(n) if v not in holds]
        reached = bytearray(len(slots))
        root = list(range(n))
        for u in queue:
            for s in touching[u]:
                if reached[s]:
                    continue
                reached[s] = 1
                w = held[s]
                if w not in slots[s]:
                    raise AssertionError("a trimmed pair leaves its edge")
                ru, rw = _find(root, u), _find(root, w)
                if ru == rw:
                    raise AssertionError("the trimmed pairs close a cycle")
                root[ru] = rw
                queue.append(w)
        if not all(reached):
            raise AssertionError("the trimming missed an edge")


def _pass(h: Hypergraph, cap: int, demands: Sequence[int], goal: int) -> tuple[int, _Gathering]:
    """Offer the edges in id order to one pass until it accepts goal units; return its total and the pass.

    Each edge takes what fits of its demand.  The accepted amounts y keep
    y(F') <= cap (|V(F')| - 1) for every nonempty edge family F', and a
    total short of goal is the most that any such y accepts, a
    polymatroid's rank: every edge has then been offered.  With the whole
    demand as goal this asks whether every F' has demand(F') <=
    cap (|V(F')| - 1); with cap (|V| - 1) as goal, whether the rank
    reaches that bound, the bound at F' = E.
    """
    gathering = _Gathering(h.n, cap)
    total = 0
    for e, demand in enumerate(demands):
        if total >= goal:
            break
        if demand:
            total += gathering.add(h.edges[e].vertices, demand)
    gathering.certify()
    return total, gathering


def _most_violated(h: Hypergraph, cap: int, demands: Sequence[int]) -> frozenset[int] | None:
    """The first W in vertex order minimizing f(W) = cap |W| - demand(E[W]) over nonempty W.

    None when the gathering pass proves demand(E[W]) <= cap (|W| - 1)
    for every W; no pass runs when the whole demand exceeds cap (|V| - 1),
    which rules that out.  Else one unforced cut names the maximal
    minimizer over all W; the minimizers of this submodular function,
    0 at the empty set, are closed under union, so a nonempty one is the
    answer.  An empty one calls for one forced cut per block of a pass
    that offered every edge, at its least vertex, in order, on the same
    warm engine.

    Why per block: let refused(X) be the demand the pass refused on the
    edges inside X.  A block B is tight, so f(B) = cap - refused(B) <=
    f(X) for every nonempty X inside B, and for W meeting B
    submodularity gives f(W | B) <= f(W) + f(B) - f(W & B) <= f(W).  So
    the maximal minimizer forced at any vertex of B holds B, and B's
    vertices share it: the first minimum is at some block's least vertex.
    """
    goal = sum(demands)
    gathering = None
    if goal <= cap * (h.n - 1):
        total, gathering = _pass(h, cap, demands, goal)
        if total == goal:
            return None
    engine = GadgetEngine(build_supermodular_gadget(h, demands, [cap] * h.n))
    best = engine.solve()
    if best.witness:
        if best.value > 0:
            raise AssertionError("a nonempty unforced witness scores above the empty set")
    else:
        if gathering is None:
            _, gathering = _pass(h, cap, demands, goal)
        forced = []
        for block in gathering.blocks():
            engine.force(block[0])
            forced.append(engine.solve())
        best = min(forced, key=lambda info: info.value)
    if best.value >= cap:
        raise AssertionError("the cuts find no violated set the gathering pass rejected")
    return best.witness


def _find(root: list[int], v: int) -> int:
    while root[v] != v:
        root[v] = root[root[v]]
        v = root[v]
    return v


def _greedy(h: Hypergraph, order: Iterable[int]) -> tuple[list[int], _Gathering]:
    """Keep each edge in order that leaves the kept ones a hyperforest.

    Each edge is tested by gathering two free units onto it at cap 1.
    Stops at |V| - 1 kept edges, the most a hyperforest has, and
    certifies the kept set before returning it with its pass.
    """
    gathering = _Gathering(h.n, 1)
    chosen: list[int] = []
    for e in order:
        if len(chosen) >= h.n - 1:
            break
        if gathering.add(h.edges[e].vertices, 1):
            chosen.append(e)
    gathering.certify_forest()
    return chosen, gathering


def rank(h: Hypergraph, edge_ids: Iterable[int] | None = None) -> RankResult:
    """Rank of the selected edges, with a witness partition.

    A basis B is kept in id order, stopping at |V| - 1 edges.  The
    blocks of its pass, the maximal B-tight sets (|X| - 1 edges of B
    inside X), are the coarsest partition attaining the rank formula,
    whose value |V| - |P| + |crossing| is checked to equal |B|.
    """
    if h.n < 1:
        raise ValueError("no vertices")
    ids = h._edge_id_list(edge_ids)
    basis, gathering = _greedy(h, ids)
    p = gathering.blocks()
    r = len(basis)
    crossing = h.cross_edges(ids, p)
    if r != h.n - len(p.blocks) + len(crossing):
        raise AssertionError("witness does not attain the rank")
    if not (0 <= r <= max(h.n - 1, 0) and r <= len(ids)):
        raise AssertionError("the rank leaves its range")
    return RankResult(rank=r, witness_partition=p)


def is_independent(h: Hypergraph, edge_ids: Iterable[int] | None = None) -> bool:
    """Whether the selected edges form a hyperforest.

    More than |V| - 1 edges are dependent without any search: no rank
    exceeds |V| - 1.  Otherwise the greedy in id order keeps every edge
    exactly when they form one.
    """
    ids = h._edge_id_list(edge_ids)
    if not ids:
        return True
    if len(ids) > h.n - 1:
        return False
    return len(_greedy(h, ids)[0]) == len(ids)


def independence_test_incremental(h: Hypergraph, independent_ids: Sequence[int],
                                  candidate: int) -> bool:
    """Whether an independent set stays independent with one more edge.

    The greedy runs over the set's edges and then the candidate.  It keeps
    every edge of the set exactly when the set is independent, else a
    ValueError, and then keeps the candidate exactly when the set stays
    independent with it.
    """
    if not all([0 <= e < h.m for e in (*independent_ids, candidate)]):
        raise ValueError("edge id out of range")
    if candidate in independent_ids:
        raise ValueError("candidate already in the set")
    if len(set(independent_ids)) != len(independent_ids):
        raise ValueError("duplicate edge ids in the set")
    chosen, _ = _greedy(h, [*independent_ids, candidate])
    if chosen[:len(independent_ids)] != [*independent_ids]:
        raise ValueError("the given set is not independent")
    return len(chosen) > len(independent_ids)


def max_weight_hyperforest(h: Hypergraph, weights: EdgeVector) -> tuple[frozenset[int], Fraction]:
    """Maximum-weight independent edge set by the matroid greedy.

    Edges are scanned by decreasing weight (id order breaks ties), each
    tested on one gathering pass at cap 1 kept for the whole scan; the
    scan stops early at |V| - 1 edges, the largest any hyperforest can
    be.  The weights are compared as integers over their common positive
    denominator, which keeps their order.  Zero-weight edges are still
    eligible: the returned set is a maximal hyperforest among the
    optimal ones.
    """
    weights.require_length(h.m, "weights")
    weights.require_nonnegative("weights")
    nums, _ = weights._integers()
    chosen, _ = _greedy(h, sorted(range(h.m), key=lambda e: (-nums[e], e)))
    return frozenset(chosen), weights.sum_over(chosen)


def separate_polytope(h: Hypergraph, x: EdgeVector) -> SeparationOutcome:
    """Exact separation for the hyperforest polytope.

    Box constraints are screened first (x >= 0, x <= 1, and x = 0 on
    singleton edges, whose rank is zero).  With x = nums / scale, the
    point lies in the polytope exactly when every edge family F' has
    nums(F') <= scale (|V(F')| - 1); when x(E) <= |V| - 1, the gathering
    pass tests that with no cut.  Where it rejects, `_most_violated`
    finds the first minimum in vertex order of |W| - x(E[W]) over
    nonempty vertex sets W, by one cut when it is at most 0, else by one
    forced cut per block of the pass.  That minimum lies below 1 and
    yields the most violated induced-set inequality x(E[W]) <= |W| - 1,
    also returned in partition form.
    """
    x.require_length(h.m, "point")
    for e in range(h.m):
        if x[e] < 0:
            return BoundViolation(edge=e, value=x[e], upper=None)
        if h.edges[e].is_loop and x[e] > 0:
            return BoundViolation(edge=e, value=x[e], upper=Fraction(0))
        if x[e] > 1:
            return BoundViolation(edge=e, value=x[e], upper=Fraction(1))
    if not h.n:
        return InPolytope()
    nums, scale = x._integers()
    witness = _most_violated(h, scale, nums)
    if witness is None:
        return InPolytope()
    edge_set = h.induced_edges(None, witness)
    lhs = x.sum_over(edge_set)
    rhs = len(witness) - 1
    if lhs <= rhs:
        raise AssertionError("violation reported but inequality holds")
    rest = [(v,) for v in range(h.n) if v not in witness]
    partition = Partition(h.n, tuple([tuple(sorted(witness))] + rest))
    return SetViolation(witness=witness, lhs=lhs, rhs=rhs,
                        edge_set=edge_set, partition=partition)
