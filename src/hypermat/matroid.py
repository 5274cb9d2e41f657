"""Rank, independence, greedy optimization, and polytope separation.

The underlying matroid is the hypergraphic one: an edge set is
independent (a hyperforest) when every nonempty vertex set X contains at
most |X| - 1 of its edges, and the rank of an edge set F is

    min over partitions P of  |V| - |P| + |crossing edges of F|.

Independence is also a Hall condition with surplus one (Lorea, 1975):
F is a hyperforest when every nonempty F' of F has |union(F')| >= |F'| + 1.
So a hyperforest F stays one with an edge e exactly when F, e and a
second copy of e can each hold a vertex of its own.  Rank, independence
and the greedy forest keep such a matching of edges to vertices and
test each edge by two augmenting-path searches, in integers and with no
cut.  Polytope separation minimizes a set function by min cuts on the
selection gadget.  No enumeration happens here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .core import EdgeVector, Hypergraph, Partition
from .gadgets import build_supermodular_gadget, forced_sweep


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


class _Matching:
    """A matching of a growing edge family into the vertices.

    Edges sit in slots, added and removed at the end.  held[s] is the
    vertex slot s holds (-1 while it holds none) and owner[v] the slot
    holding v (-1 while v is free).  Every kept family is a hyperforest,
    and a hyperforest always has such a matching: its edges hold
    distinct vertices.
    """

    def __init__(self, n: int) -> None:
        self.owner = [-1] * n
        self.slots: list[tuple[int, ...]] = []
        self.held: list[int] = []

    def _push(self, verts: tuple[int, ...]) -> list[int] | None:
        """Add a slot on verts and search for an augmenting path from it.

        Returns None once the new slot holds a vertex.  Otherwise returns
        the slots the search reached, the new one first: every vertex of
        theirs is held by one of them, so they hold one vertex too few.
        A failed search changes no held vertex.
        """
        slots, held, owner = self.slots, self.held, self.owner
        start = len(slots)
        slots.append(verts)
        held.append(-1)
        parent = {start: -1}
        queue = [start]
        for s in queue:
            for v in slots[s]:
                t = owner[v]
                if t < 0:
                    # s takes the free vertex, and each slot up the path
                    # takes the vertex its child held
                    while s >= 0:
                        held[s], v = v, held[s]
                        owner[held[s]] = s
                        s = parent[s]
                    return None
                if t not in parent:
                    parent[t] = s
                    queue.append(t)
        return queue

    def _pop(self) -> None:
        self.slots.pop()
        v = self.held.pop()
        if v >= 0:
            self.owner[v] = -1

    def add(self, verts: tuple[int, ...]) -> bool:
        """Keep an edge on verts when the kept family stays a hyperforest with it.

        Searches from the edge, then from a second copy of it.  When both
        find a vertex the copy's is freed again and the edge stays.  When
        one fails, its reached slots less the copy are a Hall violator,
        checked by counting, and both slots go.
        """
        first = len(self.slots)
        for _ in range(2):
            reached = self._push(verts)
            if reached is not None:
                family = [s for s in reached if s != first + 1]
                union = frozenset().union(*[self.slots[s] for s in family])
                assert first in family and len(union) <= len(family), \
                    "a rejected edge has no Hall violator"
                while len(self.slots) > first:
                    self._pop()
                return False
        self._pop()
        return True

    def tight_set(self, verts: tuple[int, ...]) -> frozenset[int] | None:
        """Vertices of a tight set of the kept family holding a kept edge on verts.

        A set X is tight when |X| - 1 kept edges lie inside it.  Two more
        copies of the edge can both hold a vertex unless some tight set
        holds the edge, and then the failed search's reached slots cover
        one.  None when no tight set holds the edge.  The copies go again.
        """
        copy = self._push(verts)
        reached = self._push(verts)
        tight = None if reached is None else frozenset().union(*[self.slots[s] for s in reached])
        self._pop()
        self._pop()
        assert copy is None, "a copy of a kept edge found no vertex"
        return tight

    def certify(self) -> None:
        """Check that the kept family is a hyperforest by trimming it (Lorea).

        A breadth-first search from the vertices no slot holds reaches
        each slot through one of its vertices and pairs that vertex with
        the slot's held one.  Each pair inside its edge and the pairs
        forming a forest give every nonempty subfamily F' at least
        |F'| + 1 vertices, so every subset of the family is independent.
        """
        slots, held = self.slots, self.held
        n = len(self.owner)
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
                assert w in slots[s], "a trimmed pair leaves its edge"
                ru, rw = _find(root, u), _find(root, w)
                assert ru != rw, "the trimmed pairs close a cycle"
                root[ru] = rw
                queue.append(w)
        assert all(reached), "the trimming missed an edge"


def _find(root: list[int], v: int) -> int:
    while root[v] != v:
        root[v] = root[root[v]]
        v = root[v]
    return v


def _greedy(h: Hypergraph, order: Iterable[int]) -> tuple[list[int], _Matching]:
    """Keep each edge in order that leaves the kept ones a hyperforest.

    Stops at |V| - 1 kept edges, the most a hyperforest has, and
    certifies the kept set before returning it with its matching.
    """
    matching = _Matching(h.n)
    chosen: list[int] = []
    for e in order:
        if len(chosen) >= h.n - 1:
            break
        if matching.add(h.edges[e].vertices):
            chosen.append(e)
    matching.certify()
    return chosen, matching


def rank(h: Hypergraph, edge_ids: Iterable[int] | None = None) -> RankResult:
    """Rank of the selected edges, with a witness partition.

    A basis B is kept in id order, stopping at |V| - 1 edges.  Each edge
    of B lying in a B-tight set (|X| - 1 edges of B inside X) yields
    one, and the unions of overlapping ones are the maximal tight sets:
    the coarsest partition attaining the rank formula, whose value
    |V| - |P| + |crossing| is checked to equal |B|.
    """
    if h.n < 1:
        raise ValueError("no vertices")
    ids = h._edge_id_list(edge_ids)
    basis, matching = _greedy(h, ids)
    root = list(range(h.n))
    for b in basis:
        tight = matching.tight_set(h.edges[b].vertices)
        if tight is not None:
            r0 = _find(root, min(tight))
            for v in tight:
                root[_find(root, v)] = r0
    blocks: dict[int, list[int]] = {}
    for v in range(h.n):
        blocks.setdefault(_find(root, v), []).append(v)
    p = Partition(h.n, tuple(tuple(b) for b in blocks.values()))
    r = len(basis)
    crossing = h.cross_edges(ids, p)
    assert r == h.n - len(p.blocks) + len(crossing), "witness does not attain the rank"
    assert 0 <= r <= max(h.n - 1, 0) and r <= len(ids)
    return RankResult(rank=r, witness_partition=p)


def is_independent(h: Hypergraph, edge_ids: Iterable[int] | None = None) -> bool:
    """Whether the selected edges form a hyperforest.

    More than |V| - 1 edges are dependent without any search: no rank
    exceeds |V| - 1.  Otherwise the edges join one matching in id order,
    and the first rejection answers False.
    """
    ids = h._edge_id_list(edge_ids)
    if not ids:
        return True
    if len(ids) > h.n - 1:
        return False
    matching = _Matching(h.n)
    for e in ids:
        if not matching.add(h.edges[e].vertices):
            return False
    matching.certify()
    return True


def independence_test_incremental(h: Hypergraph, independent_ids: Sequence[int],
                                  candidate: int) -> bool:
    """Whether an independent set stays independent with one more edge.

    The set's edges join one matching first; one of them rejected means
    the set is not independent, a ValueError.  Then two searches answer
    for the candidate.
    """
    if not all([0 <= e < h.m for e in (*independent_ids, candidate)]):
        raise ValueError("edge id out of range")
    if candidate in independent_ids:
        raise ValueError("candidate already in the set")
    if len(set(independent_ids)) != len(independent_ids):
        raise ValueError("duplicate edge ids in the set")
    matching = _Matching(h.n)
    for e in independent_ids:
        if not matching.add(h.edges[e].vertices):
            raise ValueError("the given set is not independent")
    ok = matching.add(h.edges[candidate].vertices)
    if ok:
        matching.certify()
    return ok


def max_weight_hyperforest(h: Hypergraph, weights: EdgeVector) -> tuple[frozenset[int], Fraction]:
    """Maximum-weight independent edge set by the matroid greedy.

    Edges are scanned by decreasing weight (id order breaks ties), each
    tested on one matching kept for the whole scan; the scan stops early
    at |V| - 1 edges, the largest any hyperforest can be.  Zero-weight
    edges are still eligible: the returned set is a maximal hyperforest
    among the optimal ones.
    """
    weights.require_length(h.m, "weights")
    weights.require_nonnegative("weights")
    chosen, _ = _greedy(h, sorted(range(h.m), key=lambda e: (-weights[e], e)))
    return frozenset(chosen), weights.sum_over(chosen)


def separate_polytope(h: Hypergraph, x: EdgeVector) -> SeparationOutcome:
    """Exact separation for the hyperforest polytope.

    Box constraints are screened first (x >= 0, x <= 1, and x = 0 on
    singleton edges, whose rank is zero).  Then one network, re-solved
    with each vertex forced into W in turn, finds the minimum of
    |W| - x(E[W]) over nonempty vertex sets W; a
    minimum below 1 yields the most violated induced-set inequality
    x(E[W]) <= |W| - 1, also returned in partition form.
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
    # charge 1 per vertex makes the polytope gadget: its cut identity reads
    # |W| - x(E[W]) + x(E), all over x's common denominator `scale` here;
    # the first minimum in vertex order wins
    nums, scale = x._integers()
    g = build_supermodular_gadget(h, nums, [scale] * h.n, forced=0)
    best = min(forced_sweep(g), key=lambda info: info.value)
    if best.value < scale:
        witness = best.witness
        edge_set = h.induced_edges(None, witness)
        lhs = x.sum_over(edge_set)
        rhs = len(witness) - 1
        assert lhs > rhs, "violation reported but inequality holds"
        rest = [(v,) for v in range(h.n) if v not in witness]
        partition = Partition(h.n, tuple([tuple(sorted(witness))] + rest))
        return SetViolation(witness=witness, lhs=lhs, rhs=rhs,
                            edge_set=edge_set, partition=partition)
    return InPolytope()
