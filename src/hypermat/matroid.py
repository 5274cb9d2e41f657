"""Rank, independence, greedy optimization, and polytope separation.

The underlying matroid is the hypergraphic one: an edge set is
independent (a hyperforest) when every nonempty vertex set X contains at
most |X| - 1 of its edges, and the rank of an edge set F is

    min over partitions P of  |V| - |P| + |crossing edges of F|.

Everything below reduces to minimum cuts through the partition oracle or
the independence gadget; no enumeration happens here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .core import EdgeVector, Hypergraph, Partition
from .gadgets import (
    build_independence_gadget,
    build_supermodular_gadget,
    forced_sweep,
    interpret_independence_cut,
)
from .mincut import min_st_cut
from .partition_oracle import min_partition


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


def rank(h: Hypergraph, edge_ids: Iterable[int] | None = None) -> RankResult:
    """Rank of the selected edges, with a witness partition.

    One call to the partition oracle at threshold 1: the oracle minimum
    plus |V| - 1 is the rank.
    """
    if h.n < 1:
        raise ValueError("no vertices")
    ids = h._edge_id_list(edge_ids)
    res = min_partition(h, EdgeVector.ones(h.m), Fraction(1), edge_ids=ids)
    value = res.value + (h.n - 1)
    assert value.denominator == 1, "rank must be an integer"
    r = int(value)
    p = res.partition
    crossing = h.cross_edges(ids, p)
    assert r == h.n - len(p.blocks) + len(crossing), "witness does not attain the rank"
    assert 0 <= r <= max(h.n - 1, 0) and r <= len(ids)
    return RankResult(rank=r, witness_partition=p)


def is_independent(h: Hypergraph, edge_ids: Iterable[int] | None = None) -> bool:
    """Whether the selected edges form a hyperforest (rank equals size).

    More than |V| - 1 edges are dependent without any cut: no rank exceeds
    |V| - 1.
    """
    ids = h._edge_id_list(edge_ids)
    if not ids:
        return True
    if len(ids) > h.n - 1:
        return False
    return rank(h, ids).rank == len(ids)


def independence_test_incremental(h: Hypergraph, independent_ids: Sequence[int],
                                  candidate: int) -> bool:
    """Whether an independent set stays independent with one more edge.

    Assumes the given set is independent (not re-verified); a single min
    cut on the independence gadget answers for the extension.
    """
    if candidate in independent_ids:
        raise ValueError("candidate already in the set")
    edges = [h.edges[e] for e in independent_ids] + [h.edges[candidate]]
    g = build_independence_gadget(edges, candidate)
    cut = min_st_cut(g.network)
    deficiency, _ = interpret_independence_cut(g, cut)
    return deficiency >= 1


def max_weight_hyperforest(h: Hypergraph, weights: EdgeVector) -> tuple[frozenset[int], Fraction]:
    """Maximum-weight independent edge set by the matroid greedy.

    Edges are scanned by decreasing weight (id order breaks ties), each
    tested with one min cut; the scan stops early at |V| - 1 edges, the
    largest any hyperforest can be.  Zero-weight edges are still eligible:
    the returned set is a maximal hyperforest among the optimal ones.
    """
    weights.require_length(h.m, "weights")
    weights.require_nonnegative("weights")
    order = sorted(range(h.m), key=lambda e: (-weights[e], e))
    chosen: list[int] = []
    for e in order:
        if len(chosen) >= h.n - 1:
            break
        if independence_test_incremental(h, chosen, e):
            chosen.append(e)
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
    best: tuple[Fraction, frozenset[int]] | None = None
    if h.n:
        # charge 1 per vertex makes the polytope gadget: its cut identity
        # reads |W| - x(E[W]) + x(E)
        g = build_supermodular_gadget(h, x, [Fraction(1)] * h.n, forced=0)
        for info in forced_sweep(g):
            if best is None or info.value < best[0]:
                best = (info.value, info.witness)
    if best is not None and best[0] < 1:
        witness = best[1]
        edge_set = h.induced_edges(None, witness)
        lhs = x.sum_over(edge_set)
        rhs = len(witness) - 1
        assert lhs > rhs, "violation reported but inequality holds"
        rest = [(v,) for v in range(h.n) if v not in witness]
        partition = Partition(h.n, tuple([tuple(sorted(witness))] + rest))
        return SetViolation(witness=witness, lhs=lhs, rhs=rhs,
                            edge_set=edge_set, partition=partition)
    return InPolytope()
