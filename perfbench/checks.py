"""Answer checks, run outside the timed interval.

Each check returns None when the answer holds, or a message naming what
broke.  crit9 answers are re-derived through public `core` calls,
small_cli answers are compared with the `brute` enumeration oracles, and
wide_core edge queries are recounted from a per-vertex block label.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any

from hypermat import (
    BoundViolation,
    EdgeVector,
    Hypergraph,
    InPolytope,
    Partition,
    SetViolation,
    brute,
)


def _fail(ok: bool, message: str) -> str | None:
    return None if ok else message


# ---------------------------------------------------------------- crit9

def check_rank(h: Hypergraph, res: Any) -> str | None:
    p = res.witness_partition
    attained = h.n - len(p.blocks) + len(h.cross_edges(None, p))
    return _fail(p.n == h.n and res.rank == attained and 0 <= res.rank <= h.n - 1,
                 f"rank {res.rank} is not attained by its witness ({attained})")


def check_independent(h: Hypergraph, ok: bool, rank_value: int | None) -> str | None:
    # more than n - 1 edges are never independent, whatever the rank call did
    expected = False if h.m > h.n - 1 else rank_value == h.m
    return _fail(ok == expected and rank_value is not None,
                 f"independent={ok} but rank {rank_value}, m {h.m}")


def check_maxforest(h: Hypergraph, weights: EdgeVector, answer: Any,
                    rank_value: int | None) -> str | None:
    chosen, weight = answer
    # the greedy keeps zero-weight edges eligible, so it returns a basis
    return _fail(weight == weights.sum_over(chosen) and len(chosen) == rank_value,
                 f"forest of {len(chosen)} edges, weight {weight}, rank {rank_value}")


def check_separate(h: Hypergraph, point: EdgeVector, out: Any) -> str | None:
    if isinstance(out, SetViolation):
        inside = h.induced_edges(None, out.witness)
        rest = [(v,) for v in range(h.n) if v not in out.witness]
        return _fail(out.edge_set == inside and out.lhs == point.sum_over(inside)
                     and out.rhs == len(out.witness) - 1 and out.lhs > out.rhs
                     and out.partition == Partition(h.n, (tuple(sorted(out.witness)), *rest)),
                     "set violation certificate does not hold")
    if isinstance(out, BoundViolation):
        v = point[out.edge]
        return _fail(out.value == v and (v < 0 if out.upper is None else v > out.upper),
                     "bound violation certificate does not hold")
    # x(E) <= rank(E) <= n - 1 holds for every point of the polytope
    return _fail(isinstance(out, InPolytope) and point.total() <= h.n - 1,
                 "in-polytope answer for a point of total weight above n - 1")


def check_strength(h: Hypergraph, res: Any) -> str | None:
    p = res.critical_partition
    blocks = len(p.blocks)
    return _fail(blocks >= 2 and res.sigma == Fraction(len(h.cross_edges(None, p)), blocks - 1)
                 and res.integer_packing == math.floor(res.sigma),
                 f"strength {res.sigma} differs from its partition's ratio")


def check_arboricity(h: Hypergraph, res: Any) -> str | None:
    w = res.witness
    return _fail(len(w) >= 2 and res.rho == Fraction(len(h.induced_edges(None, w)), len(w) - 1)
                 and res.k == math.ceil(res.rho),
                 f"arboricity {res.rho} differs from its witness's ratio")


def check_reinforce(h: Hypergraph, costs: EdgeVector, k: int, res: Any) -> str | None:
    if res.status != "optimal":
        return f"reinforce status {res.status}"
    x = res.x
    if any(v < 0 for v in x) or x.total() != k * (h.n - 1):
        return f"x(E) = {x.total()}, expected {k * (h.n - 1)}"
    if res.cost != sum((costs[e] * x[e] for e in range(h.m)), Fraction(0)):
        return "cost differs from the cost of x"
    for p, gamma in res.dual.partition_duals:
        if gamma > 0 and x.sum_over(h.cross_edges(None, p)) != k * (len(p.blocks) - 1):
            return "a raised partition is not tight in x"
    return None


# ------------------------------------------------------------ small_cli

def forest_weight_oracle(h: Hypergraph, weights: EdgeVector) -> Fraction:
    """Maximum forest weight: by enumeration up to 12 edges, else greedy by rank.

    For nonnegative weights w1 > ... > wk the matroid greedy attains
    sum_i (w_i - w_(i+1)) * rank(edges of weight >= w_i), with w_(k+1) = 0.
    """
    if h.m <= 12:
        return brute.brute_max_weight_hyperforest(h, weights)
    levels = sorted(set(weights), reverse=True) + [Fraction(0)]
    total = Fraction(0)
    for hi, lo in zip(levels, levels[1:]):
        if hi > lo:
            total += (hi - lo) * brute.brute_rank(h, [e for e in range(h.m) if weights[e] >= hi])
    return total


def in_polytope_oracle(h: Hypergraph, x: EdgeVector) -> bool:
    """Polytope membership: by edge-subset rank up to 12 edges, else by vertex sets.

    The second form checks 0 <= x <= 1 and x(E[W]) <= |W| - 1 for every
    nonempty vertex set W, one enumeration over 2^n sets.
    """
    if h.m <= 12:
        return brute.brute_separate(h, x)
    if any(not 0 <= v <= 1 for v in x):
        return False
    for bits in range(1, 1 << h.n):
        inside = [e for e in range(h.m) if all(bits >> v & 1 for v in h.edges[e].vertices)]
        if x.sum_over(inside) > bin(bits).count("1") - 1:
            return False
    return True


def reinforce_oracle(n: int, edges: Any, costs: EdgeVector, bounds: Any) -> Fraction | None:
    """Cheapest multiplicities packing one hypertree, or None when infeasible.

    With k = 1, integer x is feasible exactly when the multiset holding
    x_e copies of edge e has rank n - 1, so the optimum is a cheapest
    basis of the copies.  The matroid greedy finds it, testing each copy
    with the enumeration oracle `brute_hyperforest`.
    """
    copies = [e for e in sorted(range(len(edges)), key=lambda e: (costs[e], e))
              for _ in range(int(bounds[e]))]
    multi = Hypergraph(n, [edges[e] for e in copies])
    chosen: list[int] = []
    cost = Fraction(0)
    for i, e in enumerate(copies):
        if len(chosen) == n - 1:
            break
        if brute.brute_hyperforest(multi, chosen + [i]):
            chosen.append(i)
            cost += costs[e]
    return cost if len(chosen) == n - 1 else None


# ------------------------------------------------------------ wide_core

def crossing_by_label(edges: list[list[int]], label: list[int]) -> frozenset[int]:
    return frozenset(e for e, verts in enumerate(edges) if len({label[v] for v in verts}) >= 2)


def inside_by_member(edges: list[list[int]], member: set[int]) -> frozenset[int]:
    return frozenset(e for e, verts in enumerate(edges) if all(v in member for v in verts))
