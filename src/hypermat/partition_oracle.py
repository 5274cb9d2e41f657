"""Most-violated partition inequality via a covering-LP greedy and min cuts.

This is the paper's reduction, kept as the reference: no operation of
the package calls it.  Strength reads its partitions from the gathering
pass's blocks (see `packing`), and the tests compare those with this
oracle round by round.

Given nonnegative edge weights x and a positive per-block credit t, the
oracle minimizes

    x(crossing edges of P) - t * (|P| - 1)

over all partitions P of the vertex set.  A negative optimum certifies a
violated partition inequality; the optimum is never positive because the
one-block partition scores zero.

The minimization is the dual of a covering problem: find per-vertex
values y minimizing y(V) subject to y(S) >= demand(S) for every nonempty
vertex set S, where demand(S) is the weight of the edges inside S, plus
the credit t when S misses a fixed root vertex.  That demand function is
supermodular on intersecting sets, so a greedy works: start every vertex
at the generous value t + x(all edges), then repeatedly pick an uncovered
vertex and drop its value by the minimum slack y(S) - demand(S) over sets
S containing it.  One min cut of a warm `GadgetEngine`, read back, gives
that slack and the inclusion-maximal set W attaining it, which the drop
makes tight.  The tight family stays disjoint: an earlier tight set
meeting W lies inside W, because its union with W is tight and holds
the pivot, so W takes the place of every set it meets.  The family's
sets are the blocks of the optimal partition, and x(all) - y(V) is the
optimal value.

Weights and the threshold come in as Fractions and the value goes out
as one.  In between the potentials, slacks and demands are integers
over one common denominator, so the tightness checks sum integers, and
the gadget is built from and read back in those integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import EdgeVector, Hypergraph, Partition, as_fraction
from .gadgets import GadgetEngine, build_supermodular_gadget


@dataclass(frozen=True)
class PartitionOracleResult:
    """Outcome of the partition minimization.

    value is the exact minimum (always <= 0), partition attains it, and
    violated flags a strictly negative value.
    """

    value: Fraction
    partition: Partition
    violated: bool


def min_partition(h: Hypergraph, weights: EdgeVector, threshold: Fraction,
                  edge_ids: Iterable[int] | None = None) -> PartitionOracleResult:
    """Minimize weights(crossing P) - threshold * (|P| - 1) over partitions P.

    Restricting edge_ids scopes both the crossing sum and the demands to
    that edge subset; other entries of `weights` are ignored.  Runs at
    most |V| greedy steps, one min cut each.
    """
    threshold = as_fraction(threshold)
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    n = h.n
    if n < 1:
        raise ValueError("no vertices")
    weights.require_length(h.m, "weights")
    ids = h._edge_id_list(edge_ids)
    for e in ids:
        if weights[e] < 0:
            raise ValueError(f"weights has a negative entry at edge {e}")
    # potentials, demands and weights as integers over one denominator D;
    # a total such as 1/2 + 1/2 would lose a factor of D, so D comes from
    # the terms themselves
    scale = math.lcm(threshold.denominator, *[weights[e].denominator for e in ids])
    w = [0] * h.m
    for e in ids:
        v = weights[e]
        w[e] = v.numerator * (scale // v.denominator)
    t = threshold.numerator * (scale // threshold.denominator)
    total = sum([w[e] for e in ids])
    root = 0

    potentials = [t + total] * n
    charges = list(potentials)
    charges[root] += t
    engine = GadgetEngine(build_supermodular_gadget(h, w, charges, edge_ids=ids))

    covered = bytearray(n)
    family: list[frozenset[int]] = []
    steps = 0

    def demand(sub: frozenset[int]) -> int:
        inside = sum([w[e] for e in h.induced_edges(ids, sub)])
        return inside if root in sub else inside + t

    for pivot in range(n):
        if covered[pivot]:
            continue
        steps += 1
        assert steps <= n, "greedy exceeded |V| steps"
        engine.force(pivot)
        cut = engine.solve()
        tight = cut.witness
        # value = charge(tight) - weights(inside tight), and a set's charge is
        # its potential plus the credit when it holds the root, so the
        # minimum slack over sets containing the pivot is:
        slack = cut.value - t
        assert slack >= 0, "cover became infeasible"
        potentials[pivot] -= slack
        engine.set_charge(pivot, potentials[pivot] + (t if pivot == root else 0))
        inside = sum([w[e] for e in cut.edges_inside])
        assert sum([potentials[v] for v in tight]) == (inside if root in tight else inside + t), \
            "chosen set is not tight after the drop"
        # uncross: the witness takes the place of every tight set it meets
        keep: list[frozenset[int]] = []
        for s in family:
            if s & tight:
                assert s <= tight, "a tight set meeting the witness sticks out of it"
            else:
                keep.append(s)
        keep.append(tight)
        family[:] = keep
        for v in tight:
            covered[v] = 1

    partition = Partition(n, tuple(tuple(sorted(s)) for s in family))
    value = total - sum(potentials)
    crossing = h.cross_edges(ids, partition)
    recomputed = sum([w[e] for e in crossing]) - t * (len(partition.blocks) - 1)
    assert value == recomputed, "greedy value disagrees with its own partition"
    assert value <= 0, "one-block partition bound violated"
    if value < 0:
        # dual certificate: the tight family's demands sum past the total weight
        demands = sum([demand(s) for s in family])
        assert demands == sum(potentials) and demands > total
    return PartitionOracleResult(value=Fraction(value, scale), partition=partition,
                                 violated=value < 0)
