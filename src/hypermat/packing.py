"""Strength and arboricity by exact Newton iteration.

Strength is the packing value: the minimum over partitions P with at
least two blocks of capacity(crossing P) / (|P| - 1).  Its floor is the
number of disjoint hypertrees that can be packed.  Arboricity is the
covering value: the maximum over vertex sets X with at least two
vertices of |E[X]| / (|X| - 1), whose ceiling is the number of
hyperforests needed to cover every edge.

Both iterations evaluate their subproblem at the current candidate ratio
and re-anchor on the optimizer until the subproblem value hits zero
exactly; each runs at most |V| rounds.  All arithmetic is rational, so
termination tests are exact equalities, not tolerances.

A round's ratio is certified with no cut when the gathering pass
(`matroid._pass`) accepts: for arboricity every edge's demand fits, for
strength the accepted total reaches its bound.  Where strength's pass
rejects, its blocks, the maximal tight sets, are the improving
partition, and no cut runs at all.  Arboricity's round asks
separation's question, `matroid._most_violated`, whose cuts find the
improving set; a cut that certified the ratio instead would contradict
the pass, and raises.  The checks raise AssertionError with no
`assert`, so `python -O` keeps them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import EdgeVector, Hypergraph, LoopPresentError, Partition
from .matroid import _most_violated, _pass


@dataclass(frozen=True)
class StrengthResult:
    """Packing value with the partition attaining it.

    sigma = capacities(crossing critical) / (|critical| - 1), and
    integer_packing = floor(sigma) disjoint hypertrees exist.
    """

    sigma: Fraction
    critical_partition: Partition
    integer_packing: int
    iterations: int


@dataclass(frozen=True)
class ArboricityResult:
    """Covering value with a densest vertex set as witness.

    rho = |E[witness]| / (|witness| - 1) when edges exist, and k =
    ceil(rho) hyperforests cover the edge set.
    """

    rho: Fraction
    k: int
    witness: frozenset[int]
    iterations: int


def strength(h: Hypergraph, capacities: EdgeVector | None = None) -> StrengthResult:
    """Exact strength under nonnegative rational edge capacities (default 1).

    Newton iteration from the all-singletons partition.  At ratio p/q
    and capacities a/s, each round offers every edge q a_e units, taking
    what fits on capacity p s per vertex.  The accepted total is then
    the polymatroid rank (Edmonds), the minimum over partitions P of
    v(P) = q a(crossing P) + p s (|V| - |P|), so it reaches p s (|V| - 1)
    exactly when no partition beats the ratio, which certifies it.
    Otherwise the pass's blocks are the new anchor, at a lower ratio.

    The blocks attain that minimum.  An edge refused in part lies in a
    tight set once it takes what fits, the reached set of its failed
    gathering, and tight sets stay tight, so it lies inside a block.
    The crossing edges were thus taken whole, and each block B holds
    p s (|B| - 1) units: the total is v(P) for the block partition P.
    Each block of a minimizing partition is tight, so this is the
    coarsest minimizer; the tests compare it with `min_partition`'s.
    """
    if h.n < 2:
        raise ValueError("strength needs at least two vertices")
    c = capacities if capacities is not None else EdgeVector.ones(h.m)
    c.require_length(h.m, "capacities")
    c.require_nonnegative("capacities")
    anchor = Partition.singletons(h.n)
    ratio = c.sum_over(h.cross_edges(None, anchor)) / (h.n - 1)
    if ratio == 0:
        # nothing crosses the finest partition: the hypergraph is disconnected
        # (or edgeless) under the positive capacities, and no tree packs
        return StrengthResult(sigma=Fraction(0), critical_partition=anchor,
                              integer_packing=0, iterations=0)
    nums, scale = c._integers()
    iterations = 0
    while True:
        iterations += 1
        if iterations > h.n:
            raise AssertionError("strength's Newton iteration exceeded |V| rounds")
        # at ratio p/q and capacities a/scale, the packing reaches
        # p scale (|V| - 1) exactly when no partition beats the ratio
        p, q = ratio.numerator, ratio.denominator
        cap = p * scale
        goal = cap * (h.n - 1)
        total, gathering = _pass(h, cap, [q * a for a in nums], goal)
        if total >= goal:
            if ratio != c.sum_over(h.cross_edges(None, anchor)) / (len(anchor.blocks) - 1):
                raise AssertionError("the certified ratio is not the anchor's")
            return StrengthResult(sigma=ratio, critical_partition=anchor,
                                  integer_packing=math.floor(ratio), iterations=iterations)
        cand = gathering.blocks()
        crossing = h.cross_edges(None, cand)
        blocks = len(cand.blocks)
        if not total == q * sum([nums[e] for e in crossing]) + cap * (h.n - blocks) < goal:
            raise AssertionError("the blocks' partition value is not the rejected total")
        if blocks < 2:
            raise AssertionError("negative value at the one-block partition")
        new_ratio = c.sum_over(crossing) / (blocks - 1)
        if new_ratio >= ratio:
            raise AssertionError("candidate ratio failed to decrease")
        if new_ratio == 0:
            # a multi-block partition with nothing crossing: disconnected,
            # zero is attained and no ratio can go lower
            return StrengthResult(sigma=Fraction(0), critical_partition=cand,
                                  integer_packing=0, iterations=iterations)
        anchor, ratio = cand, new_ratio


def arboricity(h: Hypergraph) -> ArboricityResult:
    """Exact arboricity; rejects singleton edges, returns k = 0 when edgeless.

    Newton iteration from X = V.  At density p/q each round asks
    separation's question, `matroid._most_violated` at capacity p per
    vertex and demand q per edge.  When the gathering pass fits every
    edge, no set is denser than the anchor, which certifies the density.
    Otherwise the returned set, the first minimizer of p |W| - q |E[W]|
    over nonempty W in vertex order, is strictly denser and becomes the
    anchor.  One unforced cut finds it whenever the minimum is at most
    0; only otherwise do forced cuts run, one per block of the pass.
    """
    for e in h.edges:
        if e.is_loop:
            raise LoopPresentError(f"edge {e.id} is a singleton")
    if h.m == 0:
        return ArboricityResult(rho=Fraction(0), k=0,
                                witness=frozenset(range(h.n)), iterations=0)
    if h.n < 2:
        raise ValueError("arboricity needs at least two vertices")
    witness = frozenset(range(h.n))
    density = Fraction(h.m, h.n - 1)
    iterations = 0
    while True:
        iterations += 1
        if iterations > h.n:
            raise AssertionError("arboricity's Newton iteration exceeded |V| rounds")
        # at density p/q, no set is denser than the anchor, whose ratio
        # is the density, exactly when every edge family F has
        # q |F| <= p (|V(F)| - 1)
        cand = _most_violated(h, density.numerator, [density.denominator] * h.m)
        if cand is None:
            if density != Fraction(len(h.induced_edges(None, witness)), len(witness) - 1):
                raise AssertionError("the certified density is not the witness's")
            return ArboricityResult(rho=density, k=math.ceil(density), witness=witness,
                                    iterations=iterations)
        size = len(cand)
        if size < 2:
            raise AssertionError("improving set cannot be a singleton")
        inside = len(h.induced_edges(None, cand))
        new_density = Fraction(inside, size - 1)
        if new_density <= density:
            raise AssertionError("density failed to increase")
        witness, density = cand, new_density
