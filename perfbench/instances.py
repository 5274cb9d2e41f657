"""Seeded instance generators for the benchmark workloads.

Every generator takes its seed as an argument and draws from one
`random.Random(seed)`, so the same seed always yields the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from hypermat import EdgeVector, Hypergraph

# The seed of acceptance criterion 9 (tests/test_acceptance.py).
CRIT9_SEED = 0xAC09


@dataclass(frozen=True)
class Crit9Instance:
    h: Hypergraph
    weights: EdgeVector
    point: EdgeVector
    costs: EdgeVector


def crit9_instance(seed: int = CRIT9_SEED, n: int = 200, m: int = 1000) -> Crit9Instance:
    """A connected hypergraph with edge sizes 2..6, plus weights, point and costs.

    The draws follow `rand_hypergraph(rng, n, n, m, m, 2, 6, connected=True)`
    of the acceptance suite, then the weights, point and costs of
    criterion 9, so the defaults reproduce the criterion-9 instance.
    """
    rng = random.Random(seed)
    n = rng.randint(n, n)
    lo = max(m, n - 1)
    m = rng.randint(lo, max(lo, m))
    order = list(range(n))
    rng.shuffle(order)
    edges = [[order[i], order[i + 1]] for i in range(n - 1)]
    while len(edges) < m:
        size = rng.randint(2, min(6, n))
        edges.append(rng.sample(range(n), size))
    h = Hypergraph(n, edges)
    weights = EdgeVector.of([rng.randint(0, 10) for _ in range(h.m)])
    point = EdgeVector.of([Fraction(rng.randint(0, 4), 4) for _ in range(h.m)])
    costs = EdgeVector.of([rng.randint(1, 6) for _ in range(h.m)])
    return Crit9Instance(h, weights, point, costs)


@dataclass(frozen=True)
class SmallInstance:
    n: int
    edges: tuple[tuple[int, ...], ...]
    values: tuple[Fraction, ...]  # column 0: point, weights, capacities and costs
    bounds: tuple[int, ...]       # column 1: reinforcement bounds
    subset: tuple[int, ...]       # edge ids for `independent --set`, at most n - 1


def small_instances(seed: int, count: int) -> list[SmallInstance]:
    """Small random hypergraphs: n from 5 to 7, m from n-1 to 3n, edge sizes 2..4.

    n stops at 7 because `brute_rank` and `brute_strength` refuse larger n.

    Column 0 holds quarters in [0, 5/4], so separation sees points both
    inside and outside the box; column 1 holds bounds 1 or 2.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(5, 7)
        m = rng.randint(n - 1, 3 * n)
        edges = tuple(tuple(sorted(rng.sample(range(n), rng.randint(2, 4))))
                      for _ in range(m))
        values = tuple(Fraction(rng.randint(0, 5), 4) for _ in range(m))
        bounds = tuple(rng.randint(1, 2) for _ in range(m))
        subset = tuple(sorted(rng.sample(range(m), rng.randint(1, n - 1))))
        out.append(SmallInstance(n, edges, values, bounds, subset))
    return out


def small_instance_text(inst: SmallInstance) -> str:
    """The instance in the hypermat text format, written without the library."""
    lines = [f"{inst.n} {len(inst.edges)}"]
    for verts, value, bound in zip(inst.edges, inst.values, inst.bounds):
        v = f"{value.numerator}" if value.denominator == 1 else \
            f"{value.numerator}/{value.denominator}"
        lines.append(f"{' '.join(map(str, verts))} | {v} {bound}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class WideInstance:
    n: int
    edges: list[list[int]]
    weights: list[int]
    blocks: list[list[int]]   # a random partition of 0..n-1 into about n/10 blocks
    vertex_set: list[int]     # the union of every other block, for induced_edges


def wide_instance(seed: int, n: int) -> WideInstance:
    """One sparse hypergraph with m = n and edge sizes 2..4, as plain lists."""
    rng = random.Random(seed)
    edges = [rng.sample(range(n), rng.randint(2, 4)) for _ in range(n)]
    weights = [rng.randint(0, 10) for _ in range(n)]
    block_count = max(1, n // 10)
    label = [rng.randrange(block_count) for _ in range(n)]
    for b in range(block_count):  # every block nonempty
        label[b] = b
    blocks: list[list[int]] = [[] for _ in range(block_count)]
    for v, b in enumerate(label):
        blocks[b].append(v)
    vertex_set = [v for b in blocks[::2] for v in b]
    return WideInstance(n, edges, weights, blocks, vertex_set)
