"""Shared test utilities: deterministic generators and small reference
algorithms that stay independent of package internals."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import settings
from hypothesis import strategies as st

from hypermat import CutEngine, EdgeVector, Hypergraph
from hypermat.brute import enum_partitions


def examples(n: int) -> int:
    """n hypothesis examples, scaled by the loaded profile's max_examples.

    Hypothesis defaults to 100 examples, so this is n under the default
    and `ci` profiles and 5n under `deep` (tests/conftest.py), which an
    explicit max_examples would otherwise override.
    """
    return n * settings.default.max_examples // 100


@st.composite
def hypergraphs(draw, min_n: int = 1, min_size: int = 1, max_edges: int = 9) -> Hypergraph:
    """Hypergraphs at min_n <= n <= 7 with edges of at least min_size vertices.

    A vertex set picked twice is a parallel edge; isolated vertices and
    disconnected inputs come up too.
    """
    n = draw(st.integers(min_n, 7))
    vertex_sets = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=min(min_size, n),
                                         max_size=n, unique=True), min_size=1, max_size=max_edges))
    picks = draw(st.lists(st.integers(0, len(vertex_sets) - 1), max_size=max_edges))
    return Hypergraph(n, [vertex_sets[i] for i in picks])


def random_hypergraph(rng: random.Random, n: int, m: int, max_size: int,
                      connected: bool = False) -> Hypergraph:
    """Random hypergraph with edge sizes in 2..max_size.

    With connected=True the first n-1 edges trace a random vertex
    permutation, so the result is connected; requires m >= n-1.
    """
    edges: list[list[int]] = []
    if connected:
        assert m >= n - 1
        order = list(range(n))
        rng.shuffle(order)
        edges.extend([order[i], order[i + 1]] for i in range(n - 1))
    while len(edges) < m:
        size = rng.randint(2, min(max_size, n))
        edges.append(rng.sample(range(n), size))
    return Hypergraph(n, edges)


def crit9(seed: int, n: int) -> tuple[Hypergraph, EdgeVector, EdgeVector, EdgeVector]:
    """A hypergraph shaped like acceptance criterion 9 at m = 5n, with its weights, point and costs.

    The draws of the benchmark's generator, `crit9_instance(seed, n, 5 * n)`
    in perfbench/instances.py: one each for n and m, `random_hypergraph`'s
    connected draws at edge sizes 2..6, weights 0..10, a point of
    quarters in [0, 1] and costs 1..6.
    """
    rng = random.Random(seed)
    rng.randint(n, n)
    rng.randint(5 * n, 5 * n)
    h = random_hypergraph(rng, n, 5 * n, 6, connected=True)
    weights = EdgeVector.of([rng.randint(0, 10) for _ in range(h.m)])
    point = EdgeVector.of([Fraction(rng.randint(0, 4), 4) for _ in range(h.m)])
    costs = EdgeVector.of([rng.randint(1, 6) for _ in range(h.m)])
    return h, weights, point, costs


def random_weights(rng: random.Random, m: int, lo: int = 0, hi: int = 6,
                   den: int = 2) -> EdgeVector:
    return EdgeVector.of([Fraction(rng.randint(lo, hi), rng.randint(1, den))
                          for _ in range(m)])


def random_point(rng: random.Random, m: int) -> EdgeVector:
    # mostly in [0, 1], occasionally above, to exercise both separation outcomes
    vals = []
    for _ in range(m):
        vals.append(Fraction(rng.randint(0, 5), 4))
    return EdgeVector.of(vals)


def reference_interpretation(g, cut):
    """Read a supermodular gadget cut back by walking every selected edge.

    Returns (source_vertices, witness, edges_inside, value) from the
    gadget's public fields alone, for comparison with
    interpret_gadget_cut, which reads only the cut's source side and the
    edges meeting it.
    """
    source = frozenset(v for v, node in g.vertex_nodes.items() if node in cut.source_side)
    witness = frozenset(g.vertex_nodes) - source
    inside = frozenset(e.id for e in g.edges if witness.issuperset(e.vertices))
    value = Fraction(sum(g.charges[v] for v in witness) - sum(g.weights[e] for e in inside),
                     g.scale)
    return source, witness, inside, value


def mst_cost(n: int, pairs: list[tuple[int, int]],
             costs: list[Fraction]) -> Fraction | None:
    """Kruskal; None when the graph is disconnected."""
    order = sorted(range(len(pairs)), key=lambda e: (costs[e], e))
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    total = Fraction(0)
    used = 0
    for e in order:
        u, v = pairs[e]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            total += costs[e]
            used += 1
    return total if used == n - 1 else None


def verify_optimal(h, k, costs, bounds, res):
    """Re-derive a reinforcement optimality proof from scratch: primal
    feasibility over every partition, then `verify_duals`.  Only for n
    small enough to enumerate partitions."""
    for p in enum_partitions(h.n):
        if len(p.blocks) >= 2:
            need = k * (len(p.blocks) - 1)
            assert res.x.sum_over(h.cross_edges(None, p)) >= need
    verify_duals(h, k, costs, bounds, res)


def verify_duals(h, k, costs, bounds, res):
    """The rest of the proof, from the output alone: x within its bounds,
    dual feasibility, complementary slackness and equal objectives.  It
    walks the crossing edges of each raised partition once, so it runs at
    any n."""
    x = res.x
    ub = [bounds[e] if bounds is not None else Fraction(k * (h.n - 1))
          for e in range(h.m)]
    for e in range(h.m):
        assert 0 <= x[e] <= ub[e]

    gamma = res.dual.partition_duals
    beta = res.dual.bound_duals
    assert all(g >= 0 for _, g in gamma) and all(b >= 0 for b in beta)
    dual_obj = sum((g * k * (len(p.blocks) - 1) for p, g in gamma), Fraction(0)) \
        - sum((beta[e] * ub[e] for e in range(h.m)), Fraction(0))
    assert res.cost == sum((costs[e] * x[e] for e in range(h.m)), Fraction(0))
    assert res.cost == dual_obj

    covering = [Fraction(0)] * h.m
    for p, g in gamma:
        crossing = h.cross_edges(None, p)
        for e in crossing:
            covering[e] += g
        if g > 0:
            assert x.sum_over(crossing) == k * (len(p.blocks) - 1)
    for e in range(h.m):
        reduced = costs[e] - covering[e] + beta[e]
        assert reduced == res.dual.reduced_costs[e]
        assert reduced >= 0
        if x[e] > 0:
            assert reduced == 0
        if beta[e] > 0:
            assert x[e] == ub[e]


def count_solves(monkeypatch) -> list[int]:
    """Count CutEngine.solve calls from here on; returns the one-item counter."""
    solve = CutEngine.solve
    count = [0]

    def counted(self):
        count[0] += 1
        return solve(self)

    monkeypatch.setattr(CutEngine, "solve", counted)
    return count
