import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypermat import (
    EdgeVector,
    Hypergraph,
    Partition,
    min_partition,
)
from hypermat.brute import brute_min_partition

from helpers import random_hypergraph, random_weights


def crossing_value(h, weights, partition, threshold, edge_ids=None):
    return weights.sum_over(h.cross_edges(edge_ids, partition)) \
        - threshold * (len(partition.blocks) - 1)


class TestMinPartition:
    def test_h0_halfweight(self, h0):
        res = min_partition(h0, EdgeVector.of([1, "1/2"]), Fraction(1))
        assert res.value == Fraction(-1, 2)
        assert res.partition == Partition.singletons(3)
        assert res.violated

    def test_h0_unit_not_violated(self, h0):
        res = min_partition(h0, EdgeVector.ones(2), Fraction(1))
        assert res.value == 0
        assert not res.violated
        assert crossing_value(h0, EdgeVector.ones(2), res.partition, Fraction(1)) == 0

    def test_no_edges(self):
        h = Hypergraph(4, [])
        res = min_partition(h, EdgeVector.zeros(0), Fraction(1))
        assert res.value == -3
        assert res.partition == Partition.singletons(4)

    def test_single_vertex(self):
        h = Hypergraph(1, [])
        res = min_partition(h, EdgeVector.zeros(0), Fraction(1))
        assert res.value == 0 and res.partition == Partition.whole(1)

    def test_threshold_positive_required(self, h0):
        with pytest.raises(ValueError):
            min_partition(h0, EdgeVector.ones(2), Fraction(0))

    def test_negative_weight_rejected(self, h0):
        with pytest.raises(ValueError):
            min_partition(h0, EdgeVector.of([1, -1]), Fraction(1))

    def test_edge_subset_scoping(self, h1):
        # only edge 2 = {0,3} counts; splitting {1},{2} off is free
        res = min_partition(h1, EdgeVector.ones(3), Fraction(1), edge_ids=[2])
        assert res.value == -2
        # negative weight outside the selection is never read
        w = EdgeVector.of([1, -5, 1])
        res = min_partition(h1, w, Fraction(1), edge_ids=[0, 2])
        assert res.value == brute_min_partition(h1, w, Fraction(1), [0, 2])[0]

    def test_returned_partition_attains_value(self, k3, k4, h1):
        for h in (k3, k4, h1):
            for t in (Fraction(1), Fraction(1, 2), Fraction(3)):
                w = EdgeVector.ones(h.m)
                res = min_partition(h, w, t)
                assert crossing_value(h, w, res.partition, t) == res.value


class TestAgainstBrute:
    def test_random_instances(self):
        rng = random.Random(0x9A11)
        for trial in range(120):
            n = rng.randint(1, 6)
            m = rng.randint(0, 8)
            h = random_hypergraph(rng, n, m, max_size=min(4, n)) if n >= 2 \
                else Hypergraph(1, [])
            w = random_weights(rng, h.m)
            t = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            res = min_partition(h, w, t)
            expected, _ = brute_min_partition(h, w, t)
            assert res.value == expected, f"trial {trial}"
            assert crossing_value(h, w, res.partition, t) == expected, f"trial {trial}"
            assert res.violated == (expected < 0)

    def test_random_edge_subsets(self):
        rng = random.Random(0xE55)
        for trial in range(60):
            n = rng.randint(2, 6)
            m = rng.randint(1, 8)
            h = random_hypergraph(rng, n, m, max_size=min(4, n))
            w = random_weights(rng, h.m)
            ids = [e for e in range(m) if rng.random() < 0.6]
            t = Fraction(rng.randint(1, 4))
            res = min_partition(h, w, t, edge_ids=ids)
            expected, _ = brute_min_partition(h, w, t, ids)
            assert res.value == expected, f"trial {trial}"


@st.composite
def oracle_instances(draw):
    """n <= 5, loops allowed, weights over mixed denominators and a
    fractional threshold; with `balance` one more edge makes the total of
    the selected weights an integer while the weights stay fractional."""
    n = draw(st.integers(1, 5))
    edges = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True), max_size=7))
    rational = st.builds(Fraction, st.integers(0, 6), st.sampled_from([1, 2, 3, 4, 6]))
    weights = draw(st.lists(rational, min_size=len(edges), max_size=len(edges)))
    chosen = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    ids = None if draw(st.booleans()) else [e for e, c in enumerate(chosen) if c]
    if draw(st.booleans()):
        # an edge whose weight rounds the selected total up to an integer
        total = sum((weights[e] for e in (range(len(edges)) if ids is None else ids)),
                    Fraction(0))
        edges.append(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)))
        weights.append(math.ceil(total) - total)
        if ids is not None:
            ids.append(len(edges) - 1)
    threshold = draw(st.builds(Fraction, st.integers(1, 6), st.integers(1, 4)))
    return Hypergraph(n, edges), EdgeVector(weights), threshold, ids


class TestAgainstBruteProperty:
    @settings(max_examples=150, deadline=None)
    @given(oracle_instances())
    @example((Hypergraph(3, [[0, 1, 2], [0, 1, 2]]), EdgeVector.of(["1/2", "1/2"]),
              Fraction(3, 2), None))
    @example((Hypergraph(3, [[0, 1], [1, 2]]), EdgeVector.of(["1/3", "2/3"]),
              Fraction(1, 2), [0, 1]))
    def test_value_and_partition(self, inst):
        h, w, t, ids = inst
        res = min_partition(h, w, t, ids)
        expected, _ = brute_min_partition(h, w, t, ids)
        assert res.value == expected
        assert crossing_value(h, w, res.partition, t, ids) == expected
        assert res.violated == (expected < 0)
        assert type(res.value) is Fraction
