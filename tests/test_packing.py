import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermat import (
    EdgeVector,
    Hypergraph,
    LoopPresentError,
    Partition,
    arboricity,
    strength,
)
from hypermat.brute import brute_arboricity, brute_strength
from hypermat.matroid import _Gathering

from helpers import examples, hypergraphs, random_hypergraph, random_weights

SRC = Path(__file__).resolve().parents[1] / "src"

# three parallel edges {0, 1} and a bridge {1, 2}: the singletons score
# 4/2, and strength's first round rejects with blocks {0, 1} and {2}
BRIDGED = Hypergraph(3, [[0, 1], [0, 1], [0, 1], [1, 2]])


class TestStrength:
    def test_triangle(self, k3):
        res = strength(k3)
        assert res.sigma == Fraction(3, 2)
        assert res.critical_partition == Partition.singletons(3)
        assert res.integer_packing == 1

    def test_k4(self, k4):
        res = strength(k4)
        assert res.sigma == 2 and res.integer_packing == 2

    def test_two_triples(self, h0):
        assert strength(h0).sigma == 1

    def test_capacities(self, k3):
        res = strength(k3, EdgeVector.of([1, 2, 3]))
        assert res.sigma == 3

    def test_disconnected(self):
        h = Hypergraph(4, [[0, 1], [2, 3]])
        res = strength(h)
        assert res.sigma == 0
        assert res.integer_packing == 0
        assert len(res.critical_partition.blocks) >= 2
        assert h.cross_edges(None, res.critical_partition) == frozenset()

    def test_no_edges(self):
        res = strength(Hypergraph(3, []))
        assert res.sigma == 0

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            strength(Hypergraph(1, []))

    def test_critical_partition_attains(self, k3, k4, h0, h1):
        for h in (k3, k4, h0, h1):
            res = strength(h)
            p = res.critical_partition
            crossing = h.cross_edges(None, p)
            assert Fraction(len(crossing), len(p.blocks) - 1) == res.sigma

    def test_iteration_budget(self, k4):
        assert strength(k4).iterations <= k4.n

    def test_random_against_brute(self):
        rng = random.Random(0x57E)
        for trial in range(70):
            n = rng.randint(2, 6)
            m = rng.randint(0, 8)
            h = random_hypergraph(rng, n, m, max_size=min(4, n))
            caps = random_weights(rng, h.m) if rng.random() < 0.5 else None
            res = strength(h, caps)
            expected, _ = brute_strength(h, caps)
            assert res.sigma == expected, f"trial {trial}"
            assert res.integer_packing == math.floor(expected)
            p = res.critical_partition
            if len(p.blocks) > 1:
                c = caps if caps is not None else EdgeVector.ones(h.m)
                attained = c.sum_over(h.cross_edges(None, p)) / (len(p.blocks) - 1)
                assert attained == expected


class TestArboricity:
    def test_triangle(self, k3):
        res = arboricity(k3)
        assert res.rho == Fraction(3, 2)
        assert res.k == 2
        assert res.witness == frozenset({0, 1, 2})

    def test_two_triples(self, h0):
        res = arboricity(h0)
        assert res.rho == 1 and res.k == 1

    def test_single_triple(self):
        res = arboricity(Hypergraph(3, [[0, 1, 2]]))
        assert res.rho == Fraction(1, 2) and res.k == 1

    def test_k4(self, k4):
        assert arboricity(k4).rho == 2

    def test_no_edges(self):
        res = arboricity(Hypergraph(4, []))
        assert res.rho == 0 and res.k == 0 and res.iterations == 0

    def test_loop_rejected(self):
        with pytest.raises(LoopPresentError):
            arboricity(Hypergraph(2, [[0], [0, 1]]))

    def test_single_vertex_edgeless_ok(self):
        # nothing to cover; the size guard only matters once edges exist
        res = arboricity(Hypergraph(1, []))
        assert res.rho == 0 and res.k == 0

    def test_witness_attains(self, k3, k4, h0, h1):
        for h in (k3, k4, h0, h1):
            res = arboricity(h)
            inside = h.induced_edges(None, res.witness)
            assert Fraction(len(inside), len(res.witness) - 1) == res.rho

    def test_random_against_brute(self):
        rng = random.Random(0xA9B)
        for trial in range(70):
            n = rng.randint(2, 7)
            m = rng.randint(1, 9)
            h = random_hypergraph(rng, n, m, max_size=min(4, n))
            res = arboricity(h)
            expected, _ = brute_arboricity(h)
            assert res.rho == expected, f"trial {trial}"
            assert res.k == math.ceil(expected)
            inside = h.induced_edges(None, res.witness)
            assert Fraction(len(inside), len(res.witness) - 1) == expected


class TestAgainstBruteProperty:
    @settings(max_examples=examples(150), deadline=None)
    @given(hypergraphs(min_n=2), st.data())
    def test_strength_matches_enumeration(self, h, data):
        caps = data.draw(st.none() | st.lists(
            st.builds(Fraction, st.integers(0, 6), st.integers(1, 4)),
            min_size=h.m, max_size=h.m).map(EdgeVector.of))
        res = strength(h, caps)
        expected, _ = brute_strength(h, caps)
        assert res.sigma == expected
        assert res.integer_packing == math.floor(expected)
        p = res.critical_partition
        c = caps if caps is not None else EdgeVector.ones(h.m)
        assert len(p.blocks) >= 2
        assert c.sum_over(h.cross_edges(None, p)) / (len(p.blocks) - 1) == expected

    @settings(max_examples=examples(150), deadline=None)
    @given(hypergraphs(min_n=2, min_size=2))
    def test_arboricity_matches_enumeration(self, h):
        res = arboricity(h)
        expected, _ = brute_arboricity(h)
        assert res.rho == expected
        assert res.k == math.ceil(expected)
        assert Fraction(len(h.induced_edges(None, res.witness)), len(res.witness) - 1) == expected


class TestChecks:
    def test_blocks_anchor_the_bridge(self):
        res = strength(BRIDGED)
        assert (res.sigma, res.critical_partition, res.iterations) \
            == (1, Partition(3, ((0, 1), (2,))), 2)

    def test_forged_blocks(self, monkeypatch):
        # the singletons in place of the blocks do not attain the total
        monkeypatch.setattr(_Gathering, "blocks", lambda self: Partition.singletons(len(self.free)))
        with pytest.raises(AssertionError, match="partition value is not the rejected total"):
            strength(BRIDGED)

    def test_checks_survive_optimize(self):
        code = (
            "from hypermat import Hypergraph, Partition, strength\n"
            "from hypermat.matroid import _Gathering\n"
            "_Gathering.blocks = lambda self: Partition.singletons(len(self.free))\n"
            "try:\n"
            "    strength(Hypergraph(3, [[0, 1], [0, 1], [0, 1], [1, 2]]))\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
        assert out.stdout == "raised: the blocks' partition value is not the rejected total\n"
