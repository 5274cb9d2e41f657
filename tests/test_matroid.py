import itertools
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
    BoundViolation,
    CutEngine,
    EdgeVector,
    Hypergraph,
    InPolytope,
    Partition,
    SetViolation,
    independence_test_incremental,
    is_independent,
    max_weight_hyperforest,
    min_partition,
    rank,
    separate_polytope,
)
from hypermat.brute import (
    brute_hyperforest,
    brute_max_weight_hyperforest,
    brute_rank,
    brute_separate,
)
from hypermat.matroid import _Gathering

from helpers import examples, hypergraphs, random_hypergraph, random_point, random_weights

SRC = Path(__file__).resolve().parents[1] / "src"


def _no_cut(*args, **kwargs):
    raise AssertionError("a min cut ran")


def _no_search(*args, **kwargs):
    raise AssertionError("an augmenting-path search ran")


def mixed_hypergraph(rng: random.Random, n: int, m: int) -> Hypergraph:
    """Random edges of any size from 1 (loops) to n, some of them parallel copies."""
    edges: list[list[int]] = []
    for _ in range(m):
        if edges and rng.random() < 0.15:
            edges.append(list(rng.choice(edges)))
        else:
            edges.append(rng.sample(range(n), rng.randint(1, n)))
    return Hypergraph(n, edges)


@st.composite
def matroid_instances(draw):
    """(h, weights, edge subset) at n <= 7, with loops, parallel edges and fractional weights."""
    n = draw(st.integers(1, 7))
    vertex_sets = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True), min_size=1, max_size=6))
    # indices into vertex_sets: a repeated index is a parallel edge
    picks = draw(st.lists(st.integers(0, len(vertex_sets) - 1), max_size=10))
    h = Hypergraph(n, [vertex_sets[i] for i in picks])
    weights = draw(st.lists(st.builds(Fraction, st.integers(0, 6), st.integers(1, 3)),
                            min_size=h.m, max_size=h.m))
    keep = draw(st.lists(st.booleans(), min_size=h.m, max_size=h.m))
    return h, EdgeVector.of(weights), [e for e in range(h.m) if keep[e]]


class TestRank:
    def test_examples(self, h0, h1, k4):
        assert rank(h0).rank == 2
        assert rank(h1).rank == 3
        assert rank(k4).rank == 3

    def test_subsets(self, h0):
        assert rank(h0, [0]).rank == 1
        assert rank(h0, []).rank == 0

    def test_loops(self):
        h = Hypergraph(3, [[0], [1], [0, 1]])
        assert rank(h).rank == 1
        assert rank(h, [0, 1]).rank == 0

    def test_witness_attains_rank(self, h1):
        res = rank(h1)
        p = res.witness_partition
        crossing = h1.cross_edges(None, p)
        assert res.rank == h1.n - len(p.blocks) + len(crossing)

    def test_random_against_brute(self):
        rng = random.Random(0x7A2)
        for _ in range(80):
            n = rng.randint(1, 6)
            m = rng.randint(0, 7)
            h = random_hypergraph(rng, n, m, max_size=min(5, n)) if n >= 2 \
                else Hypergraph(n, [])
            ids = [e for e in range(h.m) if rng.random() < 0.7]
            assert rank(h, ids).rank == brute_rank(h, ids)

    def test_edge_id_out_of_range(self, h0):
        with pytest.raises(ValueError):
            rank(h0, [0, 5])

    def test_rank_axioms(self):
        rng = random.Random(0xAB)
        h = random_hypergraph(rng, 5, 5, max_size=4)
        table = {}
        for r in range(h.m + 1):
            for combo in itertools.combinations(range(h.m), r):
                table[frozenset(combo)] = rank(h, combo).rank
        sets = list(table)
        for a in sets:
            assert 0 <= table[a] <= len(a)
        for a, b in itertools.product(sets, repeat=2):
            if a <= b:
                assert table[a] <= table[b]
            assert table[a | b] + table[a & b] <= table[a] + table[b]


class TestIndependence:
    def test_examples(self, h0, k3):
        assert is_independent(h0)
        assert not is_independent(k3)
        assert is_independent(k3, [0, 2])

    def test_empty_and_loop(self):
        assert is_independent(Hypergraph(3, []), [])
        assert not is_independent(Hypergraph(2, [[0], [0, 1]]))

    def test_incremental(self, h0, k3):
        assert independence_test_incremental(h0, [0], 1)
        assert not independence_test_incremental(k3, [0, 1], 2)

    def test_incremental_rejects_present_candidate(self, h0):
        with pytest.raises(ValueError):
            independence_test_incremental(h0, [0, 1], 1)

    def test_incremental_rejects_out_of_range_ids(self, k3):
        # -1 would index edge 2 and 3 would raise IndexError
        for ids, candidate in (([0], -1), ([0], k3.m), ([-1], 0), ([0, -3], 1)):
            with pytest.raises(ValueError, match="edge id out of range"):
                independence_test_incremental(k3, ids, candidate)
        # -1 is not taken for edge 2, already in the set
        with pytest.raises(ValueError, match="edge id out of range"):
            independence_test_incremental(k3, [2], -1)

    def test_incremental_rejects_dependent_set(self):
        h = Hypergraph(3, [[0, 1], [0, 1], [1, 2]])
        with pytest.raises(ValueError, match="not independent"):
            independence_test_incremental(h, [0, 1], 2)
        with pytest.raises(ValueError, match="duplicate"):
            independence_test_incremental(h, [0, 0], 2)

    def test_random_against_brute(self):
        rng = random.Random(0x1DE)
        for _ in range(80):
            n = rng.randint(2, 7)
            m = rng.randint(0, 8)
            h = random_hypergraph(rng, n, m, max_size=min(4, n))
            assert is_independent(h) == brute_hyperforest(h)

    def test_oversized_set_needs_no_cut(self, monkeypatch):
        # more than n - 1 edges exceed every rank: answered before any cut
        rng = random.Random(0x0E5)
        sizes = []
        for _ in range(40):
            n = rng.randint(2, 6)
            h = random_hypergraph(rng, n, rng.randint(0, 9), max_size=min(4, n))
            sizes.append(h.m > n - 1)
            expected = brute_hyperforest(h)
            if h.m > n - 1:
                with monkeypatch.context() as patched:
                    patched.setattr(_Gathering, "_gather", _no_search)
                    assert is_independent(h) is False
            assert is_independent(h) == expected
        assert any(sizes) and not all(sizes)


class TestAgainstBrute:
    @settings(max_examples=300, deadline=None)
    @given(matroid_instances())
    def test_matches_enumeration(self, inst):
        h, weights, ids = inst
        assert is_independent(h) == brute_hyperforest(h)
        assert is_independent(h, ids) == brute_hyperforest(h, ids)
        assert rank(h).rank == brute_rank(h)
        assert rank(h, ids).rank == brute_rank(h, ids)
        chosen, weight = max_weight_hyperforest(h, weights)
        assert weight == brute_max_weight_hyperforest(h, weights)
        assert brute_hyperforest(h, chosen) and len(chosen) == brute_rank(h)

    def test_witness_is_the_oracle_partition(self):
        # the maximal tight sets of the basis are the coarsest optimal
        # partition, the one the partition oracle reports
        rng = random.Random(0x3A7C)
        for _ in range(600):
            n = rng.randint(1, 8)
            h = mixed_hypergraph(rng, n, rng.randint(0, 12))
            ids = [e for e in range(h.m) if rng.random() < 0.7]
            for sel in (None, ids):
                oracle = min_partition(h, EdgeVector.ones(h.m), Fraction(1), sel)
                res = rank(h, sel)
                assert res.witness_partition == oracle.partition
                assert res.rank == oracle.value + n - 1


class TestNoCuts:
    def test_answers_without_any_cut(self, monkeypatch, h1, k4):
        crit9 = random_hypergraph(random.Random(0xC9), 30, 150, max_size=6, connected=True)
        cases = []
        for h in (h1, k4, crit9):
            # a dependent subset and the first n - 1 edges (a spanning path in crit9)
            sub = list(range(min(h.m, h.n - 1)))
            expected = [min_partition(h, EdgeVector.ones(h.m), Fraction(1), sel)
                        for sel in (None, sub)]
            cases.append((h, sub, expected))
        monkeypatch.setattr(CutEngine, "solve", _no_cut)
        monkeypatch.setattr("hypermat.mincut.min_st_cut", _no_cut)
        for h, sub, (whole, part) in cases:
            assert rank(h).rank == whole.value + h.n - 1
            assert rank(h, sub).rank == part.value + h.n - 1
            assert rank(h, sub).witness_partition == part.partition
            assert is_independent(h, sub) == (part.value + h.n - 1 == len(sub))
            assert is_independent(h) == (whole.value + h.n - 1 == h.m)
            chosen, weight = max_weight_hyperforest(h, EdgeVector.ones(h.m))
            assert weight == len(chosen) == whole.value + h.n - 1


class TestCertificates:
    """Lorea's trimming of a hyperforest kept by the gathering pass at cap 1."""

    def _kept(self, *edges):
        gathering = _Gathering(3, 1)
        assert all([gathering.add(verts, 1) == 1 for verts in edges])
        gathering.certify_forest()
        return gathering

    def test_held_vertex_outside_its_edge(self):
        gathering = self._kept((0, 1), (1, 2))
        # vertex 0 lies outside the edge {1, 2}
        gathering.split[1] = {0: 1}
        with pytest.raises(AssertionError, match="leaves its edge"):
            gathering.certify_forest()

    def test_shared_held_vertex_closes_a_cycle(self):
        gathering = self._kept((0, 1), (0, 1, 2))
        # both edges hold the same vertex: the free vertex of {0, 1} pairs
        # with it twice
        gathering.split[1] = dict(gathering.split[0])
        with pytest.raises(AssertionError, match="close a cycle"):
            gathering.certify_forest()

    def test_no_free_vertex_misses_every_edge(self):
        gathering = self._kept((0, 1), (1, 2))
        # a triangle forced in: each edge holds a vertex, none is free
        gathering.slots.append((0, 2))
        gathering.split[:] = [{0: 1}, {1: 1}, {2: 1}]
        with pytest.raises(AssertionError, match="missed an edge"):
            gathering.certify_forest()

    @pytest.mark.parametrize("units", [{}, {0: 2}, {0: 1, 1: 1}])
    def test_held_units_other_than_one(self, units):
        gathering = self._kept((0, 1), (1, 2))
        gathering.split[0] = units
        with pytest.raises(AssertionError, match="other than one unit"):
            gathering.certify_forest()

    def test_forged_rejection_fails_the_hall_check(self, monkeypatch):
        # a search that gives up at once: the edge {1, 2} finds one free
        # unit of the two it needs, though the three edges form a path
        h = Hypergraph(4, [[0, 1], [2, 3], [1, 2]])
        monkeypatch.setattr(_Gathering, "_search", lambda self, verts: (-1, None, {}))
        with pytest.raises(AssertionError, match="no sparsity violator"):
            max_weight_hyperforest(h, EdgeVector.ones(3))
        with pytest.raises(AssertionError, match="no sparsity violator"):
            is_independent(h)

    def test_forged_tight_sets_miss_the_rank(self, monkeypatch):
        # a triangle and an isolated vertex: the basis holds 2 of the 3
        # units that would make V tight, so the block readout walks its
        # slots.  With no tight set every vertex is a block, and all three
        # edges cross that partition, though the rank is 2
        monkeypatch.setattr(_Gathering, "tight_set", lambda self, verts: None)
        with pytest.raises(AssertionError, match="does not attain the rank"):
            rank(Hypergraph(4, [[0, 1], [1, 2], [0, 2]]))

    def test_forged_violated_set(self, monkeypatch, k3):
        monkeypatch.setattr("hypermat.matroid._most_violated", lambda *args: frozenset({0, 1}))
        with pytest.raises(AssertionError, match="inequality holds"):
            separate_polytope(k3, EdgeVector.zeros(3))

    def test_checks_survive_optimize(self):
        code = (
            "from hypermat.matroid import _Gathering\n"
            "g = _Gathering(3, 1)\n"
            "g.add((0, 1), 1); g.add((1, 2), 1)\n"
            "g.split[1] = {0: 1}\n"
            "try:\n"
            "    g.certify_forest()\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
        assert out.stdout == "raised: a trimmed pair leaves its edge\n"


class TestMaxWeightHyperforest:
    def test_triangle(self, k3):
        chosen, weight = max_weight_hyperforest(k3, EdgeVector.of([3, 2, 1]))
        assert weight == 5 and chosen == frozenset({0, 1})

    def test_chosen_set_is_independent(self, h1):
        w = EdgeVector.of(["3/2", 1, 2])
        chosen, weight = max_weight_hyperforest(h1, w)
        assert is_independent(h1, chosen)
        assert weight == w.sum_over(chosen)

    def test_zero_weights_still_packed(self, h0):
        chosen, weight = max_weight_hyperforest(h0, EdgeVector.zeros(2))
        assert weight == 0 and len(chosen) == 2

    def test_random_against_brute(self):
        rng = random.Random(0xF0E)
        for _ in range(60):
            n = rng.randint(2, 6)
            m = rng.randint(0, 8)
            h = random_hypergraph(rng, n, m, max_size=min(4, n))
            w = random_weights(rng, h.m)
            chosen, weight = max_weight_hyperforest(h, w)
            assert weight == brute_max_weight_hyperforest(h, w)
            assert is_independent(h, chosen)


@st.composite
def point_instances(draw):
    """(h, x) at n <= 7 with parallel edges and loops at x = 0; x mostly in [0, 1]."""
    h = draw(hypergraphs(max_edges=8))
    # weighted towards 1, where the set inequalities bind
    coordinate = st.sampled_from([Fraction(v) for v in
                                  ("0", "1/3", "1/2", "2/3", "3/4", "1", "1", "1", "1", "5/4")])
    x = draw(st.lists(coordinate, min_size=h.m, max_size=h.m))
    return h, EdgeVector.of([0 if e.is_loop else v for e, v in zip(h.edges, x)])


class TestSeparation:
    @settings(max_examples=examples(200), deadline=None)
    @given(point_instances())
    def test_matches_enumeration(self, inst):
        h, x = inst
        outcome = separate_polytope(h, x)
        assert isinstance(outcome, InPolytope) == brute_separate(h, x)
        if isinstance(outcome, SetViolation):
            # the witness attains the minimum of |W| - x(E[W]) over nonempty W
            def score(w):
                return len(w) - x.sum_over(h.induced_edges(None, w))
            best = min(score(w) for r in range(1, h.n + 1)
                       for w in itertools.combinations(range(h.n), r))
            assert score(outcome.witness) == best < 1
            assert outcome.lhs == x.sum_over(outcome.edge_set) > outcome.rhs

    def test_interior_point(self, h0, k3):
        assert isinstance(separate_polytope(h0, EdgeVector.ones(2)), InPolytope)
        assert isinstance(separate_polytope(k3, EdgeVector.of(["2/3"] * 3)), InPolytope)

    def test_negative_coordinate(self, k3):
        out = separate_polytope(k3, EdgeVector.of([1, "-1/4", 1]))
        assert isinstance(out, BoundViolation)
        assert out.edge == 1 and out.upper is None and out.value == Fraction(-1, 4)

    def test_above_one(self, k3):
        out = separate_polytope(k3, EdgeVector.of([0, 0, "5/4"]))
        assert isinstance(out, BoundViolation)
        assert out.edge == 2 and out.upper == 1

    def test_loop_capped_at_zero(self):
        h = Hypergraph(2, [[0], [0, 1]])
        out = separate_polytope(h, EdgeVector.of(["1/2", 0]))
        assert isinstance(out, BoundViolation)
        assert out.edge == 0 and out.upper == 0

    def test_screening_in_id_order(self, k3):
        out = separate_polytope(k3, EdgeVector.of([2, -1, 0]))
        assert isinstance(out, BoundViolation) and out.edge == 0

    def test_set_violation_triangle(self, k3):
        out = separate_polytope(k3, EdgeVector.ones(3))
        assert isinstance(out, SetViolation)
        assert out.witness == frozenset({0, 1, 2})
        assert out.lhs == 3 and out.rhs == 2
        assert out.edge_set == frozenset({0, 1, 2})
        assert out.partition == Partition.whole(3)

    def test_set_violation_partition_shape(self):
        # dense spot {0,1,2} inside a larger vertex set
        h = Hypergraph(5, [[0, 1], [1, 2], [0, 2], [2, 3], [3, 4]])
        x = EdgeVector.of([1, 1, 1, 0, 0])
        out = separate_polytope(h, x)
        assert isinstance(out, SetViolation)
        assert out.witness == frozenset({0, 1, 2})
        assert out.partition == Partition(5, ((0, 1, 2), (3,), (4,)))
        assert out.lhs > out.rhs

    def test_random_against_brute(self):
        rng = random.Random(0x5E9)
        verdicts = {True: 0, False: 0}
        for _ in range(120):
            n = rng.randint(2, 6)
            m = rng.randint(1, 7)
            h = random_hypergraph(rng, n, m, max_size=min(4, n))
            x = random_point(rng, h.m)
            outcome = separate_polytope(h, x)
            inside = isinstance(outcome, InPolytope)
            assert inside == brute_separate(h, x)
            verdicts[inside] += 1
            if isinstance(outcome, SetViolation):
                lhs = x.sum_over(h.induced_edges(None, outcome.witness))
                assert lhs == outcome.lhs and lhs > len(outcome.witness) - 1
        # the sample must exercise both verdicts to mean anything
        assert verdicts[True] > 10 and verdicts[False] > 10
