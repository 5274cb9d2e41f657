"""The gathering pass (matroid._Gathering) and the answers it certifies.

The pass accepts edge demands onto vertex capacities while every edge
family F keeps demand(F) <= cap (|V(F)| - 1).  Rank, independence and
the greedy forest run it at cap 1 with unit demands.  Arboricity,
strength and separation run it before their cuts and fall back to them
when it rejects; arboricity and separation fall back through one
routine, matroid._most_violated.  These tests compare the pass and its
tight sets with enumeration and the routine with a full sweep of forced
cuts, pin the fallback's witnesses and cut counts, check that an
accepting run makes no cut, and break the pass's certificates.
tests/test_packing.py and tests/test_matroid.py compare the answers
with enumeration, and tests/test_matroid.py breaks the trimming that
certifies a hyperforest.
"""

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
    CutEngine,
    EdgeVector,
    Hypergraph,
    InPolytope,
    Partition,
    SetViolation,
    arboricity,
    separate_polytope,
    strength,
)
from hypermat.brute import brute_min_partition
from hypermat.gadgets import GadgetCutInterpretation, build_supermodular_gadget, forced_sweep
from hypermat.matroid import _Gathering, _gathers, _most_violated

from helpers import examples, hypergraphs, random_hypergraph

SRC = Path(__file__).resolve().parents[1] / "src"


def _no_cut(*args, **kwargs):
    raise AssertionError("a min cut ran")


def _count_solves(monkeypatch):
    """Count CutEngine.solve calls from here on; returns the one-item counter."""
    solve = CutEngine.solve
    count = [0]

    def counted(self):
        count[0] += 1
        return solve(self)

    monkeypatch.setattr(CutEngine, "solve", counted)
    return count


def _swept(h, cap, demands):
    """The first minimizer of cap |W| - demand(E[W]) over nonempty W, by a full forced sweep."""
    g = build_supermodular_gadget(h, demands, [cap] * h.n, forced=0)
    return min(forced_sweep(g), key=lambda info: info.value).witness


def _past_the_screen():
    """A point with x(E) <= n - 1 that the gathering pass rejects."""
    h = Hypergraph(8, [[5, 6, 7, 4], [7, 6], [0, 1], [5, 3], [6, 4], [3, 0], [3, 7, 2, 1],
                       [2, 6, 0], [7, 1], [0, 6], [3, 6], [2, 6]])
    x = EdgeVector.of(["2/3", 0, "2/3", "2/3", "2/3", 1, "2/3", "1/3", 1, 1, "1/3", 0])
    return h, x


def _sparse(h, cap, demands):
    """Enumeration: every nonempty vertex set W has demand(E[W]) <= cap (|W| - 1)."""
    for r in range(1, h.n + 1):
        for w in itertools.combinations(range(h.n), r):
            if sum([demands[e] for e in h.induced_edges(None, w)]) > cap * (r - 1):
                return False
    return True


class TestAgainstEnumeration:
    @settings(max_examples=examples(200), deadline=None)
    @given(hypergraphs(), st.integers(0, 6), st.data())
    def test_whole_demand(self, h, cap, data):
        demands = data.draw(st.lists(st.integers(0, 8), min_size=h.m, max_size=h.m))
        assert _gathers(h, cap, demands, sum(demands)) == _sparse(h, cap, demands)

    @settings(max_examples=examples(200), deadline=None)
    @given(hypergraphs(min_n=2), st.integers(1, 6), st.data())
    def test_packing_goal(self, h, cap, data):
        # the packing reaches cap (|V| - 1) exactly when no partition P has
        # demand(crossing P) < cap (|P| - 1)
        demands = data.draw(st.lists(st.integers(0, 8), min_size=h.m, max_size=h.m))
        value, _ = brute_min_partition(h, EdgeVector.of(demands), Fraction(cap))
        assert _gathers(h, cap, demands, cap * (h.n - 1)) == (value == 0)


class TestTightSet:
    @settings(max_examples=examples(200), deadline=None)
    @given(hypergraphs())
    def test_matches_enumeration(self, h):
        # a hyperforest kept in id order at cap 1; X is tight when |X| - 1
        # kept edges lie inside it, and each kept edge lies in one or in none
        gathering = _Gathering(h.n, 1)
        kept = [e for e in range(h.m) if gathering.add(h.edges[e].vertices, 1)]

        def tight(x):
            return len(h.induced_edges(kept, x)) == len(x) - 1

        for e in kept:
            verts = h.edges[e].vertices
            found = gathering.tight_set(verts)
            if found is None:
                rest = [v for v in range(h.n) if v not in verts]
                assert not any([tight(set(verts).union(extra))
                                for r in range(len(rest) + 1)
                                for extra in itertools.combinations(rest, r)])
            else:
                assert found >= set(verts) and tight(found)
        # the gatherings move units but keep every certificate
        gathering.certify()
        gathering.certify_forest()


class TestMostViolated:
    @settings(max_examples=examples(200), deadline=None)
    @given(hypergraphs(), st.integers(1, 6), st.data())
    def test_matches_the_full_sweep(self, h, cap, data):
        # zero demands come up, and loops keep demand 0, as separation's do
        demands = [0 if e.is_loop else data.draw(st.integers(0, 8)) for e in h.edges]
        if _gathers(h, cap, demands, sum(demands)):
            assert _most_violated(h, cap, demands) is None
        else:
            assert _most_violated(h, cap, demands) == _swept(h, cap, demands)

    def test_one_cut_when_the_whole_set_violates(self, monkeypatch):
        # a crit9-shaped point: x(E) > n - 1, so W = V scores below 0 and the
        # unforced cut names a nonempty minimizer
        rng = random.Random(0xC9)
        h = random_hypergraph(rng, 60, 300, max_size=6, connected=True)
        x = EdgeVector.of([Fraction(rng.randint(0, 4), 4) for _ in range(h.m)])
        assert x.total() > h.n - 1
        nums, scale = x._integers()
        expected = _swept(h, scale, nums)
        count = _count_solves(monkeypatch)
        outcome = separate_polytope(h, x)
        assert count[0] == 1
        assert isinstance(outcome, SetViolation) and outcome.witness == expected

    def test_sweep_when_every_set_scores_above_zero(self, monkeypatch):
        # the violated set {0, 3, 6} scores 3 - 7/3 = 2/3 > 0, so the unforced
        # cut names the empty set and all n forced cuts follow it
        h, x = _past_the_screen()
        count = _count_solves(monkeypatch)
        assert separate_polytope(h, x).witness == frozenset({0, 3, 6})
        assert count[0] == h.n + 1

    def test_forged_rejection(self, monkeypatch):
        # one edge on three vertices fits, so every set scores at least cap
        monkeypatch.setattr("hypermat.matroid._gathers", lambda *args: False)
        with pytest.raises(AssertionError, match="no violated set"):
            _most_violated(Hypergraph(3, [[0, 1]]), 2, [2])

    def test_forged_unforced_cut(self, monkeypatch):
        class Engine:
            def __init__(self, g):
                pass

            def solve(self):
                return GadgetCutInterpretation(frozenset({1, 2}), frozenset({0}), frozenset(), 2)

        monkeypatch.setattr("hypermat.matroid.GadgetEngine", Engine)
        with pytest.raises(AssertionError, match="scores above the empty set"):
            _most_violated(Hypergraph(3, [[0, 1], [0, 1]]), 1, [1, 1])


class TestFallback:
    """Instances whose first round rejects: the cuts answer, as before the pass."""

    def test_arboricity_three_rounds(self):
        h = Hypergraph(5, [[2, 0], [2, 0], [3, 4, 0, 1], [0, 3], [1, 0, 3], [2, 0], [2, 3],
                           [4, 0, 3]])
        res = arboricity(h)
        assert (res.rho, res.k, res.witness, res.iterations) == (3, 3, frozenset({0, 2}), 3)

    def test_strength_three_rounds(self):
        h = Hypergraph(7, [[6, 0, 3], [2, 5, 3, 6], [1, 3], [4, 3, 2, 1], [4, 6, 0], [5, 1],
                           [6, 0, 5], [0, 2, 3, 6]])
        caps = EdgeVector.of([1, 3, 0, "1/3", 0, "1/2", 3, "1/3"])
        res = strength(h, caps)
        assert res.sigma == Fraction(1, 3) and res.integer_packing == 0
        assert res.critical_partition == Partition(7, ((0, 1, 2, 3, 5, 6), (4,)))
        assert res.iterations == 3

    def test_separation_past_the_screen(self):
        h, x = _past_the_screen()
        assert x.total() <= h.n - 1
        assert separate_polytope(h, x) == SetViolation(
            witness=frozenset({0, 3, 6}), lhs=Fraction(7, 3), rhs=2,
            edge_set=frozenset({5, 9, 10}),
            partition=Partition(8, ((0, 3, 6), (1,), (2,), (4,), (5,), (7,))))


class TestNoCut:
    def test_crit9_shape_certifies_without_a_cut(self, monkeypatch):
        h = random_hypergraph(random.Random(0xC9), 60, 300, max_size=6, connected=True)
        monkeypatch.setattr(CutEngine, "solve", _no_cut)
        res = arboricity(h)
        assert res.rho == Fraction(300, 59) and res.witness == frozenset(range(60))
        assert res.iterations == 1
        res = strength(h)
        assert res.sigma == Fraction(300, 59) and res.critical_partition == Partition.singletons(60)
        assert res.iterations == 1
        inside = EdgeVector.constant(h.m, Fraction(59, 300))
        assert separate_polytope(h, inside) == InPolytope()


class TestCertificates:
    def _two_edges(self):
        gathering = _Gathering(3, 2)
        assert gathering.add((0, 1), 2) == 2 and gathering.add((1, 2), 2) == 2
        gathering.certify()
        return gathering

    def test_split_off_its_edge(self):
        gathering = self._two_edges()
        # vertex 2 lies outside the edge {0, 1}
        gathering.split[0] = {2: 2}
        with pytest.raises(AssertionError, match="leave its split"):
            gathering.certify()

    def test_split_short_of_its_amount(self):
        gathering = self._two_edges()
        gathering.amount[1] += 1
        with pytest.raises(AssertionError, match="leave its split"):
            gathering.certify()

    def test_load_past_capacity(self):
        gathering = self._two_edges()
        gathering.free[0] += 1
        with pytest.raises(AssertionError, match="load passes its capacity"):
            gathering.certify()

    def test_forged_rejection(self, monkeypatch):
        gathering = _Gathering(3, 2)
        assert gathering.add((1, 2), 2) == 2 and gathering.free == [2, 0, 2]
        # a search that gives up at once, though vertex 2 has free units:
        # {1, 2} and {0, 1} fit on three vertices, so nothing is violated
        monkeypatch.setattr(_Gathering, "_search", lambda self, verts: (-1, None, {}))
        with pytest.raises(AssertionError, match="no sparsity violator"):
            gathering.add((0, 1), 2)

    def test_forged_gather(self, monkeypatch):
        # a search that "finds" a unit already on the edge counts it twice
        monkeypatch.setattr(_Gathering, "_search",
                            lambda self, verts: (verts[0], [-1] * len(self.free), {}))
        with pytest.raises(AssertionError, match="gathered too few"):
            _Gathering(3, 2).add((0, 1), 3)

    def test_checks_survive_optimize(self):
        code = (
            "from hypermat.matroid import _Gathering\n"
            "g = _Gathering(3, 2)\n"
            "g.add((0, 1), 2); g.add((1, 2), 2)\n"
            "g.split[1] = {0: 2}\n"
            "try:\n"
            "    g.certify()\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
        assert out.stdout == "raised: an accepted edge's units leave its split\n"
