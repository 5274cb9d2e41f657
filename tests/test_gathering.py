"""The gathering pass (matroid._Gathering) and the answers it certifies.

The pass accepts edge demands onto vertex capacities while every edge
family F keeps demand(F) <= cap (|V(F)| - 1); its maximal tight sets are
its blocks.  Rank, independence and the greedy forest run it at cap 1
with unit demands.  Arboricity, strength and separation run it first.
Where it rejects, strength takes its blocks as the next anchor, and
arboricity and separation fall back through one routine,
matroid._most_violated: one unforced cut, then one forced cut per block.
These tests compare the pass, its tight sets and its blocks with
enumeration; the strength anchors with the partition oracle and the
routine with fresh forced cuts at every vertex, the kept cut path; pin
the fallback's witnesses and cut counts, on the criterion-9 generator
too; check that an accepting run makes no cut; and break the pass's
certificates.  tests/test_packing.py and tests/test_matroid.py compare
the answers with enumeration, and tests/test_matroid.py breaks the
trimming that certifies a hyperforest.
"""

import dataclasses
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
    INF,
    InPolytope,
    Partition,
    SetViolation,
    arboricity,
    interpret_gadget_cut,
    min_partition,
    separate_polytope,
    strength,
)
from hypermat.brute import brute_min_partition
from hypermat.gadgets import GadgetCutInterpretation, build_supermodular_gadget
from hypermat.matroid import _Gathering, _most_violated, _pass

from helpers import count_solves, crit9, examples, hypergraphs, random_hypergraph

SRC = Path(__file__).resolve().parents[1] / "src"


def _no_cut(*args, **kwargs):
    raise AssertionError("a min cut ran")


def _swept(h, cap, demands):
    """The first minimizer of cap |W| - demand(E[W]) over nonempty W, by a fresh forced cut at each vertex.

    One unforced gadget is built; each vertex gets a cold engine on it
    whose sink arc at that vertex turns infinite, the builder's forced
    gadget, and the cut is read back as forced there.
    """
    g = build_supermodular_gadget(h, demands, [cap] * h.n)
    cuts = []
    for v in range(h.n):
        engine = CutEngine(g.network)
        engine.set_capacity(h.n + v, INF)
        cuts.append(interpret_gadget_cut(dataclasses.replace(g, forced=v), engine.solve()))
    return min(cuts, key=lambda info: info.value).witness


def _check_most_violated(h, cap, demands):
    """_most_violated against the pass and fresh forced cuts; whether the pass rejected."""
    goal = sum(demands)
    if _pass(h, cap, demands, goal)[0] == goal:
        assert _most_violated(h, cap, demands) is None
        return False
    assert _most_violated(h, cap, demands) == _swept(h, cap, demands)
    return True


def _check_strength_anchors(h, caps):
    """Each rejected strength round's anchor against min_partition at that round's ratio.

    Every `blocks()` call in strength reads a rejected round.  Returns
    how many rounds rejected.
    """
    c = caps if caps is not None else EdgeVector.ones(h.m)
    found = []
    blocks = _Gathering.blocks

    def spy(self):
        out = blocks(self)
        found.append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Gathering, "blocks", spy)
        res = strength(h, caps)
    anchor = Partition.singletons(h.n)
    for cand in found:
        ratio = c.sum_over(h.cross_edges(None, anchor)) / (len(anchor.blocks) - 1)
        assert cand == min_partition(h, c, ratio).partition
        anchor = cand
    assert anchor == res.critical_partition
    return len(found)


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
        assert (_pass(h, cap, demands, sum(demands))[0] == sum(demands)) == _sparse(h, cap, demands)

    @settings(max_examples=examples(200), deadline=None)
    @given(hypergraphs(min_n=2), st.integers(1, 6), st.data())
    def test_packing_goal(self, h, cap, data):
        # the packing reaches cap (|V| - 1) exactly when no partition P has
        # demand(crossing P) < cap (|P| - 1)
        demands = data.draw(st.lists(st.integers(0, 8), min_size=h.m, max_size=h.m))
        value, _ = brute_min_partition(h, EdgeVector.of(demands), Fraction(cap))
        assert (_pass(h, cap, demands, cap * (h.n - 1))[0] == cap * (h.n - 1)) == (value == 0)


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

    @settings(max_examples=examples(200), deadline=None)
    @given(hypergraphs(), st.integers(1, 6), st.data())
    def test_blocks_match_enumeration(self, h, cap, data):
        # every edge offered its demand; X is tight when the accepted
        # amounts inside it reach cap (|X| - 1), and the block of v is the
        # union of the tight sets holding v
        demands = data.draw(st.lists(st.integers(0, 8), min_size=h.m, max_size=h.m))
        gathering = _Gathering(h.n, cap)
        for e, demand in enumerate(demands):
            if demand:
                gathering.add(h.edges[e].vertices, demand)

        def tight(x):
            inside = [a for verts, a in zip(gathering.slots, gathering.amount) if x.issuperset(verts)]
            return sum(inside) == cap * (len(x) - 1)

        tight_sets = [set(x) for r in range(1, h.n + 1)
                      for x in itertools.combinations(range(h.n), r) if tight(set(x))]
        expected = []
        for v in range(h.n):
            block = sorted(set().union(*[x for x in tight_sets if v in x]))
            if block not in expected:
                expected.append(block)
        assert gathering.blocks() == Partition(h.n, tuple([tuple(b) for b in expected]))
        gathering.certify()


class TestMostViolated:
    @settings(max_examples=examples(200), deadline=None)
    @given(hypergraphs(), st.integers(1, 6), st.data())
    def test_matches_the_full_sweep(self, h, cap, data):
        # zero demands come up, and loops keep demand 0, as separation's do
        demands = [0 if e.is_loop else data.draw(st.integers(0, 8)) for e in h.edges]
        _check_most_violated(h, cap, demands)

    def test_one_cut_when_the_whole_set_violates(self, monkeypatch):
        # a crit9-shaped point: x(E) > n - 1, so W = V scores below 0 and the
        # unforced cut names a nonempty minimizer
        rng = random.Random(0xC9)
        h = random_hypergraph(rng, 60, 300, max_size=6, connected=True)
        x = EdgeVector.of([Fraction(rng.randint(0, 4), 4) for _ in range(h.m)])
        assert x.total() > h.n - 1
        nums, scale = x._integers()
        expected = _swept(h, scale, nums)
        count = count_solves(monkeypatch)
        outcome = separate_polytope(h, x)
        assert count[0] == 1
        assert isinstance(outcome, SetViolation) and outcome.witness == expected

    def test_sweep_when_every_set_scores_above_zero(self, monkeypatch):
        # the violated set {0, 3, 6} scores 3 - 7/3 = 2/3 > 0, so the unforced
        # cut names the empty set and one forced cut per block follows it
        h, x = _past_the_screen()
        nums, scale = x._integers()
        blocks = _pass(h, scale, nums, sum(nums))[1].blocks().blocks
        assert len(blocks) < h.n
        count = count_solves(monkeypatch)
        assert separate_polytope(h, x).witness == frozenset({0, 3, 6})
        assert count[0] == 1 + len(blocks)

    def test_forged_rejection(self, monkeypatch):
        # one edge on three vertices fits, so every set scores at least cap
        monkeypatch.setattr("hypermat.matroid._pass",
                            lambda h, cap, demands, goal: (0, _Gathering(h.n, cap)))
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


class TestAgainstTheCutPath:
    """The pass's fallbacks against the partition oracle and fresh forced cuts."""

    @settings(max_examples=examples(150), deadline=None)
    @given(hypergraphs(min_n=2), st.data())
    def test_strength_anchors(self, h, data):
        caps = data.draw(st.none() | st.lists(
            st.builds(Fraction, st.integers(0, 6), st.integers(1, 4)),
            min_size=h.m, max_size=h.m).map(EdgeVector.of))
        _check_strength_anchors(h, caps)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_crit9_n60(self, seed):
        # strength at unit capacities and at the weights, separation at the
        # inside point x_e = (n - 1)/m and at the quarters point, and
        # arboricity's first round: only the quarters point is rejected
        h, weights, point, _ = crit9(seed, 60)
        rejected = [_check_strength_anchors(h, caps) for caps in (None, weights)]
        for x in (EdgeVector.constant(h.m, Fraction(59, h.m)), point):
            nums, scale = x._integers()
            rejected.append(_check_most_violated(h, scale, nums))
        density = Fraction(h.m, 59)
        rejected.append(_check_most_violated(h, density.numerator, [density.denominator] * h.m))
        assert rejected == [0, 0, False, True, False]

    def test_crit9_n200_seed20(self):
        # the pass rejects strength's first round at both capacities, the
        # inside point and arboricity's first round, and the last two sweep
        h, weights, _, _ = crit9(20, 200)
        assert [_check_strength_anchors(h, caps) for caps in (None, weights)] == [1, 1]
        x = EdgeVector.constant(h.m, Fraction(199, h.m))
        nums, scale = x._integers()
        assert _check_most_violated(h, scale, nums)
        density = Fraction(h.m, 199)
        assert _check_most_violated(h, density.numerator, [density.denominator] * h.m)


class TestCliff:
    def test_crit9_n800_seed11(self, monkeypatch):
        # vertex 67 hangs by 5 edges, so V less 67 is the densest set, and
        # each pass rejects with two blocks: one unforced cut names no set,
        # then one forced cut per block; strength reads the blocks with no
        # cut.  A forced cut per vertex took 801 solves, and the partition
        # oracle 800.  The answers are those of that cut path.
        h, _, _, _ = crit9(11, 800)
        rest = frozenset(range(h.n)) - {67}
        count = count_solves(monkeypatch)
        out = separate_polytope(h, EdgeVector.constant(h.m, Fraction(h.n - 1, h.m)))
        assert isinstance(out, SetViolation) and out.witness == rest
        assert (out.lhs, out.rhs, h.m - len(out.edge_set)) == (Fraction(638401, 800), 798, 5)
        assert count[0] == 3
        count[0] = 0
        res = arboricity(h)
        assert (res.rho, res.k, res.witness, res.iterations) == (Fraction(3995, 798), 6, rest, 2)
        assert count[0] == 3
        count[0] = 0
        res = strength(h)
        assert (res.sigma, res.integer_packing, res.iterations) == (5, 5, 2)
        assert res.critical_partition == Partition(h.n, (tuple(sorted(rest)), (67,)))
        assert count[0] == 0


class TestFallback:
    """Instances whose first round rejects: the blocks and the cuts answer, as the cut path did."""

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
