import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypermat import (
    EdgeVector,
    Hypergraph,
    Partition,
    min_partition,
    reinforce,
    reinforcement,
)
from hypermat.brute import brute_reinforce
from hypermat.gadgets import GadgetEngine, build_supermodular_gadget

from helpers import (count_solves, crit9, examples, mst_cost, random_hypergraph, verify_duals,
                     verify_optimal)

SRC = Path(__file__).resolve().parents[1] / "src"


class TestReinforce:
    def test_two_triples(self, h0):
        res = reinforce(h0, 1, EdgeVector.of([1, 2]), EdgeVector.of([2, 2]))
        assert res.status == "optimal"
        assert res.cost == 2
        assert res.x.values == (Fraction(2), Fraction(0))
        verify_optimal(h0, 1, EdgeVector.of([1, 2]), [Fraction(2)] * 2, res)

    def test_two_triples_merge_trace(self, h0):
        res = reinforce(h0, 1, EdgeVector.of([1, 2]), EdgeVector.of([2, 2]))
        assert len(res.merges) == 1
        desc = res.merges[0]
        assert desc.merged == frozenset({0, 1, 2})
        assert desc.value == 2

    def test_zero_gain_merge_is_taken(self):
        # admitting edge 0 leaves the subproblem value at -1 whether or not
        # {0, 1} merges; the tie goes to the merge
        h = Hypergraph(3, [[0, 1], [1, 2]])
        res = reinforce(h, 1, EdgeVector.ones(2), EdgeVector.ones(2))
        assert [(desc.merged, desc.value) for desc in res.merges] == [
            (frozenset({0, 1}), 1), (frozenset({0, 1, 2}), 1)]

    def test_infeasible(self, h0):
        res = reinforce(h0, 1, EdgeVector.of([1, 2]), EdgeVector.of([1, 0]))
        assert res.status == "infeasible"
        assert res.x is None and res.cost is None
        cert = res.dual.final_partition
        blocks = len(cert.blocks)
        assert blocks >= 2
        u = EdgeVector.of([1, 0])
        assert u.sum_over(h0.cross_edges(None, cert)) < 1 * (blocks - 1)

    def test_triangle(self, k3):
        res = reinforce(k3, 1, EdgeVector.of([1, 2, 3]), EdgeVector.ones(3))
        assert res.status == "optimal" and res.cost == 3
        verify_optimal(k3, 1, EdgeVector.of([1, 2, 3]), [Fraction(1)] * 3, res)

    def test_fractional_bounds(self, h0):
        res = reinforce(h0, 1, EdgeVector.ones(2), EdgeVector.of(["3/2", "3/2"]))
        assert res.status == "optimal" and res.cost == 2
        verify_optimal(h0, 1, EdgeVector.ones(2), [Fraction(3, 2)] * 2, res)

    def test_unbounded(self, h0):
        res = reinforce(h0, 3, EdgeVector.of([1, 2]))
        assert res.status == "optimal"
        assert res.cost == 6
        assert res.x.values == (Fraction(6), Fraction(0))

    def test_zero_trees(self, h0):
        res = reinforce(h0, 0, EdgeVector.of([1, 2]), EdgeVector.of([0, 0]))
        assert res.status == "optimal" and res.cost == 0
        assert res.x.total() == 0

    def test_single_vertex(self):
        res = reinforce(Hypergraph(1, []), 5, EdgeVector.zeros(0))
        assert res.status == "optimal" and res.cost == 0

    def test_total_is_exact(self, k4):
        # any produced solution buys exactly k * (n - 1) in total
        for k in (1, 2, 3):
            res = reinforce(k4, k, EdgeVector.of([1, 2, 3, 4, 5, 6]))
            assert res.status == "optimal"
            assert res.x.total() == k * (k4.n - 1)

    def test_validation(self, h0):
        with pytest.raises(ValueError):
            reinforce(h0, -1, EdgeVector.ones(2))
        with pytest.raises(ValueError):
            reinforce(h0, 1, EdgeVector.of([-1, 0]))
        with pytest.raises(ValueError):
            reinforce(h0, 1, EdgeVector.ones(1))
        with pytest.raises(ValueError):
            reinforce(h0, 1, EdgeVector.ones(2), EdgeVector.of([1, -2]))

    def test_integrality_with_integer_data(self):
        rng = random.Random(0x1D7)
        for _ in range(40):
            n = rng.randint(2, 5)
            m = rng.randint(1, 5)
            h = random_hypergraph(rng, n, m, max_size=min(3, n))
            d = EdgeVector.of([rng.randint(0, 4) for _ in range(h.m)])
            u = EdgeVector.of([rng.randint(0, 3) for _ in range(h.m)])
            res = reinforce(h, rng.randint(1, 2), d, u)
            if res.status == "optimal":
                assert res.x.is_integral()

    def test_random_against_brute(self):
        rng = random.Random(0xB0B)
        statuses = {"optimal": 0, "infeasible": 0}
        for trial in range(70):
            n = rng.randint(2, 5)
            m = rng.randint(1, 5)
            h = random_hypergraph(rng, n, m, max_size=min(4, n))
            k = rng.randint(1, 2)
            d = EdgeVector.of([rng.randint(0, 4) for _ in range(h.m)])
            u = EdgeVector.of([rng.randint(0, 3) for _ in range(h.m)])
            res = reinforce(h, k, d, u)
            status, cost, _ = brute_reinforce(h, k, d, u)
            assert res.status == status, f"trial {trial}"
            assert res.cost == cost, f"trial {trial}"
            statuses[status] += 1
            if status == "optimal":
                verify_optimal(h, k, d, list(u), res)
        assert statuses["optimal"] > 10 and statuses["infeasible"] > 10

    def test_unbounded_matches_spanning_tree(self):
        # on a connected graph with k = 1, the answer is a minimum spanning tree
        rng = random.Random(0x3C7)
        for _ in range(25):
            n = rng.randint(3, 8)
            m = n + rng.randint(1, 4)
            h = random_hypergraph(rng, n, m, max_size=2, connected=True)
            d = EdgeVector.of([rng.randint(1, 6) for _ in range(h.m)])
            res = reinforce(h, 1, d)
            pairs = [tuple(e.vertices) for e in h.edges]
            assert res.status == "optimal"
            assert res.cost == mst_cost(n, pairs, list(d))


def _instances(seed, count):
    """Random reinforcement instances: n <= 8, k 1-3, bounds absent or 0-3."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 8)
        h = random_hypergraph(rng, n, rng.randint(1, 3 * n), max_size=min(4, n))
        costs = EdgeVector.of([rng.randint(0, 5) for _ in range(h.m)])
        bounds = None if rng.random() < 0.3 else \
            EdgeVector.of([rng.randint(0, 3) for _ in range(h.m)])
        yield h, rng.randint(1, 3), costs, bounds


def _no_oracle(*args, **kwargs):
    raise AssertionError("the partition oracle ran")


def check_merge_trace(h, k, res):
    """The merges of an optimal run: each fuses two or more blocks into a
    block whose inside edges meet k * (|block| - 1) exactly in the final x,
    the merged blocks are laminar, and the last one is every vertex."""
    merged = [desc.merged for desc in res.merges]
    for desc in res.merges:
        assert len(desc.block_indices) >= 2
        assert res.x.sum_over(h.induced_edges(None, desc.merged)) == k * (len(desc.merged) - 1)
    for a in merged:
        for b in merged:
            assert a <= b or b <= a or not a & b, "merged blocks are not laminar"
    if h.n >= 2 and k > 0:
        assert merged[-1] == frozenset(range(h.n))


def _full_quotient_cut(h, held, bounds, threshold, current, trigger):
    """A round's subproblem by one cut on the quotient with every block of `current` a vertex."""
    nblocks = len(current.blocks)
    trigger_blocks = {current.block_index(v) for v in h.edges[trigger].vertices}
    others = [i for i in range(nblocks) if i not in trigger_blocks]
    qid = [0] * nblocks
    for q, i in enumerate(others, 1):
        qid[i] = q
    images = [sorted({qid[current.block_index(v)] for v in h.edges[e].vertices}) for e in held]
    weights = [bounds[e] for e in held]
    charges = [threshold * (len(trigger_blocks) - 1)] + [threshold] * len(others)
    g = build_supermodular_gadget(Hypergraph(len(charges), images), weights, charges, forced=0)
    cut = GadgetEngine(g).solve()
    value = sum(weights) - threshold * (nblocks - 1)
    if cut.value > 0:
        return value, frozenset()
    return value + cut.value, frozenset(i for i in range(nblocks) if qid[i] in cut.witness)


def _replay(h, k, bounds, res, reads):
    """Replay a run's rounds from its admission order against the reference cut.

    Each round's group from `_full_quotient_cut`, and its value from
    `min_partition` on the quotient, attained by the merged partition;
    `reads` yields each merge the run made as (trigger, partition, group),
    and must match the rounds where the reference merges, in order.
    Returns the number of rounds with a merge and without one.
    """
    if bounds is None:
        ubi, kb = [k * (h.n - 1)] * h.m, k
    else:
        ubi, bscale = bounds._integers()
        kb = k * bscale
    current = Partition.singletons(h.n)
    held = []
    counts = [0, 0]
    for trigger in res.dual.tight_edges:
        held.append(trigger)
        value, group = _full_quotient_cut(h, held, ubi, kb, current, trigger)
        images = [sorted({current.block_index(v) for v in h.edges[e].vertices}) for e in held]
        assert all(len(img) >= 2 for img in images), "a held edge does not cross"
        quotient = Hypergraph(len(current.blocks), images)
        assert value == min_partition(quotient, EdgeVector([ubi[e] for e in held]), kb).value
        blocks = current.blocks
        optimum = Partition(h.n, (
            *[b for i, b in enumerate(blocks) if i not in group],
            *([tuple(v for i in group for v in blocks[i])] if group else [])))
        attained = sum(ubi[e] for e in h.cross_edges(held, optimum)) \
            - kb * (len(optimum.blocks) - 1)
        assert attained == value, "the merged group misses the value"
        counts[bool(group)] += 1
        if group:
            assert len(group) >= 2
            assert {current.block_index(v) for v in h.edges[trigger].vertices} <= group
            assert next(reads) == (trigger, current, group)
            current = optimum
            held = [e for e in held
                    if len({current.block_index(v) for v in h.edges[e].vertices}) > 1]
    assert next(reads, None) is None, "the run merged where the cut does not"
    assert current == res.dual.final_partition
    return counts


def _read(blocks, group):
    """A run's blocks as a Partition, read from the vertex labels alone, and
    the positions of the blocks with ids in `group` among its blocks."""
    parts = {}
    for v, b in enumerate(blocks.label):
        parts.setdefault(b, []).append(v)
    current = Partition(len(blocks.label), tuple(tuple(b) for b in parts.values()))
    return current, frozenset(current.block_index(parts[b][0]) for b in group)


def _check_state(h, blocks, x):
    """Every live block's members, least vertex and sum of x, and every
    edge's inside flag, against a recount from the vertex labels, and the
    sorted least vertices."""
    current, _ = _read(blocks, ())
    for b in current.blocks:
        i = blocks.label[b[0]]
        assert sorted(blocks.members[i]) == list(b)
        assert blocks.least[i] == b[0]
        assert blocks.xsum[i] == sum(x[e] for e in h.induced_edges(None, b))
    # an edge is flagged exactly when it lies inside one block
    crossing = h.cross_edges(None, current)
    assert list(blocks.inside) == [e not in crossing for e in range(h.m)]
    assert blocks.leasts == [b[0] for b in current.blocks]


class TestOneCutSubproblem:
    def test_matches_the_partition_oracle(self, monkeypatch):
        # every round, with a merge or without one, against one cut of the
        # quotient over every block and the full oracle on that quotient:
        # the merges the gathering pass reads are the cut's groups
        merge = reinforcement.canonicalize_merge
        reads = []

        def spy(h, incident, blocks, group, trigger, held, x, threshold):
            reads.append((trigger, *_read(blocks, group)))
            return merge(h, incident, blocks, group, trigger, held, x, threshold)

        monkeypatch.setattr(reinforcement, "canonicalize_merge", spy)
        statuses = set()
        merged = unmerged = 0
        for h, k, costs, bounds in _instances(0x1C07, 150):
            reads.clear()
            res = reinforce(h, k, costs, bounds)
            statuses.add(res.status)
            without, with_merge = _replay(h, k, bounds, res, iter(reads))
            merged += with_merge
            unmerged += without
        assert statuses == {"optimal", "infeasible"} and merged > 200 and unmerged > 300

    def test_no_cut_per_round(self, monkeypatch):
        monkeypatch.setattr("hypermat.partition_oracle.min_partition", _no_oracle)
        monkeypatch.setattr("hypermat.reinforcement.min_partition", _no_oracle, raising=False)
        count = count_solves(monkeypatch)
        rounds = 0
        for h, k, costs, bounds in _instances(0x1C07, 150):
            rounds += len(reinforce(h, k, costs, bounds).dual.tight_edges)
        # the gathering pass reads every round's merge
        assert rounds > 300 and count[0] == 0

    def test_merge_trace(self):
        optimal = 0
        for h, k, costs, bounds in _instances(0x1C07, 150):
            res = reinforce(h, k, costs, bounds)
            if res.status == "optimal":
                optimal += 1
                check_merge_trace(h, k, res)
        assert optimal > 50


def _merge(h, current, group, trigger, held, x, threshold):
    """canonicalize_merge of the blocks at positions `group` of `current`, with
    the incidence lists and the block state built from scratch; returns the
    state after the merge and what the merge returns."""
    incident = [[e for e in range(h.m) if v in h.edges[e]] for v in range(h.n)]
    blocks = reinforcement._Blocks(h)
    for b in current.blocks:
        for v in b:
            blocks.label[v] = b[0]
            blocks.members[v] = []
        blocks.members[b[0]] = list(b)
        for e in h.induced_edges(None, b):
            blocks.inside[e] = 1
            blocks.xsum[b[0]] += x[e]
    blocks.leasts[:] = [b[0] for b in current.blocks]
    ids = [current.blocks[i][0] for i in group]
    return blocks, *reinforcement.canonicalize_merge(h, incident, blocks, ids, trigger, held,
                                                     x, threshold)


class TestCanonicalizeMerge:
    def test_simple_merge(self):
        h = Hypergraph(4, [[0, 1], [2, 3], [0, 2]])
        x = [0, 0, 0]
        blocks, merged, added, lam = _merge(
            h, Partition.singletons(4), frozenset({0, 1}), trigger=0, held={0, 1, 2},
            x=x, threshold=2)
        assert _read(blocks, ())[0] == Partition(4, ((0, 1), (2,), (3,)))
        _check_state(h, blocks, x)
        assert merged == frozenset({0, 1})
        assert list(blocks.inside) == [1, 0, 0]
        assert added == [0]
        assert lam == 2

    def test_deficit_counts_held_edges_inside(self):
        # three blocks fuse; the half-units (one unit over denominator 2) on
        # the held edges 2 and 3 count against 1 * (3 - 1), edge 0 is no held
        # edge and edge 4 sticks out of the fused block
        h = Hypergraph(5, [[0, 1], [0, 2], [1, 3], [2, 3], [3, 4]])
        current = Partition(5, ((0, 1), (2,), (3,), (4,)))
        x = [5, 0, 1, 1, 2]
        blocks, merged, added, lam = _merge(
            h, current, frozenset({0, 1, 2}), trigger=1, held={1, 2, 3, 4},
            x=x, threshold=2)
        assert _read(blocks, ())[0] == Partition(5, ((0, 1, 2, 3), (4,)))
        _check_state(h, blocks, x)
        assert merged == frozenset({0, 1, 2, 3})
        assert list(blocks.inside) == [1, 1, 1, 1, 0]
        # edge 0 lay inside the block (0, 1) already; the merge buries the
        # rest, and the block sums 5, 0 and 0 gain x over them
        assert sorted(added) == [1, 2, 3]
        assert blocks.xsum[blocks.label[0]] == 7
        assert lam == 2

    def test_inside_edges_match_the_recount(self, monkeypatch):
        # every merge of random runs: the buried edges are exactly those
        # inside the fused set that crossed the blocks, and every block's
        # members, least vertex and sum of x, and every edge's inside flag
        # afterwards, equal a recount over all edges
        merge = reinforcement.canonicalize_merge
        seen = {"optimal": 0, "infeasible": 0}
        merges = 0

        def checked(h, incident, blocks, group, trigger, held, x, threshold):
            nonlocal merges
            merges += 1
            _check_state(h, blocks, x)
            current, indices = _read(blocks, group)
            out = merge(h, incident, blocks, group, trigger, held, x, threshold)
            merged, added, lam = out
            assert len(added) == len(set(added))
            assert set(added) == h.cross_edges(h.induced_edges(None, merged), current)
            rest = [b for i, b in enumerate(current.blocks) if i not in indices]
            assert _read(blocks, ())[0] == Partition(h.n, (tuple(merged), *rest))
            _check_state(h, blocks, x)
            return out

        monkeypatch.setattr(reinforcement, "canonicalize_merge", checked)
        rng = random.Random(0x3E6F)
        for h, k, costs, bounds in _instances(0x3E6E, 150):
            # loops lie inside every block from the start
            loops = [[rng.randrange(h.n)] for _ in range(rng.randint(0, 2))]
            h = Hypergraph(h.n, [*[e.vertices for e in h.edges], *loops])
            costs = EdgeVector([*costs, *[1] * len(loops)])
            bounds = None if bounds is None else EdgeVector([*bounds, *[1] * len(loops)])
            seen[reinforce(h, k, costs, bounds).status] += 1
        assert seen["optimal"] > 50 and seen["infeasible"] > 20 and merges > 200

    def test_reinforce_recounts_no_inside_edges(self, monkeypatch):
        # a merge reads the fused set's inside edges from the incidence of
        # its smaller blocks, never from all m edges
        calls = 0
        induced = Hypergraph.induced_edges

        def counted(self, edge_ids, vertex_set):
            nonlocal calls
            calls += 1
            return induced(self, edge_ids, vertex_set)

        monkeypatch.setattr(Hypergraph, "induced_edges", counted)
        merges = 0
        for h, k, costs, bounds in _instances(0x1C07, 150):
            merges += len(reinforce(h, k, costs, bounds).merges)
        assert merges > 200 and calls == 0


@st.composite
def reinforce_instances(draw):
    """n <= 5, m <= 4, k 0-2; costs over mixed denominators; bounds absent
    or fractional with denominators that differ from edge to edge."""
    n = draw(st.integers(2, 5))
    edges = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
        min_size=1, max_size=4))
    costs = draw(st.lists(st.builds(Fraction, st.integers(0, 6), st.sampled_from([1, 2, 3, 4])),
                          min_size=len(edges), max_size=len(edges)))
    bounds = draw(st.none() | st.lists(
        st.builds(Fraction, st.integers(0, 4), st.sampled_from([1, 2, 3])),
        min_size=len(edges), max_size=len(edges)))
    k = draw(st.integers(0, 2))
    return Hypergraph(n, edges), k, EdgeVector(costs), \
        None if bounds is None else EdgeVector(bounds)


class TestAgainstBruteProperty:
    @settings(max_examples=examples(120), deadline=None)
    @given(reinforce_instances())
    @example((Hypergraph(3, [[0, 1, 2], [0, 1, 2]]), 1, EdgeVector.of(["1/2", "2/3"]),
              EdgeVector.of(["1/2", "2/3"])))
    @example((Hypergraph(3, [[0, 1], [1, 2], [0, 2]]), 2, EdgeVector.of(["1/3", 1, "3/4"]), None))
    def test_cost_and_certificate(self, inst):
        h, k, costs, bounds = inst
        res = reinforce(h, k, costs, bounds)
        # the loop admits in the greedy's order
        tight = res.dual.tight_edges
        assert tight == sorted(tight, key=lambda e: (costs[e], e))
        # scaling x and the bounds by their common denominator d gives integer
        # data, whose optimum is integral and d times the original one
        ub = EdgeVector.constant(h.m, k * (h.n - 1)) if bounds is None else bounds
        d = math.lcm(*[u.denominator for u in ub])
        status, cost, _ = brute_reinforce(h, k * d, costs,
                                          EdgeVector([u * d for u in ub]))
        assert res.status == status
        if status == "optimal":
            assert res.cost == cost / d
            verify_optimal(h, k, costs, None if bounds is None else list(bounds), res)
            check_merge_trace(h, k, res)


def _fraction_outputs(res):
    dual = res.dual
    yield from dual.reduced_costs
    yield from dual.bound_duals
    yield from (g for _, g in dual.partition_duals)
    yield from (desc.value for desc in res.merges)
    if res.x is not None:
        yield from res.x
        yield res.cost


class TestOutputTypes:
    @pytest.mark.parametrize("costs, bounds, status", [
        (["1/2", 2], None, "optimal"),
        ([1, 2], [2, 2], "optimal"),
        ([1, "2/3"], ["3/2", "5/3"], "optimal"),
        ([1, 2], [1, 0], "infeasible"),
    ])
    def test_every_number_is_a_fraction(self, h0, costs, bounds, status):
        res = reinforce(h0, 1, EdgeVector.of(costs), bounds and EdgeVector.of(bounds))
        assert res.status == status
        values = list(_fraction_outputs(res))
        assert values and all(type(v) is Fraction for v in values)

    def test_both_outcomes_on_random_instances(self):
        statuses = set()
        for h, k, costs, bounds in _instances(0x7F4C, 80):
            res = reinforce(h, k, costs, bounds)
            statuses.add(res.status)
            values = list(_fraction_outputs(res))
            assert values and all(type(v) is Fraction for v in values)
        assert statuses == {"optimal", "infeasible"}


class TestChecks:
    def test_checks_survive_optimize(self):
        # a pass that reports one unit less than it accepted: on a merge
        # the deficit recounted from x, and without one the edge's bound,
        # must catch it under -O too
        code = (
            "from hypermat import EdgeVector, Hypergraph, reinforce, reinforcement\n"
            "class Short(reinforcement._Gathering):\n"
            "    def add(self, verts, demand):\n"
            "        return super().add(verts, demand) - 1\n"
            "reinforcement._Gathering = Short\n"
            "h = Hypergraph(3, [[0, 1], [1, 2], [0, 2]])\n"
            "for k in (1, 2):\n"
            "    try:\n"
            "        reinforce(h, k, EdgeVector.of([1, 2, 3]), EdgeVector.ones(3))\n"
            "    except AssertionError as exc:\n"
            "        print('raised:', exc)\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
        assert out.stdout == ("raised: the pass's amount is not the merge deficit\n"
                              "raised: an edge that merges nothing took less than its bound\n")

    @pytest.mark.parametrize("forge, message", [
        # the fused block's running sum of x one unit short
        ("blocks.xsum[label[verts[0]]] -= 1", "merged block misses its exact requirement"),
        # the first merge's trigger takes 1 of its bound 2, and one of its
        # vertices is sent to the other block
        ("label[verts[-1]] = next(b for b in label if b != label[verts[0]])",
         "partially used edge crosses the partition"),
    ])
    def test_forged_block_state(self, monkeypatch, capsys, forge, message):
        # a merge that leaves the block state forged: the check kept per
        # merge catches it, in-process and under -O
        _check_forged(monkeypatch, capsys, forge, "1, EdgeVector.of([1, 2, 3])", message)

    @pytest.mark.parametrize("forge, args, message", [
        # edge 2 flagged inside while it still crosses {0, 1} | {2}: the
        # scan skips it, and its reduced cost misses the raise it crosses
        ("blocks.inside[2] = 1", "1, EdgeVector.of([1, 2, 3])",
         "reduced cost is not cost less crossed raises plus bound dual"),
        # edge 0 takes its bound 1 at raise 1 and is buried at raise 3;
        # the last merge takes its unit back
        ("if len(blocks.leasts) == 1: x[0] -= 1",
         "2, EdgeVector.of([1, 2, 3]), EdgeVector.of([1, 2, 2])",
         "bound dual positive on an unsaturated edge"),
    ])
    def test_forged_duals(self, monkeypatch, capsys, forge, args, message):
        # a merge that forges what the duals are read from: the checks on
        # the duals at the end catch it, in-process and under -O
        _check_forged(monkeypatch, capsys, forge, args, message)


def _check_forged(monkeypatch, capsys, forge, args, message):
    """Run reinforce on the triangle with `args`, the line `forge` run
    after each merge, and check it raises `message`, in-process and under
    python -O."""
    code = (
        "from hypermat import EdgeVector, Hypergraph, reinforce, reinforcement\n"
        "merge = reinforcement.canonicalize_merge\n"
        "def forged(h, incident, blocks, group, trigger, held, x, threshold):\n"
        "    out = merge(h, incident, blocks, group, trigger, held, x, threshold)\n"
        "    verts, label = h.edges[trigger].vertices, blocks.label\n"
        f"    {forge}\n"
        "    return out\n"
        "reinforcement.canonicalize_merge = forged\n"
        "try:\n"
        f"    reinforce(Hypergraph(3, [[0, 1], [1, 2], [0, 2]]), {args})\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
    )
    # the code replaces canonicalize_merge; monkeypatch puts it back
    monkeypatch.setattr(reinforcement, "canonicalize_merge", reinforcement.canonicalize_merge)
    exec(code, {})
    assert capsys.readouterr().out == f"raised: {message}\n"
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert out.stdout == f"raised: {message}\n"


class TestLargeRun:
    def test_crit9_n800_seed11(self, monkeypatch):
        # the benchmark generator's n=800 seed 11 at k = 1, unbounded: every
        # round merges, read from the pass with no cut, where one cut per
        # round made 491 solves; the answers are those of that cut path
        h, _, _, costs = crit9(11, 800)
        count = count_solves(monkeypatch)
        builds = 0
        init = Partition.__post_init__

        def counted(self):
            nonlocal builds
            builds += 1
            init(self)

        monkeypatch.setattr(Partition, "__post_init__", counted)
        res = reinforce(h, 1, costs)
        assert (res.status, res.cost) == ("optimal", 849)
        assert (len(res.merges), len(res.dual.tight_edges)) == (491, 491)
        assert count[0] == 0
        # the blocks are plain lists: a Partition is built for each raised
        # partition and the final one, not for each of the 491 merges
        assert builds <= len(res.dual.partition_duals) + 2
        verify_duals(h, 1, costs, None, res)

    def test_crit9_n200_seed20_bounded_duals(self):
        # the weights as bounds at k = 2: admitted edges stop at their
        # bounds and take positive bound duals
        h, weights, _, costs = crit9(20, 200)
        res = reinforce(h, 2, costs, weights)
        assert res.status == "optimal"
        assert sum(b > 0 for b in res.dual.bound_duals) == 7
        verify_duals(h, 2, costs, list(weights), res)
