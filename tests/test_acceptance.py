"""Acceptance suite: nine criteria, one test and one printed verdict line each.

Every numeric comparison is exact rational equality, zero tolerance.
Criteria with a runtime budget enforce it with a hard assert.  Run with
-s to see the verdict lines as they happen.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from hypermat import (
    EdgeVector,
    Hypergraph,
    InPolytope,
    BoundViolation,
    SetViolation,
    arboricity,
    is_independent,
    max_weight_hyperforest,
    min_partition,
    rank,
    reinforce,
    separate_polytope,
    strength,
)
from hypermat.brute import (
    brute_arboricity,
    brute_hyperforest,
    brute_max_weight_hyperforest,
    brute_min_partition,
    brute_rank,
    brute_reinforce,
    brute_strength,
)

from helpers import mst_cost, verify_optimal


@contextmanager
def criterion(num, desc, budget=None):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"criterion {num} took {elapsed:.1f}s, budget {budget}s")
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL - {desc}")
        raise
    window = f"{elapsed:.1f}s < {budget}s" if budget is not None else f"{elapsed:.1f}s"
    print(f"ACCEPTANCE {num} PASS - {desc} [{window}]")


def rand_hypergraph(rng, n_lo, n_hi, m_lo, m_hi, size_lo, size_hi,
                    connected=False):
    n = rng.randint(n_lo, n_hi)
    lo = max(m_lo, n - 1) if connected else m_lo
    m = rng.randint(lo, max(lo, m_hi))
    edges = []
    if connected:
        order = list(range(n))
        rng.shuffle(order)
        edges.extend([order[i], order[i + 1]] for i in range(n - 1))
    while len(edges) < m:
        size = rng.randint(size_lo, min(size_hi, n))
        edges.append(rng.sample(range(n), size))
    return Hypergraph(n, edges)


def test_criterion_1_partition_oracle():
    with criterion(1, "partition oracle equals enumeration on 200 instances",
                   budget=30):
        rng = random.Random(0xAC01)
        for trial in range(200):
            h = rand_hypergraph(rng, 1, 6, 0, 8, 1, 4)
            w = EdgeVector.of([Fraction(rng.randint(0, 12), rng.randint(1, 4))
                               for _ in range(h.m)])
            t = rng.choice([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)])
            got = min_partition(h, w, t)
            want, _ = brute_min_partition(h, w, t)
            assert got.value == want, f"trial {trial}"
            attained = w.sum_over(h.cross_edges(None, got.partition)) \
                - t * (len(got.partition.blocks) - 1)
            assert attained == want, f"trial {trial}: partition does not attain"


def test_criterion_2_rank_independence():
    with criterion(2, "rank and independence match enumeration; matroid axioms hold",
                   budget=60):
        rng = random.Random(0xAC02)
        for trial in range(200):
            h = rand_hypergraph(rng, 1, 6, 0, 10, 1, 6)
            assert rank(h).rank == brute_rank(h), f"trial {trial}"
            assert is_independent(h) == brute_hyperforest(h), f"trial {trial}"

        # exhaustive axiom check over all edge subsets of two fixed instances
        for seed in (11, 12):
            gen = random.Random(seed)
            h = rand_hypergraph(gen, 6, 6, 8, 8, 1, 4)
            indep = {}
            for bits in range(1 << h.m):
                ids = [e for e in range(h.m) if bits >> e & 1]
                indep[bits] = is_independent(h, ids)
            assert indep[0]
            for bits in range(1 << h.m):
                if not indep[bits]:
                    continue
                # hereditary: dropping any edge stays independent
                for e in range(h.m):
                    if bits >> e & 1:
                        assert indep[bits & ~(1 << e)]
            sets = [b for b in range(1 << h.m) if indep[b]]
            for a in sets:
                ka = bin(a).count("1")
                for b in sets:
                    if ka >= bin(b).count("1"):
                        continue
                    # exchange: some edge of the bigger set extends the smaller
                    assert any(indep[a | (1 << e)]
                               for e in range(h.m) if b >> e & 1 and not a >> e & 1)


def test_criterion_3_greedy_optimality():
    with criterion(3, "greedy forest weight equals brute maximum on 100 instances"):
        rng = random.Random(0xAC03)
        for trial in range(100):
            h = rand_hypergraph(rng, 2, 8, 0, 12, 1, 4)
            w = EdgeVector.of([Fraction(rng.randint(0, 9), rng.randint(1, 3))
                               for _ in range(h.m)])
            chosen, weight = max_weight_hyperforest(h, w)
            assert weight == brute_max_weight_hyperforest(h, w), f"trial {trial}"
            assert is_independent(h, chosen), f"trial {trial}"
            assert weight == w.sum_over(chosen), f"trial {trial}"


def _rank_table(h):
    """Exact rank of every edge subset, by definition: largest hyperforest
    inside the subset, independence checked against |F[X]| <= |X|-1."""
    edge_masks = [sum(1 << v for v in e.vertices) for e in h.edges]
    inside = []
    for xmask in range(1 << h.n):
        bits = 0
        for e, em in enumerate(edge_masks):
            if em & ~xmask == 0:
                bits |= 1 << e
        inside.append(bits)
    indep = []
    for emask in range(1 << h.m):
        ok = True
        for xmask in range(1, 1 << h.n):
            if bin(emask & inside[xmask]).count("1") > bin(xmask).count("1") - 1:
                ok = False
                break
        indep.append(ok)
    table = [bin(s).count("1") if indep[s] else -1 for s in range(1 << h.m)]
    for e in range(h.m):
        bit = 1 << e
        for s in range(1 << h.m):
            if s & bit and table[s ^ bit] > table[s]:
                table[s] = table[s ^ bit]
    return table


def test_criterion_4_separation_sound_and_complete():
    with criterion(4, "separation verdicts certified against every rank inequality"):
        rng = random.Random(0xAC04)
        verdicts = {"in": 0, "out": 0}
        for trial in range(200):
            h = rand_hypergraph(rng, 2, 6, 1, 10, 1, 4)
            hi = 4 if rng.random() < 0.5 else 1
            x = EdgeVector.of([Fraction(rng.randint(0, hi), 4) for _ in range(h.m)])
            outcome = separate_polytope(h, x)
            table = _rank_table(h)
            # tie the local table back to the partition-based oracle
            for _ in range(4):
                s = rng.randrange(1 << h.m)
                ids = [e for e in range(h.m) if s >> e & 1]
                assert table[s] == brute_rank(h, ids), f"trial {trial}"
            if isinstance(outcome, InPolytope):
                verdicts["in"] += 1
                xsum = [Fraction(0)] * (1 << h.m)
                for e in range(h.m):
                    bit = 1 << e
                    for s in range(bit, 1 << h.m):
                        if s & bit:
                            xsum[s] = xsum[s ^ bit] + x[e]
                for s in range(1 << h.m):
                    assert xsum[s] <= table[s], f"trial {trial}: subset {s}"
            elif isinstance(outcome, BoundViolation):
                verdicts["out"] += 1
                if outcome.upper is None:
                    assert outcome.value < 0, f"trial {trial}"
                else:
                    assert outcome.value > outcome.upper, f"trial {trial}"
                assert outcome.value == x[outcome.edge], f"trial {trial}"
            else:
                verdicts["out"] += 1
                assert isinstance(outcome, SetViolation)
                w = outcome.witness
                lhs = x.sum_over(h.induced_edges(None, w))
                assert lhs == outcome.lhs, f"trial {trial}"
                assert lhs > len(w) - 1 == outcome.rhs, f"trial {trial}"
        assert verdicts["in"] >= 20 and verdicts["out"] >= 20, verdicts


def test_criterion_5_strength():
    with criterion(5, "strength equals enumeration on 100 instances, "
                      "Newton stays within |V| rounds", budget=60):
        rng = random.Random(0xAC05)
        for trial in range(100):
            h = rand_hypergraph(rng, 2, 7, 0, 10, 2, 4)
            caps = None
            if rng.random() < 0.5:
                caps = EdgeVector.of([Fraction(rng.randint(0, 8), rng.randint(1, 2))
                                      for _ in range(h.m)])
            res = strength(h, caps)
            want, _ = brute_strength(h, caps)
            assert res.sigma == want, f"trial {trial}"
            assert res.iterations <= h.n, f"trial {trial}"
            assert res.integer_packing == math.floor(want), f"trial {trial}"

        k3 = Hypergraph(3, [[0, 1], [1, 2], [0, 2]])
        k4 = Hypergraph(4, [[a, b] for a in range(4) for b in range(a + 1, 4)])
        h0 = Hypergraph(3, [[0, 1, 2], [0, 1, 2]])
        assert strength(k3).sigma == Fraction(3, 2)
        assert strength(k4).sigma == 2
        assert strength(h0).sigma == 1


def test_criterion_6_arboricity():
    with criterion(6, "arboricity matches enumeration and the density formula"):
        rng = random.Random(0xAC06)
        for trial in range(100):
            h = rand_hypergraph(rng, 2, 10, 1, 12, 2, 5)
            res = arboricity(h)
            want, _ = brute_arboricity(h)
            assert res.rho == want, f"trial {trial}"
            assert res.k == math.ceil(want), f"trial {trial}"

        k3 = Hypergraph(3, [[0, 1], [1, 2], [0, 2]])
        h0 = Hypergraph(3, [[0, 1, 2], [0, 1, 2]])
        assert arboricity(k3).k == 2
        assert arboricity(h0).k == 1
        assert arboricity(Hypergraph(3, [[0, 1, 2]])).k == 1

        # graphs: the covering number from the classical density formula
        for trial in range(20):
            h = rand_hypergraph(rng, 2, 8, 1, 14, 2, 2)
            edge_masks = [sum(1 << v for v in e.vertices) for e in h.edges]
            best = 0
            for xmask in range(1, 1 << h.n):
                size = bin(xmask).count("1")
                if size < 2:
                    continue
                inside = sum(1 for em in edge_masks if em & ~xmask == 0)
                best = max(best, math.ceil(Fraction(inside, size - 1)))
            assert arboricity(h).k == best, f"graph trial {trial}"


def test_criterion_7_reinforcement():
    with criterion(7, "reinforcement certified optimal against enumeration "
                      "on 100 instances", budget=120):
        rng = random.Random(0xAC07)
        outcomes = {"optimal": 0, "infeasible": 0}
        for trial in range(100):
            h = rand_hypergraph(rng, 2, 5, 1, 6, 2, 4)
            k = rng.randint(1, 2)
            d = EdgeVector.of([rng.randint(0, 5) for _ in range(h.m)])
            u = EdgeVector.of([rng.randint(0, 2) for _ in range(h.m)])
            res = reinforce(h, k, d, u)
            status, cost, _ = brute_reinforce(h, k, d, u)
            assert res.status == status, f"trial {trial}"
            assert res.cost == cost, f"trial {trial}"
            outcomes[status] += 1
            if status == "optimal":
                assert res.x.is_integral(), f"trial {trial}"
                verify_optimal(h, k, d, list(u), res)
            else:
                cert = res.dual.final_partition
                assert u.sum_over(h.cross_edges(None, cert)) \
                    < k * (len(cert.blocks) - 1), f"trial {trial}"
        assert outcomes["optimal"] >= 20 and outcomes["infeasible"] >= 20, outcomes

        h0 = Hypergraph(3, [[0, 1, 2], [0, 1, 2]])
        res = reinforce(h0, 1, EdgeVector.of([1, 2]), EdgeVector.of([2, 2]))
        assert res.status == "optimal" and res.cost == 2
        assert res.x.values == (Fraction(2), Fraction(0))

        # graphs with k = 1 and slack bounds reduce to minimum spanning trees
        for trial in range(15):
            h = rand_hypergraph(rng, 3, 7, 3, 12, 2, 2, connected=True)
            d = EdgeVector.of([rng.randint(1, 6) for _ in range(h.m)])
            res = reinforce(h, 1, d, EdgeVector.constant(h.m, 10))
            pairs = [tuple(e.vertices) for e in h.edges]
            assert res.status == "optimal"
            assert res.cost == mst_cost(h.n, pairs, list(d)), f"mst trial {trial}"


def test_criterion_8_integral_extreme_points():
    with criterion(8, "integer-data reinforcement optima are integral "
                      "on 50 instances"):
        rng = random.Random(0xAC08)
        solved = 0
        for trial in range(50):
            h = rand_hypergraph(rng, 2, 6, 1, 8, 2, 4, connected=True)
            k = rng.randint(1, 2)
            d = EdgeVector.of([rng.randint(0, 4) for _ in range(h.m)])
            u = EdgeVector.of([rng.randint(1, 3) for _ in range(h.m)])
            res = reinforce(h, k, d, u)
            if res.status == "optimal":
                solved += 1
                assert res.x.is_integral(), f"trial {trial}"
                assert res.x.total() == k * (h.n - 1), f"trial {trial}"
        assert solved >= 25, f"only {solved} optimal instances"


def test_criterion_9_scale_smoke():
    rng = random.Random(0xAC09)
    h = rand_hypergraph(rng, 200, 200, 1000, 1000, 2, 6, connected=True)
    assert h.n == 200 and h.m == 1000

    weights = EdgeVector.of([rng.randint(0, 10) for _ in range(h.m)])
    point = EdgeVector.of([Fraction(rng.randint(0, 4), 4) for _ in range(h.m)])
    costs = EdgeVector.of([rng.randint(1, 6) for _ in range(h.m)])
    operations = [
        ("rank", lambda: rank(h).rank),
        ("independent", lambda: is_independent(h)),
        ("maxforest", lambda: max_weight_hyperforest(h, weights)[1]),
        ("separate", lambda: separate_polytope(h, point)),
        ("strength", lambda: strength(h).sigma),
        ("arboricity", lambda: arboricity(h).rho),
        ("reinforce", lambda: reinforce(h, 1, costs)),
    ]
    times = {}
    results = {}
    try:
        for name, op in operations:
            start = time.monotonic()
            results[name] = op()
            times[name] = time.monotonic() - start
            assert times[name] < 60, f"{name} took {times[name]:.1f}s"
        res = results["reinforce"]
        assert (res.status, res.cost) == ("optimal", 215)
        assert len(res.dual.tight_edges) == 128 and len(res.merges) == 128
    except BaseException:
        print("ACCEPTANCE 9 FAIL - scale smoke test (n=200, m=1000)")
        raise
    stamp = " ".join(f"{k}={v:.1f}s" for k, v in times.items())
    print(f"ACCEPTANCE 9 PASS - every operation under 60s at n=200 m=1000 [{stamp}]")
