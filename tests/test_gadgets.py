import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypermat import (
    INF,
    CutEngine,
    CutResult,
    EdgeVector,
    Hypergraph,
    build_supermodular_gadget,
    SetViolation,
    interpret_gadget_cut,
    min_partition,
    min_st_cut,
    reinforce,
    separate_polytope,
    strength,
)
from hypermat.gadgets import GadgetEngine, build_arboricity_gadget

from helpers import examples, random_hypergraph, reference_interpretation


def vertex_subsets(n, forced=None):
    pool = [v for v in range(n) if v != forced]
    base = set() if forced is None else {forced}
    for r in range(len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            yield base | set(combo)


def force_each(g):
    """Each vertex forced in turn on one warm engine, every cut read back.

    Between solves only the infinite sink arc moves, as in separation's
    and arboricity's forced cuts, one per block of the gathering pass.
    """
    engine = GadgetEngine(g)
    cuts = []
    for v in range(len(g.charges)):
        engine.force(v)
        cuts.append(engine.solve())
    return cuts


def polytope_gadget(h, x, forced):
    # charge 1 per vertex: the cut minimizes |W| - x(E[W]) over W holding `forced`
    return build_supermodular_gadget(h, x, [Fraction(1)] * h.n, forced=forced)


class TestPolytopeGadget:
    def test_node_and_arc_counts(self, h0):
        g = polytope_gadget(h0, EdgeVector.of([1, "1/2"]), forced=0)
        # source, sink, 3 vertex nodes, 2 edge nodes
        assert g.network.node_count == 7
        # 3 unit source arcs + 3 sink arcs (the forced one infinite, the
        # others zero) + 2 * (3 infinite vertex arcs + 1 sink arc)
        assert len(g.network.arcs) == 14

    def test_capacity_matches_set_minimum(self, h0):
        x = EdgeVector.of([1, "1/2"])
        g = polytope_gadget(h0, x, forced=0)
        cut = min_st_cut(g.network)
        best = min(
            len(w) - x.sum_over(h0.induced_edges(None, w)) + x.total()
            for w in vertex_subsets(3, forced=0)
        )
        assert cut.capacity == best == Fraction(5, 2)
        interp = interpret_gadget_cut(g, cut)
        assert interp.witness == frozenset({0})

    def test_tie_break_is_maximal_witness(self, h0):
        # x = (1, 1) ties W = {0} with W = {0,1,2}; the larger witness wins
        g = polytope_gadget(h0, EdgeVector.ones(2), forced=0)
        interp = interpret_gadget_cut(g, min_st_cut(g.network))
        assert interp.witness == frozenset({0, 1, 2})
        assert interp.edges_inside == frozenset({0, 1})

    def test_rejects_out_of_box_point(self, h0):
        # x > 1 is screened by separate_polytope before any gadget is built
        with pytest.raises(ValueError):
            polytope_gadget(h0, EdgeVector.of([1, "-1/2"]), forced=0)

    def test_every_forced_vertex(self, h1):
        x = EdgeVector.of(["3/4", "3/4", "1/2"])
        for forced in range(h1.n):
            g = polytope_gadget(h1, x, forced=forced)
            cut = min_st_cut(g.network)
            best = min(
                len(w) - x.sum_over(h1.induced_edges(None, w)) + x.total()
                for w in vertex_subsets(h1.n, forced=forced)
            )
            assert cut.capacity == best


class TestSupermodularGadget:
    def test_arc_layout_contract(self, h1):
        charges = [Fraction(2), Fraction(-1), Fraction(3), Fraction(1)]
        x = EdgeVector.of([1, 1, 0])
        g = build_supermodular_gadget(h1, x, charges, forced=0)
        arcs = g.network.arcs
        for v in range(h1.n):
            tail, head, cap = arcs[v]
            assert (tail, head) == (g.network.source, g.vertex_nodes[v])
            assert cap == max(charges[v], Fraction(0))
        for v in range(h1.n):
            tail, head, cap = arcs[h1.n + v]
            assert (tail, head) == (g.vertex_nodes[v], g.network.sink)
            if v == 0:
                assert cap is INF
            else:
                assert cap == -min(charges[v], Fraction(0))
        # each selected edge: an infinite arc from each of its vertices to
        # its node, and the node's one sink arc carrying x_e
        assert set(g.edge_nodes) == {e.id for e in h1.edges}
        rest = arcs[2 * h1.n:]
        for e in h1.edges:
            node = g.edge_nodes[e.id]
            assert sorted((t, c) for t, hd, c in rest if hd == node) \
                == [(g.vertex_nodes[u], INF) for u in e.vertices]
            assert [(hd, c) for t, hd, c in rest if t == node] == [(g.network.sink, x[e.id])]
        assert len(rest) == sum(len(e) + 1 for e in h1.edges)

    def test_capacity_identity_with_negative_charges(self, h1):
        charges = [Fraction(2), Fraction(-1), Fraction(3), Fraction(1)]
        x = EdgeVector.of([1, "1/2", "1/2"])
        neg = sum(min(c, Fraction(0)) for c in charges)
        for forced in range(h1.n):
            g = build_supermodular_gadget(h1, x, charges, forced=forced)
            cut = min_st_cut(g.network)
            best = min(
                sum(charges[v] for v in w)
                - x.sum_over(h1.induced_edges(None, w))
                for w in vertex_subsets(h1.n, forced=forced)
            )
            assert cut.capacity == best + x.total() - neg
            interp = interpret_gadget_cut(g, cut)
            inside = sum(charges[v] for v in interp.witness) \
                - x.sum_over(h1.induced_edges(None, interp.witness))
            assert inside == best and interp.value == best

    def test_forced_sweep_matches_fresh_cuts(self, h1):
        # the warm engine keeps one offset across the moves of the forced
        # vertex; every cut must still read back exactly as a fresh gadget
        # forced at that vertex does
        charges = [Fraction(2), Fraction(-1), Fraction(3), Fraction(1)]
        x = EdgeVector.of([1, "1/2", "1/3"])
        g = build_supermodular_gadget(h1, x, charges, forced=0)
        swept = force_each(g)
        assert len(swept) == h1.n
        for v, info in enumerate(swept):
            fresh = build_supermodular_gadget(h1, x, charges, forced=v)
            ref = interpret_gadget_cut(fresh, min_st_cut(fresh.network))
            assert (info.witness, info.edges_inside, info.value) \
                == (ref.witness, ref.edges_inside, ref.value)

    def test_engine_rejects_non_vertices(self, h1):
        engine = GadgetEngine(build_supermodular_gadget(h1, EdgeVector.ones(3), [Fraction(1)] * 4))
        for v in (-1, h1.n, h1.n + 3):
            with pytest.raises(ValueError):
                engine.force(v)
            with pytest.raises(ValueError):
                engine.set_charge(v, Fraction(1))

    def test_rejected_charge_changes_nothing(self, h1):
        charges = [Fraction(2), Fraction(-1), Fraction(3), Fraction(1)]
        x = EdgeVector.of([1, "1/2", "1/3"])
        engine = GadgetEngine(build_supermodular_gadget(h1, x, charges, forced=2))
        with pytest.raises(TypeError):
            engine.set_charge(1, -0.5)
        fresh = build_supermodular_gadget(h1, x, charges, forced=2)
        ref = interpret_gadget_cut(fresh, min_st_cut(fresh.network))
        assert engine.solve() == ref

    def test_edge_subset_restriction(self, h1):
        charges = [Fraction(1)] * 4
        x = EdgeVector.of([1, 1, 1])
        g = build_supermodular_gadget(h1, x, charges, forced=2, edge_ids=[0])
        cut = min_st_cut(g.network)
        best = min(
            len(w) - x.sum_over(h1.induced_edges([0], w))
            for w in vertex_subsets(h1.n, forced=2)
        )
        assert cut.capacity == best + x[0]


@st.composite
def charged_instances(draw):
    """A hypergraph with n <= 6, nonnegative rational weights and signed rational charges."""
    n = draw(st.integers(1, 6))
    edges = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True), max_size=8))
    rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    x = draw(st.lists(rational.map(abs), min_size=len(edges), max_size=len(edges)))
    charges = draw(st.lists(rational, min_size=n, max_size=n))
    return Hypergraph(n, edges), EdgeVector.of(x), charges


def _scorer(h, x, charges):
    """charge(W) - x(E[W]) as a function of W."""
    return lambda w: sum((charges[v] for v in w), Fraction(0)) - x.sum_over(h.induced_edges(None, w))


def _union_of_minimizers(score, subsets):
    """Union of every minimizer of score; for a submodular score it is one itself."""
    scored = [(score(w), w) for w in subsets]
    best = min(value for value, _ in scored)
    return frozenset().union(*[w for value, w in scored if value == best])


class TestSupermodularGadgetAgainstBrute:
    # the cut's witness must be the inclusion-maximal minimizer: rank,
    # strength, arboricity and reinforcement break their ties by it
    @settings(max_examples=examples(100), deadline=None)
    @given(charged_instances())
    def test_unforced_cut_is_brute_minimum(self, inst):
        h, x, charges = inst
        g = build_supermodular_gadget(h, x, charges)
        info = interpret_gadget_cut(g, min_st_cut(g.network))
        score = _scorer(h, x, charges)
        best = min(score(w) for w in vertex_subsets(h.n))
        assert info.value == score(info.witness) == best
        assert info.witness == _union_of_minimizers(score, vertex_subsets(h.n))
        assert Fraction(g.offset, g.scale) == x.total() - sum(min(c, Fraction(0)) for c in charges)

    @settings(max_examples=examples(100), deadline=None)
    @given(charged_instances())
    def test_forced_sweep_matches_single_forced_builds(self, inst):
        h, x, charges = inst
        swept = force_each(build_supermodular_gadget(h, x, charges))
        assert len(swept) == h.n
        score = _scorer(h, x, charges)
        for v, info in enumerate(swept):
            assert info.witness == _union_of_minimizers(score, vertex_subsets(h.n, forced=v))
            fresh = build_supermodular_gadget(h, x, charges, forced=v)
            cut = min_st_cut(fresh.network)
            ref = interpret_gadget_cut(fresh, cut)
            assert (info.witness, info.edges_inside, info.value) \
                == (ref.witness, ref.edges_inside, ref.value)
            assert cut.capacity == ref.value + Fraction(fresh.offset, fresh.scale)


    @settings(max_examples=examples(100), deadline=None)
    @given(charged_instances(), st.lists(st.tuples(
        st.integers(0, 5), st.none() | st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))),
        max_size=6))
    # built from ints, then a charge off the scale: the engine rescales its
    # charges, weights and offset before the forced solve reads them back
    @example((Hypergraph(3, [[0, 1], [1, 2], [0, 2]]), [1, 2, 1], [1, -1, 5]),
             [(1, Fraction(1, 3)), (0, None)])
    def test_engine_revisions_match_fresh_builds(self, inst, revisions):
        # each step forces a vertex or recharges one; the warm engine's
        # read-back must be what a fresh build with the current charges
        # and forced vertex reads back
        h, x, charges = inst
        engine = GadgetEngine(build_supermodular_gadget(h, x, charges))
        charges, forced = list(charges), None
        for v, charge in revisions:
            v %= h.n
            if charge is None:
                engine.force(v)
                forced = v
            else:
                engine.set_charge(v, charge)
                charges[v] = charge
            fresh = build_supermodular_gadget(h, x, charges, forced=forced)
            ref = interpret_gadget_cut(fresh, min_st_cut(fresh.network))
            assert engine.solve() == ref


def _read_back(info):
    return info.source_vertices, info.witness, info.edges_inside, info.value


def _all_in_witness(h1):
    # x = 1 everywhere ties every W holding 0 with V, so the minimum cut
    # has the source alone on its side
    g = build_supermodular_gadget(h1, EdgeVector.ones(h1.m), [Fraction(1)] * h1.n, forced=0)
    cut = min_st_cut(g.network)
    assert cut.source_side == {g.network.source}
    assert interpret_gadget_cut(g, cut).witness == frozenset(range(h1.n))
    return g, cut


class TestReadBack:
    # interpret_gadget_cut reads only the cut's source side and the edges
    # meeting it; a walk over every edge must read the same sets and value
    @settings(max_examples=examples(150), deadline=None)
    @given(charged_instances(), st.data())
    def test_matches_full_edge_walk(self, inst, data):
        h, x, charges = inst
        forced = data.draw(st.none() | st.integers(0, h.n - 1))
        ids = data.draw(st.none() | st.lists(st.integers(0, h.m - 1), unique=True)) \
            if h.m else None
        g = build_supermodular_gadget(h, x, charges, forced=forced, edge_ids=ids)
        cut = min_st_cut(g.network)
        assert _read_back(interpret_gadget_cut(g, cut)) == reference_interpretation(g, cut)
        # the inclusion-minimal minimum cut is unique, so each swept cut is
        # the one a fresh build forced at that vertex finds
        for v, info in enumerate(force_each(g)):
            fresh = build_supermodular_gadget(h, x, charges, forced=v, edge_ids=ids)
            assert _read_back(info) == reference_interpretation(fresh, min_st_cut(fresh.network))

    def _gadget(self, h1):
        return _all_in_witness(h1)

    def test_edge_node_without_a_vertex(self, h1):
        g, cut = self._gadget(h1)
        bad = CutResult(cut.source_side | {g.edge_nodes[1]}, cut.capacity)
        with pytest.raises(AssertionError, match="edge node on the source side without"):
            interpret_gadget_cut(g, bad)

    def test_vertex_without_its_edge_node(self, h1):
        g, cut = self._gadget(h1)
        # vertex 3 is in edges 1 and 2; only edge 2's node comes along
        bad = CutResult(cut.source_side | {g.vertex_nodes[3], g.edge_nodes[2]}, cut.capacity)
        with pytest.raises(AssertionError, match="vertex on the source side but its edge node"):
            interpret_gadget_cut(g, bad)

    def test_forced_vertex_escaped(self, h1):
        g, cut = self._gadget(h1)
        # vertex 0 leaves W with both of its edges' nodes: the wiring holds
        bad = CutResult(cut.source_side | {g.vertex_nodes[0], g.edge_nodes[0], g.edge_nodes[2]},
                        cut.capacity)
        with pytest.raises(AssertionError, match="forced vertex escaped the witness"):
            interpret_gadget_cut(g, bad)

    def test_capacity_identity(self, h1):
        g, cut = self._gadget(h1)
        with pytest.raises(AssertionError, match="capacity identity failed"):
            interpret_gadget_cut(g, CutResult(cut.source_side, cut.capacity + Fraction(1, 2)))


# a charge above every vertex's incident weight (at most 14 edges of weight
# at most 4) keeps that vertex's source arc open, so the source reaches it;
# the cut check sums over the unreached side once most nodes are reached
_HIGH = 60


@st.composite
def engine_runs(draw):
    """A hypergraph with n <= 10, rational weights and charges, each charge
    raised by 0 or _HIGH, and a list of (vertex, new charge or None to
    force it) steps that raise theirs the same way."""
    n = draw(st.integers(1, 10))
    edges = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 4), unique=True),
        max_size=14))
    rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    x = draw(st.lists(rational.map(abs), min_size=len(edges), max_size=len(edges)))
    charge = st.tuples(rational, st.sampled_from([0, _HIGH])).map(sum)
    charges = draw(st.lists(charge, min_size=n, max_size=n))
    steps = draw(st.lists(st.tuples(st.integers(0, 9), st.none() | charge), max_size=8))
    return Hypergraph(n, edges), EdgeVector.of(x), charges, steps


class TestWarmEngineEitherSide:
    def test_read_back_matches_fresh_builds(self, monkeypatch):
        # each step forces a vertex or recharges one, and the warm engine's
        # read-back must be what a fresh build reads back; the cut check
        # must sum over either side of the cut, the reached one and the other
        solve = CutEngine.solve
        wide = solves = 0

        def counted(engine):
            nonlocal wide
            cut = solve(engine)
            wide += 2 * len(cut.source_side) > engine.n
            return cut

        monkeypatch.setattr(CutEngine, "solve", counted)

        @settings(max_examples=examples(200), deadline=None)
        @given(engine_runs())
        def check(run):
            nonlocal solves
            h, x, charges, steps = run
            engine = GadgetEngine(build_supermodular_gadget(h, x, charges))
            charges, forced = list(charges), None
            # the first step gives vertex 0 its own charge: the gadget as built
            for v, charge in [(0, charges[0])] + steps:
                v %= h.n
                if charge is None:
                    engine.force(v)
                    forced = v
                else:
                    engine.set_charge(v, charge)
                    charges[v] = charge
                fresh = build_supermodular_gadget(h, x, charges, forced=forced)
                assert engine.solve() == interpret_gadget_cut(fresh, min_st_cut(fresh.network))
                solves += 1

        check()
        # every warm solve has a fresh one beside it, so 2 * solves in all
        print(f"{wide} of {2 * solves} cuts reached most nodes")
        assert 0 < wide < 2 * solves

    def test_solved_engine_is_freed_without_the_cycle_collector(self, h1):
        # nothing the engine keeps may point back at it: a cycle would hold
        # every solved engine until the collector runs
        engine = GadgetEngine(build_supermodular_gadget(h1, [1, 1, 1], [_HIGH] * h1.n, forced=0))
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert engine.solve().witness == {0}
            refs = [weakref.ref(engine), weakref.ref(engine._engine)]
            del engine
            assert [r() for r in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()


class TestArboricityGadget:
    def test_capacity_identity(self, k3):
        density = Fraction(3, 2)
        g = build_arboricity_gadget(k3, density)
        cut = min_st_cut(g.network)
        best = min(
            density * len(w) - len(k3.induced_edges(None, w))
            for w in vertex_subsets(3)
        )
        assert cut.capacity == best + k3.m

    def test_forced_variant(self, k4):
        density = Fraction(4, 3)
        for forced in range(4):
            g = build_arboricity_gadget(k4, density, forced=forced)
            cut = min_st_cut(g.network)
            best = min(
                density * len(w) - len(k4.induced_edges(None, w))
                for w in vertex_subsets(4, forced=forced)
            )
            assert cut.capacity == best + k4.m
            interp = interpret_gadget_cut(g, cut)
            assert forced in interp.witness

    @pytest.mark.parametrize("forced", [None, 0, 3])
    def test_is_the_supermodular_gadget_at_density_charges(self, k4, forced):
        # charge `density` per vertex and unit weights: density * |W| - |E[W]|
        density = Fraction(4, 3)
        g = build_arboricity_gadget(k4, density, forced=forced)
        assert g == build_supermodular_gadget(k4, EdgeVector.ones(k4.m), [density] * k4.n,
                                              forced=forced)



class TestIntegerPath:
    # ints stay ints from the build through the network to the read-back
    def test_int_gadget_has_scale_one(self, h1):
        g = build_supermodular_gadget(h1, [1, 2, 0], [2, -1, 3, 1])
        assert g.scale == 1
        assert all(c is INF or type(c) is int for _, _, c in g.network.arcs)
        assert type(interpret_gadget_cut(g, min_st_cut(g.network)).value) is int
        assert all(type(info.value) is int for info in force_each(g))

    def test_operations_make_no_fraction_in_the_gadgets(self, monkeypatch):
        rng = random.Random(14)
        cases = []
        for _ in range(12):
            n = rng.randint(2, 6)
            h = random_hypergraph(rng, n, rng.randint(n - 1, 2 * n), 3, connected=True)
            ints = EdgeVector.of([rng.randint(0, 4) for _ in range(h.m)])
            point = EdgeVector.of([Fraction(rng.randint(0, 4), 4) for _ in range(h.m)])
            cases.append((h, ints, point, rng.randint(1, 3)))

        def run():
            return [(min_partition(h, ints, k), strength(h, ints), reinforce(h, k, ints, ints),
                     separate_polytope(h, point)) for h, ints, point, k in cases]

        def no_fraction(*args):
            raise AssertionError("the gadgets made a Fraction")

        expected = run()
        assert any(isinstance(sep, SetViolation) for *_, sep in expected)
        # the builder and the engine turn integers over a scale back into
        # numbers through mincut._rational, which makes mincut's Fraction
        monkeypatch.setattr("hypermat.gadgets.Fraction", no_fraction)
        monkeypatch.setattr("hypermat.mincut.Fraction", no_fraction)
        h = cases[0][0]
        with pytest.raises(AssertionError, match="the gadgets made a Fraction"):
            build_supermodular_gadget(h, [Fraction(1, 2)] * h.m, [1] * h.n)
        assert run() == expected
