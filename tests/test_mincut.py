import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypermat import (
    INF,
    CutEngine,
    CutResult,
    FlowNetwork,
    NoFiniteCutError,
    min_st_cut,
)

from helpers import examples


def brute_cut(net: FlowNetwork):
    """Enumerate vertex sides; returns (value, minimal source side) or None
    when every cut is infinite.  Usable up to ~14 nodes."""
    others = [v for v in range(net.node_count) if v not in (net.source, net.sink)]
    best = None
    minimizers = []
    for bits in range(1 << len(others)):
        side = {net.source} | {others[i] for i in range(len(others)) if bits >> i & 1}
        value = Fraction(0)
        finite = True
        for tail, head, cap in net.arcs:
            if tail in side and head not in side:
                if cap is INF:
                    finite = False
                    break
                value += cap
        if not finite:
            continue
        if best is None or value < best:
            best = value
            minimizers = [side]
        elif value == best:
            minimizers.append(side)
    if best is None:
        return None
    canonical = set.intersection(*minimizers)
    return best, frozenset(canonical)


class TestInfinity:
    def test_ordering(self):
        assert INF > Fraction(10**9)
        assert Fraction(0) < INF
        assert INF >= INF and INF <= INF and not INF > INF

    def test_saturating_add(self):
        assert INF + Fraction(5) is INF
        assert INF + INF is INF

    def test_identity_equality(self):
        assert INF == INF and INF != Fraction(1)


class TestFlowNetwork:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlowNetwork(2, ((0, 2, Fraction(1)),), 0, 1)
        with pytest.raises(ValueError):
            FlowNetwork(2, ((0, 1, Fraction(-1)),), 0, 1)
        with pytest.raises(ValueError):
            FlowNetwork(2, (), 0, 0)
        with pytest.raises(TypeError):
            FlowNetwork(2, ((0, 1, 0.5),), 0, 1)

    def test_int_caps_coerced(self):
        net = FlowNetwork(2, ((0, 1, 2),), 0, 1)
        assert net.arcs[0][2] == Fraction(2)
        assert type(net.arcs[0][2]) is int


class TestMinCut:
    def test_single_arc(self):
        net = FlowNetwork(2, ((0, 1, Fraction(3, 2)),), 0, 1)
        cut = min_st_cut(net)
        assert cut.capacity == Fraction(3, 2)
        assert cut.source_side == frozenset({0})

    def test_series_takes_bottleneck(self):
        net = FlowNetwork(3, ((0, 1, Fraction(5)), (1, 2, Fraction(2))), 0, 2)
        cut = min_st_cut(net)
        assert cut.capacity == 2
        # bottleneck is the second arc, so node 1 lands on the source side
        assert cut.source_side == frozenset({0, 1})

    def test_parallel_arcs_add(self):
        net = FlowNetwork(2, ((0, 1, Fraction(1)), (0, 1, Fraction(1, 3))), 0, 1)
        assert min_st_cut(net).capacity == Fraction(4, 3)

    def test_minimal_source_side(self):
        # both {0} and {0,1} are minimum cuts; the minimal one is reported
        net = FlowNetwork(3, ((0, 1, Fraction(1)), (1, 2, Fraction(1))), 0, 2)
        cut = min_st_cut(net)
        assert cut.capacity == 1
        assert cut.source_side == frozenset({0})

    def test_classic_diamond(self):
        arcs = (
            (0, 1, Fraction(10)), (0, 2, Fraction(10)),
            (1, 2, Fraction(1)),
            (1, 3, Fraction(8)), (2, 3, Fraction(9)),
        )
        cut = min_st_cut(FlowNetwork(4, arcs, 0, 3))
        assert cut.capacity == 17

    def test_infinite_arc_redirects_cut(self):
        net = FlowNetwork(3, ((0, 1, INF), (1, 2, Fraction(4))), 0, 2)
        cut = min_st_cut(net)
        assert cut.capacity == 4 and cut.source_side == frozenset({0, 1})

    def test_no_finite_cut(self):
        net = FlowNetwork(3, ((0, 1, INF), (1, 2, INF)), 0, 2)
        with pytest.raises(NoFiniteCutError):
            min_st_cut(net)

    def test_zero_capacity_arc(self):
        net = FlowNetwork(2, ((0, 1, Fraction(0)),), 0, 1)
        cut = min_st_cut(net)
        assert cut.capacity == 0 and cut.source_side == frozenset({0})

    def test_disconnected_means_zero(self):
        net = FlowNetwork(4, ((0, 1, Fraction(2)), (2, 3, Fraction(5))), 0, 3)
        cut = min_st_cut(net)
        assert cut.capacity == 0
        # node 2 feeds the sink only, so it is not source-reachable
        assert 2 not in cut.source_side

    def test_whole_capacity_is_an_int(self):
        # at scale 1 the capacity stays an int; off it, a Fraction only when not whole
        cut = min_st_cut(FlowNetwork(3, ((0, 1, 3), (1, 2, 2), (0, 2, 1)), 0, 2))
        assert cut.capacity == 3 and type(cut.capacity) is int
        halves = FlowNetwork(2, ((0, 1, Fraction(1, 2)), (0, 1, Fraction(3, 2))), 0, 1)
        assert type(min_st_cut(halves).capacity) is int
        assert min_st_cut(FlowNetwork(2, ((0, 1, Fraction(1, 2)),), 0, 1)).capacity \
            == Fraction(1, 2)

    def test_mixed_denominators_exact(self):
        arcs = (
            (0, 1, Fraction(1, 3)), (0, 2, Fraction(1, 7)),
            (1, 3, Fraction(1, 5)), (2, 3, Fraction(2, 7)),
        )
        cut = min_st_cut(FlowNetwork(4, arcs, 0, 3))
        assert cut.capacity == Fraction(1, 5) + Fraction(1, 7)


class TestRandomAgainstBrute:
    def test_random_networks(self):
        rng = random.Random(0xC07)
        for trial in range(160):
            node_count = rng.randint(2, 7)
            s, t = 0, node_count - 1 if node_count > 1 else 0
            if node_count == 2:
                s, t = 0, 1
            arc_count = rng.randint(1, 14)
            arcs = []
            for _ in range(arc_count):
                tail = rng.randrange(node_count)
                head = rng.randrange(node_count)
                while head == tail:
                    head = rng.randrange(node_count)
                roll = rng.random()
                if roll < 0.12:
                    cap = INF
                else:
                    cap = Fraction(rng.randint(0, 8), rng.randint(1, 4))
                arcs.append((tail, head, cap))
            net = FlowNetwork(node_count, tuple(arcs), s, t)
            expected = brute_cut(net)
            if expected is None:
                with pytest.raises(NoFiniteCutError):
                    min_st_cut(net)
                continue
            cut = min_st_cut(net)
            assert cut.capacity == expected[0], f"trial {trial}"
            assert cut.source_side == expected[1], f"trial {trial}"


def _solve(engine: CutEngine) -> CutResult | NoFiniteCutError:
    try:
        return engine.solve()
    except NoFiniteCutError as exc:
        return exc


def _solve_states(net: FlowNetwork, batches) -> list[CutResult | NoFiniteCutError]:
    """Solve the template, then re-solve one engine after each cumulative
    batch of (arc, capacity) revisions."""
    engine = CutEngine(net)
    results = [_solve(engine)]
    for batch in batches:
        for arc, cap in batch:
            engine.set_capacity(arc, cap)
        results.append(_solve(engine))
    return results


class TestSequence:
    def test_template_then_batches(self):
        net = FlowNetwork(3, ((0, 1, Fraction(4)), (1, 2, Fraction(2))), 0, 2)
        results = _solve_states(net, [
            [(1, Fraction(10))],          # raise the sink arc
            [(0, Fraction(1))],           # then choke the source arc
        ])
        assert [r.capacity for r in results] == [2, 4, 1]

    def test_updates_are_cumulative(self):
        net = FlowNetwork(3, ((0, 1, Fraction(4)), (1, 2, Fraction(2))), 0, 2)
        results = _solve_states(net, [
            [(0, Fraction(1)), (1, Fraction(10))],
            [],
        ])
        assert [r.capacity for r in results] == [2, 1, 1]

    def test_infinite_state_recorded_not_raised(self):
        net = FlowNetwork(3, ((0, 1, Fraction(4)), (1, 2, Fraction(2))), 0, 2)
        results = _solve_states(net, [
            [(0, INF), (1, INF)],
            [(1, Fraction(2))],
        ])
        assert isinstance(results[0], CutResult) and results[0].capacity == 2
        assert isinstance(results[1], NoFiniteCutError)
        assert isinstance(results[2], CutResult) and results[2].capacity == 2

    def test_rejects_interior_updates(self):
        arcs = ((0, 1, Fraction(1)), (1, 2, Fraction(1)), (2, 3, Fraction(1)))
        net = FlowNetwork(4, arcs, 0, 3)
        with pytest.raises(ValueError):
            _solve_states(net, [[(1, Fraction(5))]])

    def test_rejects_bad_arc_index(self):
        net = FlowNetwork(2, ((0, 1, Fraction(1)),), 0, 1)
        with pytest.raises(ValueError):
            _solve_states(net, [[(3, Fraction(1))]])

    def test_sequence_random_consistency(self):
        # every state of the sequence must agree with a fresh solve and
        # with enumeration
        rng = random.Random(7)
        for _ in range(30):
            node_count = rng.randint(3, 6)
            arcs = []
            for v in range(1, node_count - 1):
                arcs.append((0, v, Fraction(rng.randint(0, 6))))
                arcs.append((v, node_count - 1, Fraction(rng.randint(0, 6))))
                for w in range(1, node_count - 1):
                    if w != v and rng.random() < 0.4:
                        arcs.append((v, w, Fraction(rng.randint(0, 4))))
            source_incident = [i for i, a in enumerate(arcs) if a[0] == 0 or a[1] == node_count - 1]
            net = FlowNetwork(node_count, tuple(arcs), 0, node_count - 1)
            batches = []
            for _ in range(rng.randint(1, 4)):
                batch = [(rng.choice(source_incident), Fraction(rng.randint(0, 9)))
                         for _ in range(rng.randint(1, 3))]
                batches.append(batch)
            results = _solve_states(net, batches)
            # replay: apply batches cumulatively and re-solve from scratch
            current = list(net.arcs)
            assert results[0].capacity == min_st_cut(net).capacity
            assert (results[0].capacity, results[0].source_side) == brute_cut(net)
            for j, batch in enumerate(batches, start=1):
                for idx, cap in batch:
                    tail, head, _ = current[idx]
                    current[idx] = (tail, head, cap)
                replayed = _replay(net, current)
                fresh = min_st_cut(replayed)
                assert results[j].capacity == fresh.capacity
                assert results[j].source_side == fresh.source_side
                assert (results[j].capacity, results[j].source_side) == brute_cut(replayed)

    def test_sequence_random_revision_kinds(self):
        # warm re-solves against fresh solves and enumeration over revisions
        # that force the shift: infinite arcs turned finite under flow, new
        # denominators, states with no finite cut, vertices with one
        # terminal arc and direct source-sink arcs
        rng = random.Random(0x66A7)
        seen = {"unforce": 0, "recovered": 0, "shifted": 0, "hidden": 0, "direct": 0}
        for trial in range(120):
            node_count = rng.randint(3, 7)
            s, t = 0, node_count - 1
            arcs: list[tuple[int, int, object]] = []
            both = []  # vertices with a source and a sink arc
            for v in range(1, t):
                layout = rng.choice(("both", "both", "source", "sink", "none"))
                if layout in ("both", "source"):
                    arcs.append((s, v, _random_cap(rng)))
                if layout in ("both", "sink"):
                    arcs.append((v, t, _random_cap(rng)))
                if layout == "both":
                    both.append(v)
                for w in range(1, t):
                    if w != v and rng.random() < 0.35:
                        arcs.append((v, w, INF if rng.random() < 0.2 else _random_cap(rng)))
            for _ in range(rng.randint(0, 2)):
                arcs.append((s, t, _random_cap(rng)))
            if rng.random() < 0.3:
                arcs.append((rng.randint(1, t), s, _random_cap(rng)))
            terminal = [i for i, (a, b, _) in enumerate(arcs) if a in (s, t) or b in (s, t)]
            if not terminal:
                continue
            net = FlowNetwork(node_count, tuple(arcs), s, t)
            current = list(net.arcs)
            batches = []
            for _ in range(rng.randint(3, 8)):
                if both and rng.random() < 0.15:
                    # a source-to-sink path of infinite arcs, undone next batch
                    v = rng.choice(both)
                    pair = [i for i, (a, b, _) in enumerate(arcs) if (a, b) in ((s, v), (v, t))]
                    batches.append([(i, INF) for i in pair])
                    batches.append([(i, _random_cap(rng)) for i in pair])
                    continue
                batch = []
                for _ in range(rng.randint(1, 3)):
                    i = rng.choice(terminal)
                    batch.append((i, INF if rng.random() < 0.25 else _random_cap(rng)))
                batches.append(batch)

            engine = CutEngine(net)
            results = [_solve(engine)]
            fresh_results = [_fresh(net, current)]
            brute_results = [brute_cut(net)]
            for batch in batches:
                for idx, cap in batch:
                    tail, head, old = current[idx]
                    current[idx] = (tail, head, cap)
                    shift = Fraction(engine.shift, engine.scale)
                    engine.set_capacity(idx, cap)
                    # an infinite arc made finite below its flow shifts the cuts
                    seen["unforce"] += old is INF and Fraction(engine.shift, engine.scale) > shift
                    seen["direct"] += (tail, head) == (s, t)
                fresh_results.append(_fresh(net, current))
                brute_results.append(brute_cut(_replay(net, current)))
                results.append(_solve(engine))
            for j, (got, fresh, brute) in enumerate(zip(results, fresh_results, brute_results)):
                if brute is None:
                    assert fresh is None, f"trial {trial} state {j}"
                    assert isinstance(got, NoFiniteCutError), f"trial {trial} state {j}"
                    continue
                assert isinstance(got, CutResult), f"trial {trial} state {j}"
                assert got.capacity == fresh.capacity == brute[0], f"trial {trial} state {j}"
                assert got.source_side == fresh.source_side == brute[1], f"trial {trial} state {j}"
                if j and isinstance(results[j - 1], NoFiniteCutError):
                    seen["recovered"] += 1
            seen["shifted"] += engine.shift > 0
            seen["hidden"] += len(engine.caps) > len(net.arcs)
            # hidden arcs append their own slots; they must match a full re-index
            to, slots = engine.to, [list(out) for out in engine.slots]
            engine._index()
            assert (engine.to, engine.slots) == (to, slots), f"trial {trial}"
            # and the integer capacities must follow every rescale and
            # revision; hidden arcs stay at zero
            assert engine.caps == [-1 if c is INF else c * engine.scale for _, _, c in current] \
                + [0] * (len(engine.caps) - len(current)), f"trial {trial}"
            assert all(type(c) is int for c in engine.caps), f"trial {trial}"
        assert all(count >= 5 for count in seen.values()), seen


def _random_cap(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, 9), rng.choice((1, 1, 2, 3, 5, 7, 11)))


def _replay(net: FlowNetwork, arcs: list) -> FlowNetwork:
    return FlowNetwork(net.node_count, tuple(arcs), net.source, net.sink)


def _fresh(net: FlowNetwork, arcs: list) -> CutResult | None:
    try:
        return min_st_cut(_replay(net, arcs))
    except NoFiniteCutError:
        return None


class TestCutEngine:
    def test_unforce_under_flow_shifts(self):
        # s=0 -> a=1 (5), a -> t=3 (INF), a -> b=2 (3), b -> t (4)
        arcs = ((0, 1, Fraction(5)), (1, 3, INF), (1, 2, Fraction(3)), (2, 3, Fraction(4)))
        engine = CutEngine(FlowNetwork(4, arcs, 0, 3))
        assert engine.solve().capacity == 5
        engine.set_capacity(1, Fraction(1))  # the INF arc carries 5
        assert engine.shift == 4
        cut = engine.solve()
        assert cut.capacity == 4 and cut.source_side == frozenset({0, 1})
        assert cut == min_st_cut(FlowNetwork(4, (arcs[0], (1, 3, Fraction(1))) + arcs[2:], 0, 3))

    def test_single_terminal_vertex_gets_hidden_partner(self):
        arcs = ((0, 1, Fraction(5)), (1, 2, Fraction(5)), (2, 3, Fraction(5)))
        engine = CutEngine(FlowNetwork(4, arcs, 0, 3))
        assert engine.solve().capacity == 5
        engine.set_capacity(0, Fraction(2))
        assert len(engine.caps) == len(arcs) + 1
        cut = engine.solve()
        assert cut.capacity == 2 and cut.source_side == frozenset({0})
        with pytest.raises(ValueError):
            engine.set_capacity(len(arcs), Fraction(1))  # hidden arcs are not revisable

    def test_direct_arc_lowered_under_flow(self):
        arcs = ((0, 2, Fraction(3)), (0, 1, Fraction(1)), (1, 2, Fraction(1)))
        engine = CutEngine(FlowNetwork(3, arcs, 0, 2))
        assert engine.solve().capacity == 4
        engine.set_capacity(0, Fraction(1, 2))
        assert engine.shift == 0
        assert engine.solve().capacity == Fraction(3, 2)

    def test_rejects_negative_capacity(self):
        engine = CutEngine(FlowNetwork(2, ((0, 1, Fraction(1)),), 0, 1))
        with pytest.raises(ValueError):
            engine.set_capacity(0, Fraction(-1))

    def test_infinite_source_arc_revision_still_raises(self):
        # solve() looks for an infinite path only while an infinite arc
        # leaves the source; a revision must keep that count right
        arcs = ((0, 1, Fraction(4)), (1, 2, INF), (0, 2, Fraction(1)), (1, 0, INF))
        engine = CutEngine(FlowNetwork(3, arcs, 0, 2))
        assert engine.inf_from_source == 0
        assert engine.solve().capacity == 5
        engine.set_capacity(0, INF)
        assert engine.inf_from_source == 1
        with pytest.raises(NoFiniteCutError):
            engine.solve()
        engine.set_capacity(0, INF)  # the same revision again counts once
        assert engine.inf_from_source == 1
        engine.set_capacity(0, Fraction(2))
        assert engine.inf_from_source == 0
        assert engine.solve().capacity == 3


def _fan(leaves: int, source_cap: Fraction, sink_cap: Fraction) -> FlowNetwork:
    """s = 0 feeds each of `leaves` middle nodes, each of which feeds t."""
    t = leaves + 1
    arcs = [(0, v, source_cap) for v in range(1, t)] + [(v, t, sink_cap) for v in range(1, t)]
    return FlowNetwork(leaves + 2, tuple(arcs), 0, t)


# the minimal source side is {s} (below half the nodes) or everything but t
# (above half): the capacity check sums over the other side in each case
_SIDES = [(_fan(5, Fraction(1, 2), Fraction(3)), 1), (_fan(5, Fraction(3), Fraction(1, 2)), 6)]


class TestCutCheckSides:
    @pytest.mark.parametrize("net,reached", _SIDES)
    def test_either_side_against_brute(self, net, reached):
        cut = min_st_cut(net)
        assert len(cut.source_side) == reached
        assert (cut.capacity, cut.source_side) == brute_cut(net)

    @pytest.mark.parametrize("net,reached", _SIDES)
    def test_tampered_shift_fails_the_check(self, net, reached):
        engine = CutEngine(net)
        assert len(engine.solve().source_side) == reached
        engine.shift += 1
        with pytest.raises(AssertionError, match="max-flow / min-cut mismatch"):
            engine.solve()

    @pytest.mark.parametrize("net,reached", _SIDES)
    def test_infinite_crossing_arc_fails_the_check(self, net, reached):
        # a cut that crosses an infinite arc cannot come from a maximum
        # flow; mark a crossing arc infinite behind the engine's back
        engine = CutEngine(net)
        cut = engine.solve()
        crossing = next(i for i, (a, b, _) in enumerate(net.arcs)
                        if a in cut.source_side and b not in cut.source_side)
        engine.caps[crossing] = -1
        with pytest.raises(AssertionError, match="minimum cut crosses an infinite arc"):
            engine.solve()


_CAPS = st.one_of(st.just(INF), st.just(Fraction(0)),
                  st.builds(Fraction, st.integers(0, 8), st.integers(1, 4)))


@st.composite
def revised_networks(draw):
    """A network of at most 7 nodes with INF and zero arcs, and at most one
    revision of an arc at the source or the sink."""
    node_count = draw(st.integers(2, 7))
    s, t = 0, node_count - 1
    ends = st.integers(0, t)
    arcs = draw(st.lists(st.tuples(ends, ends, _CAPS), min_size=1, max_size=14))
    if draw(st.booleans()):
        arcs = [(a, b, Fraction(0) if a == s else c) for a, b, c in arcs]  # nothing leaves s
    terminal = [i for i, (a, b, _) in enumerate(arcs) if {a, b} & {s, t}]
    revision = (draw(st.sampled_from(terminal)), draw(_CAPS)) if terminal else None
    return FlowNetwork(node_count, tuple(arcs), s, t), revision


def _check_against_brute(net: FlowNetwork, solve) -> None:
    expected = brute_cut(net)
    if expected is None:
        with pytest.raises(NoFiniteCutError):
            solve()
        return
    cut = solve()
    assert (cut.capacity, cut.source_side) == expected


class TestAgainstBruteProperty:
    @settings(max_examples=examples(300), deadline=None)
    @given(revised_networks())
    # every arc out of s has capacity 0: the first phase finds nothing to do
    @example((FlowNetwork(4, ((0, 1, Fraction(0)), (0, 2, Fraction(0)), (1, 3, INF),
                              (1, 2, Fraction(1)), (2, 3, Fraction(2))), 0, 3), None))
    # the only source arc drops below its flow: no residual leaves s
    @example((FlowNetwork(3, ((0, 1, Fraction(3)), (1, 2, Fraction(5))), 0, 2),
              (0, Fraction(1))))
    def test_cold_and_warm_agree_with_brute(self, case):
        net, revision = case
        _check_against_brute(net, lambda: min_st_cut(net))
        if revision is None:
            return
        engine = CutEngine(net)
        _solve(engine)
        arc, cap = revision
        engine.set_capacity(arc, cap)
        arcs = list(net.arcs)
        arcs[arc] = (arcs[arc][0], arcs[arc][1], cap)
        revised = _replay(net, arcs)
        _check_against_brute(revised, engine.solve)
        _check_against_brute(revised, lambda: min_st_cut(revised))


def _open_terminals(engine: CutEngine) -> tuple[set[int], set[int]]:
    """The terminal slots with room, recomputed from the residuals."""
    arcs = range(len(engine.caps))
    return ({2 * i for i in arcs if engine.tails[i] == engine.s and engine.res[2 * i]},
            {2 * i + 1 for i in arcs if engine.heads[i] == engine.t and engine.res[2 * i]})


class TestOpenTerminals:
    # the kept record of terminal arcs with room decides when phases stop,
    # where they start and which side of the cut is taken
    @settings(max_examples=examples(200), deadline=None)
    @given(revised_networks(), st.lists(st.tuples(st.integers(0, 20), _CAPS), max_size=4))
    def test_record_follows_flow_and_revisions(self, case, more):
        net, revision = case
        engine = CutEngine(net)
        terminal = [i for i, (a, b, _) in enumerate(net.arcs) if {a, b} & {net.source, net.sink}]
        revisions = ([revision] if revision else []) \
            + [(terminal[k % len(terminal)], cap) for k, cap in more if terminal]
        for arc, cap in [(None, None)] + revisions:
            if arc is not None:
                engine.set_capacity(arc, cap)
                assert (engine.open_source, engine.open_sink) == _open_terminals(engine)
            try:
                engine.solve()
            except NoFiniteCutError:
                pass
            assert (engine.open_source, engine.open_sink) == _open_terminals(engine)
