import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermat import (
    DuplicateVertexInEdge,
    EdgeVector,
    Hyperedge,
    Hypergraph,
    HypergraphFormatError,
    Partition,
    as_fraction,
    format_rational,
    parse_hypergraph,
    serialize_hypergraph,
)


def test_as_fraction_accepts_int_str_fraction():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("5/2") == Fraction(5, 2)
    assert as_fraction(Fraction(-1, 3)) == Fraction(-1, 3)


def test_as_fraction_rejects_float():
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_format_rational():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


class TestHyperedge:
    def test_sorts_vertices(self):
        assert Hyperedge(0, (2, 0, 1)).vertices == (0, 1, 2)

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            Hyperedge(0, (1, 1))
        with pytest.raises(ValueError):
            Hyperedge(0, ())

    def test_loop(self):
        assert Hyperedge(0, (4,)).is_loop
        assert not Hyperedge(0, (0, 4)).is_loop

    def test_container_protocol(self):
        e = Hyperedge(0, (3, 1))
        assert len(e) == 2 and list(e) == [1, 3] and 3 in e and 0 not in e


class TestHypergraph:
    def test_basic(self, h1):
        assert h1.n == 4 and h1.m == 3
        assert h1.edge(2).vertices == (0, 3)

    def test_vertex_range_checked(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [[0, 3]])
        with pytest.raises(ValueError):
            Hypergraph(-1)

    def test_accepts_hyperedge_objects(self):
        h = Hypergraph(3, [Hyperedge(0, (1, 0))])
        assert h.edge(0).vertices == (0, 1)

    def test_equality_and_hash(self, h0):
        same = Hypergraph(3, [[2, 1, 0], [0, 1, 2]])
        assert h0 == same and hash(h0) == hash(same)
        assert h0 != Hypergraph(3, [[0, 1, 2]])

    def test_induced_edges(self, h1):
        assert h1.induced_edges(None, [0, 1, 2]) == frozenset({0})
        assert h1.induced_edges(None, range(4)) == frozenset({0, 1, 2})
        assert h1.induced_edges([1, 2], [0, 1, 2]) == frozenset()

    def test_cross_edges_partition(self, h1):
        p = Partition(4, ((0, 1), (2, 3)))
        # edge 0 = {0,1,2} and edge 2 = {0,3} straddle; edge 1 = {1,2,3} too
        assert h1.cross_edges(None, p) == frozenset({0, 1, 2})
        assert h1.cross_edges(None, Partition.whole(4)) == frozenset()

    def test_cross_edges_partial_family(self, h1):
        # an edge counts only when contained in the union and meeting two blocks
        fam = [[0], [3]]
        assert h1.cross_edges(None, fam) == frozenset({2})
        assert h1.cross_edges([0, 1], fam) == frozenset()


class TestPartition:
    def test_canonical_order(self):
        p = Partition(4, ((3, 2), (1, 0)))
        assert p.blocks == ((0, 1), (2, 3))

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            Partition(3, ((0, 1), (1, 2)))  # overlap
        with pytest.raises(ValueError):
            Partition(3, ((0, 1),))  # vertex 2 missing
        with pytest.raises(ValueError):
            Partition(3, ((0, 1, 2), ()))

    def test_constructors(self):
        assert Partition.singletons(3).blocks == ((0,), (1,), (2,))
        assert Partition.whole(3).blocks == ((0, 1, 2),)

    def test_block_index(self):
        p = Partition(4, ((0, 2), (1, 3)))
        assert p.block_index(2) == 0 and p.block_index(3) == 1

    def test_size(self):
        assert len(list(Partition.singletons(4))) == 4

    def test_label_stays_out_of_equality_hash_and_repr(self):
        p = Partition(3, ((2,), (0, 1)))
        q = Partition(3, ((1, 0), (2,)))
        assert p == q and hash(p) == hash(q) and {p: 1}[q] == 1
        assert repr(p) == "Partition(n=3, blocks=((0, 1), (2,)))"

    def test_block_index_rejects_non_vertices(self):
        p = Partition(3, ((0, 1), (2,)))
        for v in (-1, 3, "0"):
            with pytest.raises(KeyError):
                p.block_index(v)

    @pytest.mark.parametrize("n,blocks,message", [
        (3, ((0, 1), (1, 2)), "blocks are not disjoint"),
        (3, ((0, 1), ()), "empty block"),
        (3, ((0, 0), (1, 2)), "block repeats a vertex"),
        (3, ((0, 1),), "blocks must cover exactly the vertices 0..n-1"),
        (3, ((0, 1), (2, 3)), "blocks must cover exactly the vertices 0..n-1"),
        (3, ((-1, 0), (1, 2)), "blocks must cover exactly the vertices 0..n-1"),
        (3, ((0, 3), (1, 2), (3,)), "blocks are not disjoint"),
        (-1, (), "blocks must cover exactly the vertices 0..n-1"),
    ])
    def test_validation_messages(self, n, blocks, message):
        with pytest.raises(ValueError) as err:
            Partition(n, blocks)
        assert str(err.value) == message


@st.composite
def labelled_instances(draw, partial: bool):
    """A small hypergraph and a block label per vertex (-1: in no block)."""
    n = draw(st.integers(1, 7))
    edges = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True), max_size=10))
    low = -1 if partial else 0
    labels = draw(st.lists(st.integers(low, 3), min_size=n, max_size=n))
    return Hypergraph(n, edges), labels


def _blocks(labels):
    found = sorted({b for b in labels if b >= 0})
    return [[v for v, b in enumerate(labels) if b == lab] for lab in found]


def _selection(ids, m):
    return None if ids is None else [e for e in ids if e < m]


class TestEdgeQueriesAgainstRecount:
    """cross_edges, induced_edges and block_index against a naive recount from vertex sets."""

    @settings(max_examples=150, deadline=None)
    @given(labelled_instances(partial=False), st.none() | st.lists(st.integers(0, 9)))
    def test_partition(self, inst, draw_ids):
        h, labels = inst
        blocks = _blocks(labels)
        p = Partition(h.n, tuple(tuple(b) for b in blocks))
        ids = _selection(draw_ids, h.m)
        chosen = range(h.m) if ids is None else set(ids)
        expect = frozenset(e for e in chosen
                           if sum(1 for b in blocks if set(b) & set(h.edges[e].vertices)) >= 2)
        assert h.cross_edges(ids, p) == expect
        assert h.cross_edges(ids, blocks) == expect
        for v in range(h.n):
            assert set(p.blocks[p.block_index(v)]) == {u for u in range(h.n) if labels[u] == labels[v]}

    @settings(max_examples=150, deadline=None)
    @given(labelled_instances(partial=True), st.none() | st.lists(st.integers(0, 9)))
    def test_partial_family(self, inst, draw_ids):
        h, labels = inst
        blocks = _blocks(labels)
        ids = _selection(draw_ids, h.m)
        chosen = range(h.m) if ids is None else set(ids)
        union = {v for b in blocks for v in b}
        expect = frozenset(
            e for e in chosen
            if set(h.edges[e].vertices) <= union
            and sum(1 for b in blocks if set(b) & set(h.edges[e].vertices)) >= 2)
        assert h.cross_edges(ids, blocks) == expect
        # a vertex repeated inside its own block changes nothing
        assert h.cross_edges(ids, [b + b[:1] for b in blocks]) == expect
        assert h.induced_edges(ids, union) == frozenset(
            e for e in chosen if set(h.edges[e].vertices) <= union)

    @settings(max_examples=100, deadline=None)
    @given(labelled_instances(partial=True), st.lists(st.integers(0, 6)))
    def test_induced_edges(self, inst, vertex_list):
        h, _ = inst
        vertex_list = [v for v in vertex_list if v < h.n]
        assert h.induced_edges(None, vertex_list) == frozenset(
            e for e in range(h.m) if set(h.edges[e].vertices) <= set(vertex_list))

    def test_vertex_repeated_inside_one_block_is_accepted(self):
        h = Hypergraph(2, [[0, 1]])
        assert h.cross_edges(None, [(0, 0), (1,)]) == frozenset({0})

    @pytest.mark.parametrize("blocks,message", [
        ([(0,), ()], "empty block"),
        ([(0, 1), (1, 2)], "blocks are not disjoint"),
        ([(0,), (3,)], "vertex 3 outside 0..2"),
        ([(-1,), (0,)], "vertex -1 outside 0..2"),
    ])
    def test_bad_block_families(self, blocks, message):
        h = Hypergraph(3, [[0, 1, 2]])
        with pytest.raises(ValueError) as err:
            h.cross_edges(None, blocks)
        assert str(err.value) == message

    def test_partition_over_other_vertex_count(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [[0, 1]]).cross_edges(None, Partition.singletons(4))


class TestEdgeVector:
    def test_coercion(self):
        v = EdgeVector.of([1, "3/2", Fraction(0)])
        assert v.values == (Fraction(1), Fraction(3, 2), Fraction(0))

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            EdgeVector.of([0.5])

    def test_constant_ones_zeros(self):
        assert EdgeVector.constant(2, "1/3").values == (Fraction(1, 3),) * 2
        assert EdgeVector.ones(3).total() == 3
        assert EdgeVector.zeros(3).total() == 0

    def test_sums(self):
        v = EdgeVector.of(["1/2", 2, 3])
        assert v.total() == Fraction(11, 2)
        assert v.sum_over([0, 2]) == Fraction(7, 2)

    def test_checks(self):
        v = EdgeVector.of([1, -1])
        assert not v.is_nonnegative() and v.is_integral()
        with pytest.raises(ValueError):
            v.require_nonnegative("weights")
        with pytest.raises(ValueError):
            v.require_length(3, "weights")
        assert not EdgeVector.of(["1/2"]).is_integral()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)), max_size=12),
           st.data())
    def test_sums_match_fraction_sums(self, values, data):
        # signed rationals with mixed denominators; ids may be empty or repeat
        v = EdgeVector.of(values)
        before = (hash(v), repr(v))
        ids = data.draw(st.lists(st.integers(0, len(values) - 1), max_size=20)) if values else []
        assert v.sum_over(ids) == sum((values[e] for e in ids), Fraction(0))
        assert v.total() == sum(values, Fraction(0))
        assert v.sum_over([]) == 0 and isinstance(v.sum_over(ids), Fraction)
        # the first sum leaves equality, hashing and repr as they were
        assert v.values == tuple(values)
        assert (hash(v), repr(v)) == before and v == EdgeVector.of(values)


SAMPLE = """\
# a comment
3 2

0 1 2 | 1 2
0 1 2 | 2 2
"""


_BAD_VERTICES = ["-1", "4", "x", "0x1", "1/0", "|", "0 | 1 | 2"]
_BAD_COLUMNS = ["1/0", "nan", "inf", "x", "|", "", "1 2 3 4"]
_GOOD_COLUMNS = ["0", "2", "-1", "0.5", "3/2", "-2/3", "1e3", "+7", "007"]


@st.composite
def parser_documents(draw):
    """A document in the edge format that goes wrong here and there: each
    piece (header, line count, vertex id, column count, column token) is
    replaced now and then by a token such as |, 1/0, nan, -1 or 0.5."""
    def bad(bad_tokens, good):
        return draw(st.sampled_from(bad_tokens)) if draw(st.integers(0, 15)) == 0 else good
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    header = bad(["", f"{n}", f"{n} {m} 1", f"{n} x", f"-1 {m}", f"{n} -1"], f"{n} {m}")
    ncols = draw(st.integers(0, 3))
    lines = []
    for _ in range(m + bad([-1, 1], 0)):
        verts = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        vtokens = [bad(_BAD_VERTICES, str(v)) for v in verts]
        width = bad([0, 1, 2, 3, 4], ncols)
        ctokens = [bad(_BAD_COLUMNS, draw(st.sampled_from(_GOOD_COLUMNS))) for _ in range(width)]
        lines.append(" ".join(vtokens + (["|"] if ctokens else []) + ctokens))
    lines += draw(st.lists(st.sampled_from(["", "# note"]), max_size=2))
    return "\n".join([header, *lines]) + draw(st.sampled_from(["", "\n"]))


class TestParseFuzz:
    @settings(max_examples=500, deadline=None)
    @given(parser_documents(), st.booleans())
    def test_only_format_errors_and_exact_roundtrip(self, text, strict):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                h, cols = parse_hypergraph(text, strict=strict)
            except HypergraphFormatError:
                # DuplicateVertexInEdge is one of these
                return
        assert parse_hypergraph(serialize_hypergraph(h, cols)) == (h, cols)


class TestParse:
    def test_parses_edges_and_columns(self):
        h, cols = parse_hypergraph(SAMPLE)
        assert h.n == 3 and h.m == 2
        assert len(cols) == 2
        assert cols[0].values == (Fraction(1), Fraction(2))
        assert cols[1].values == (Fraction(2), Fraction(2))

    def test_no_columns(self):
        h, cols = parse_hypergraph("2 1\n0 1\n")
        assert h.m == 1 and cols == []

    def test_rational_columns(self):
        _, cols = parse_hypergraph("2 1\n0 1 | 3/2\n")
        assert cols[0][0] == Fraction(3, 2)

    def test_decimal_column_is_exact(self):
        # Fraction("1.5") parses decimal text exactly, so it is allowed
        _, cols = parse_hypergraph("2 1\n0 1 | 1.5\n")
        assert cols[0][0] == Fraction(3, 2)

    def test_repeated_tokens_parse_alike(self):
        _, cols = parse_hypergraph("3 3\n0 1 | 1/2 0.5\n1 2 | 1/2 2/4\n0 2 | 0.5 1/2\n")
        assert [list(c) for c in cols] == [[Fraction(1, 2)] * 3] * 2

    def test_loops_parse(self):
        h, _ = parse_hypergraph("2 1\n1\n")
        assert h.edge(0).is_loop

    @pytest.mark.parametrize("text,fragment", [
        ("", "no header"),
        ("3\n", "header"),
        ("a b\n", "two integers"),
        ("2 2\n0 1\n", "expected 2 edge lines"),
        ("2 1\n0 1\n0 1\n", "trailing"),
        ("2 1\n0 2\n", "outside"),
        ("2 1\n0 1 | 1 | 2\n", "more than one"),
        ("2 1\n0 1 |\n", "no columns"),
        ("2 2\n0 1 | 1\n0 1\n", "expected 1 column"),
        ("2 1\n0 1 | 1 2 3 4\n", "more than three"),
        ("2 1\n0 1 | 1/0\n", "bad rational"),
        ("2 1\n0 1 | q\n", "bad rational"),
        # a token that parsed earlier does not mask a bad one after it
        ("2 2\n0 1 | 1/2 1/2\n0 1 | 1/2 1/0\n", "line 3: bad rational '1/0'"),
        ("2 1\n0 x\n", "integers"),
    ])
    def test_format_errors(self, text, fragment):
        with pytest.raises(HypergraphFormatError) as err:
            parse_hypergraph(text)
        assert fragment in str(err.value)

    def test_duplicate_vertex_strict(self):
        with pytest.raises(DuplicateVertexInEdge):
            parse_hypergraph("2 1\n0 0 1\n")

    def test_duplicate_vertex_lenient(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            h, _ = parse_hypergraph("2 1\n0 0 1\n", strict=False)
        assert h.edge(0).vertices == (0, 1)
        assert any("deduplicated" in str(w.message) for w in caught)

    def test_roundtrip(self):
        h, cols = parse_hypergraph(SAMPLE)
        text = serialize_hypergraph(h, cols)
        h2, cols2 = parse_hypergraph(text)
        assert h2 == h and cols2 == cols

    def test_serialize_plain(self, h1):
        text = serialize_hypergraph(h1)
        h2, cols = parse_hypergraph(text)
        assert h2 == h1 and cols == []
