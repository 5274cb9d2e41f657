"""Hypergraph domain types, edge queries, and the text interchange format.

A hypergraph here has vertices 0..n-1 and an ordered list of hyperedges
with dense ids 0..m-1.  Parallel copies of an edge are deliberately kept
as distinct ids: several algorithms in this package work on edge
multisets, and two copies of the same vertex set are two different edges.

Vertex sets are plain sorted tuples and partitions carry a per-vertex
block label array, so memory and the edge queries (`induced_edges`,
`cross_edges`) grow linearly in n plus the total edge size.

All numeric data is exact rational arithmetic (`fractions.Fraction`).
Nothing in this package ever rounds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence


class HypergraphFormatError(ValueError):
    """Malformed hypergraph text input."""


class DuplicateVertexInEdge(HypergraphFormatError):
    """An edge line repeats a vertex (rejected in strict mode)."""


class LoopPresentError(ValueError):
    """An operation that is undefined on singleton edges was given one."""


def as_fraction(value: int | str | Fraction) -> Fraction:
    """Coerce a value to an exact rational.

    Accepts integers, Fractions, and strings in "p/q" or decimal form
    ("0.5" parses exactly as 1/2).  Floats are rejected: their binary
    representation would silently change the value.
    """
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass an int, string, or Fraction")
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def format_rational(value: Fraction) -> str:
    """Render a rational as "p/q", or plain "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Hyperedge:
    """A hyperedge: a nonempty vertex set with an id, stored strictly sorted."""

    id: int
    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        verts = tuple(sorted(self.vertices))
        if not verts:
            raise ValueError(f"edge {self.id} is empty")
        for a, b in zip(verts, verts[1:]):
            if a == b:
                raise ValueError(f"edge {self.id} repeats vertex {a}")
        object.__setattr__(self, "vertices", verts)

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __contains__(self, v: object) -> bool:
        return v in self.vertices

    @property
    def is_loop(self) -> bool:
        """True for singleton edges, which never span a cut."""
        return len(self.vertices) == 1


class Hypergraph:
    """Immutable hypergraph with dense vertex ids 0..n-1 and edge ids 0..m-1.

    Edges may be given as vertex iterables (ids are assigned by position)
    or as Hyperedge objects whose ids must already match their position.
    Each edge keeps only its sorted vertex tuple; the edge queries read
    those tuples against a vertex set or a per-vertex block label, so
    every query costs O(n + sum of edge sizes).
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[Sequence[int] | Hyperedge] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        built: list[Hyperedge] = []
        for i, e in enumerate(edges):
            if isinstance(e, Hyperedge):
                if e.id != i:
                    raise ValueError(f"edge at position {i} carries id {e.id}")
            else:
                e = Hyperedge(i, tuple(e))
            if e.vertices[0] < 0 or e.vertices[-1] >= n:
                raise ValueError(f"edge {i} references a vertex outside 0..{n - 1}")
            built.append(e)
        self.n = n
        self.edges: tuple[Hyperedge, ...] = tuple(built)

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge(self, edge_id: int) -> Hyperedge:
        return self.edges[edge_id]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.n == other.n and all(
            a.vertices == b.vertices for a, b in zip(self.edges, other.edges)
        ) and self.m == other.m

    def __hash__(self) -> int:
        return hash((self.n, tuple(e.vertices for e in self.edges)))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, m={self.m})"

    def _edge_id_list(self, edge_ids: Iterable[int] | None) -> list[int]:
        if edge_ids is None:
            return list(range(self.m))
        ids = sorted(set(edge_ids))
        if ids and (ids[0] < 0 or ids[-1] >= self.m):
            raise ValueError("edge id out of range")
        return ids

    def induced_edges(self, edge_ids: Iterable[int] | None, vertex_set: Iterable[int]) -> frozenset[int]:
        """Ids of the selected edges entirely contained in the vertex set."""
        ids = self._edge_id_list(edge_ids)
        inside = set(self._check_vertices(vertex_set))
        edges = self.edges
        return frozenset(e for e in ids if inside.issuperset(edges[e].vertices))

    def cross_edges(self, edge_ids: Iterable[int] | None, blocks: "Partition | Iterable[Iterable[int]]") -> frozenset[int]:
        """Ids of the selected edges crossing a family of disjoint blocks.

        An edge crosses when it lies inside the union of the blocks and
        meets at least two of them.  The family need not cover every
        vertex, so this works both for partitions and for partial block
        families; edges sticking out of the union never count.
        """
        if isinstance(blocks, Partition):
            if blocks.n != self.n:
                raise ValueError("partition is over a different vertex count")
            label: Sequence[int] = blocks._label
        else:
            label = self._block_labels([tuple(b) for b in blocks])
        ids = self._edge_id_list(edge_ids)
        edges = self.edges
        get = label.__getitem__
        out = []
        for e in ids:
            hit = set(map(get, edges[e].vertices))
            # -1 marks a vertex off the union of the blocks
            if len(hit) > 1 and -1 not in hit:
                out.append(e)
        return frozenset(out)

    def _block_labels(self, blocks: list[tuple[int, ...]]) -> list[int]:
        """Per-vertex index of the block holding it, -1 off their union.

        Validates the family block by block: vertices in range, no empty
        block, no vertex in two blocks.  A vertex repeated inside one
        block is harmless and accepted.
        """
        label = [-1] * self.n
        for i, b in enumerate(blocks):
            self._check_vertices(b)
            if not b:
                raise ValueError("empty block")
            for v in b:
                if label[v] != i:
                    if label[v] >= 0:
                        raise ValueError("blocks are not disjoint")
                    label[v] = i
        return label

    def _check_vertices(self, vertices: Iterable[int]) -> list[int]:
        vs = list(vertices)
        for v in vs:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
        return vs


_COVER = "blocks must cover exactly the vertices 0..n-1"


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty vertex blocks covering 0..n-1, canonically ordered.

    Blocks are stored sorted, and ordered among themselves by smallest
    element, so two partitions with the same blocks compare equal and
    hash alike no matter how they were built.  Alongside the blocks a
    partition keeps a per-vertex label array, the index of each vertex's
    block; it takes no part in equality, hashing or repr.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]
    _label: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        norm = tuple(sorted((tuple(sorted(b)) for b in self.blocks), key=lambda b: b[0] if b else -1))
        n = self.n
        label = [-1] * n
        # vertices at or above n are only remembered for the disjointness
        # check; they fail the cover check once every block has been seen
        beyond: set[int] = set()
        for i, b in enumerate(norm):
            if not b:
                raise ValueError("empty block")
            if b[0] < 0:
                raise ValueError(_COVER)
            for u, v in zip(b, b[1:]):
                if u == v:
                    raise ValueError("block repeats a vertex")
            for v in b:
                if v < n:
                    if label[v] >= 0:
                        raise ValueError("blocks are not disjoint")
                    label[v] = i
                elif v in beyond:
                    raise ValueError("blocks are not disjoint")
                else:
                    beyond.add(v)
        if n < 0 or beyond or -1 in label:
            raise ValueError(_COVER)
        object.__setattr__(self, "blocks", norm)
        object.__setattr__(self, "_label", tuple(label))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(n, tuple((v,) for v in range(n)))

    @classmethod
    def whole(cls, n: int) -> "Partition":
        return cls(n, (tuple(range(n)),))

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.blocks)

    def block_index(self, v: int) -> int:
        """Index in `blocks` of the block holding v; KeyError if v is no vertex."""
        if isinstance(v, int) and 0 <= v < self.n:
            return self._label[v]
        raise KeyError(v)


class EdgeVector:
    """Per-edge rational values: weights, capacities, costs, bounds, or a point.

    The operations that consume a vector validate whatever their use
    requires (nonnegativity, length, integrality) at the point of use.

    The first `total` or `sum_over` also stores the values as integers
    over their common denominator, and both sum those integers.  Vectors
    that are never summed never pay for that form.
    """

    __slots__ = ("values", "_scaled")

    def __init__(self, values: Iterable[int | str | Fraction]) -> None:
        self.values: tuple[Fraction, ...] = tuple(as_fraction(v) for v in values)
        self._scaled: tuple[list[int], int] | None = None

    @classmethod
    def of(cls, values: Iterable[int | str | Fraction]) -> "EdgeVector":
        return cls(values)

    @classmethod
    def constant(cls, m: int, value: int | str | Fraction) -> "EdgeVector":
        return cls([as_fraction(value)] * m)

    @classmethod
    def ones(cls, m: int) -> "EdgeVector":
        return cls.constant(m, 1)

    @classmethod
    def zeros(cls, m: int) -> "EdgeVector":
        return cls.constant(m, 0)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, e: int) -> Fraction:
        return self.values[e]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeVector):
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        inner = ", ".join(format_rational(v) for v in self.values)
        return f"EdgeVector([{inner}])"

    def _integers(self) -> tuple[list[int], int]:
        """The values as integers over their common denominator, and that denominator."""
        if self._scaled is None:
            scale = math.lcm(*[v.denominator for v in self.values])
            self._scaled = ([v.numerator * (scale // v.denominator) for v in self.values], scale)
        return self._scaled

    def total(self) -> Fraction:
        nums, scale = self._integers()
        return Fraction(sum(nums), scale)

    def sum_over(self, edge_ids: Iterable[int]) -> Fraction:
        nums, scale = self._integers()
        return Fraction(sum([nums[e] for e in edge_ids]), scale)

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self.values)

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.values)

    def require_nonnegative(self, what: str) -> None:
        for e, v in enumerate(self.values):
            if v < 0:
                raise ValueError(f"{what} has a negative entry at edge {e}: {v}")

    def require_length(self, m: int, what: str) -> None:
        if len(self.values) != m:
            raise ValueError(f"{what} has {len(self.values)} entries, expected {m}")


def parse_hypergraph(text: str, strict: bool = True) -> tuple[Hypergraph, list[EdgeVector]]:
    """Parse the text format: a header "n m", then m edge lines.

    Each edge line lists the edge's vertex ids, optionally followed by
    "|" and one to three rational columns.  The column count must be
    uniform across all edge lines; column meaning is assigned by the
    consumer.  Blank lines and lines starting with "#" are skipped.
    In strict mode a repeated vertex on an edge line is an error;
    otherwise it is deduplicated with a warning.
    """
    data: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        data.append((lineno, line))
    if not data:
        raise HypergraphFormatError("no header line")
    lineno, header = data[0]
    parts = header.split()
    if len(parts) != 2:
        raise HypergraphFormatError(f"line {lineno}: header must be 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise HypergraphFormatError(f"line {lineno}: header must be two integers") from exc
    if n < 0 or m < 0:
        raise HypergraphFormatError(f"line {lineno}: negative count in header")
    body = data[1:]
    if len(body) < m:
        raise HypergraphFormatError(f"expected {m} edge lines, found {len(body)}")
    if len(body) > m:
        extra = body[m][0]
        raise HypergraphFormatError(f"line {extra}: trailing data after {m} edge lines")

    edges: list[list[int]] = []
    columns: list[list[Fraction]] | None = None
    # a file repeats few distinct values; only tokens that parsed are
    # kept, so a bad token still raises with the line that holds it
    parsed: dict[str, Fraction] = {}
    for idx, (lineno, line) in enumerate(body):
        if line.count("|") > 1:
            raise HypergraphFormatError(f"line {lineno}: more than one '|'")
        left, _, right = line.partition("|")
        vtokens = left.split()
        if not vtokens:
            raise HypergraphFormatError(f"line {lineno}: edge with no vertices")
        try:
            verts = [int(t) for t in vtokens]
        except ValueError as exc:
            raise HypergraphFormatError(f"line {lineno}: vertex ids must be integers") from exc
        for v in verts:
            if not 0 <= v < n:
                raise HypergraphFormatError(f"line {lineno}: vertex {v} outside 0..{n - 1}")
        if len(set(verts)) != len(verts):
            if strict:
                raise DuplicateVertexInEdge(f"line {lineno}: repeated vertex on edge {idx}")
            warnings.warn(f"line {lineno}: repeated vertex on edge {idx} deduplicated")
            verts = sorted(set(verts))
        ctokens = right.split()
        if "|" in line and not ctokens:
            raise HypergraphFormatError(f"line {lineno}: '|' with no columns")
        if columns is None:
            if len(ctokens) > 3:
                raise HypergraphFormatError(f"line {lineno}: more than three columns")
            columns = [[] for _ in ctokens]
        if len(ctokens) != len(columns):
            raise HypergraphFormatError(
                f"line {lineno}: expected {len(columns)} column(s), found {len(ctokens)}"
            )
        for col, tok in zip(columns, ctokens):
            value = parsed.get(tok)
            if value is None:
                try:
                    value = parsed[tok] = Fraction(tok)
                except (ValueError, ZeroDivisionError) as exc:
                    raise HypergraphFormatError(f"line {lineno}: bad rational {tok!r}") from exc
            col.append(value)
        edges.append(verts)

    h = Hypergraph(n, edges)
    return h, [EdgeVector(col) for col in columns or []]


def serialize_hypergraph(h: Hypergraph, columns: Sequence[EdgeVector] = ()) -> str:
    """Emit the text format; parse_hypergraph inverts this exactly."""
    if len(columns) > 3:
        raise ValueError("at most three columns")
    for col in columns:
        col.require_length(h.m, "column")
    lines = [f"{h.n} {h.m}"]
    for e in h.edges:
        row = " ".join(str(v) for v in e.vertices)
        if columns:
            row += " | " + " ".join(format_rational(col[e.id]) for col in columns)
        lines.append(row)
    return "\n".join(lines) + "\n"
