"""Builders for the auxiliary cut networks behind every cut reduction, and their one solver.

Polytope separation and arboricity, where the gathering pass rejects,
and the partition oracle all minimize one set function by min cut:
charge(W) - x(E[W]) over vertex sets W, or over those holding a forced
vertex.  Its one builder is the selection
network of Rhys (Management Science 17(3), 1970) and Picard and
Queyranne (INFOR 20, 1982): each selected hyperedge e becomes one node,
fed by every vertex of e through an infinite arc and escaping to the
sink for x_e.  A finite cut then encodes a vertex set W (the sink-side
vertices): a source-side vertex drags the nodes of its edges along, so
each edge either lies entirely inside W (its node sink-side, paying
nothing) or pays x_e to the cut.  Per-vertex source and sink arcs carry
the charges.  `build_arboricity_gadget` is the same builder at a
density per vertex and unit weights; no routine of the package calls it.

Every cut of such a gadget is solved by `GadgetEngine`, warm across
moves of the forced vertex and charge revisions, and read back once by
`interpret_gadget_cut`, which checks it against the charges and forced
vertex of that solve.

Weights and charges come in as any exact rationals (an `EdgeVector`, a
list of ints) and the builder turns them once into integers over one
common denominator `scale`, 1 when all are ints: the only form the
gadget, its engine and the read-back keep.  Whole capacities reach
`FlowNetwork` as ints, so ints stay ints from the caller to the cut.

Reading a cut back costs time in proportion to its source side and the
edges meeting it, not to the gadget: a per-vertex incidence list of the
selected edges gives the edges leaving the witness.  In a forced cut the
source side is often the source alone.

Rank, independence and the greedy forest need no network: `matroid`
answers them by its gathering pass at one unit per vertex.  Strength
needs none either: its rejected rounds read the pass's blocks.  Nor does
reinforcement: each round reads its merge from the pass's tight sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .core import Hyperedge, Hypergraph, as_fraction
from .mincut import INF, Cap, CutEngine, CutResult, FlowNetwork, _rational


@dataclass(frozen=True)
class GadgetGraph:
    """A supermodular cut gadget plus the bookkeeping to read its cuts back.

    vertex_nodes maps vertex ids to network nodes and edge_nodes the
    selected edge ids to theirs: node 0 is the source, node 1 the sink,
    vertex v is node 2 + v and the k-th selected edge node 2 + n + k.
    charges (per vertex) and weights (per edge id) are those of the cuts
    read back, as integers over their common denominator scale, and so
    are the two sums below.  x_total is the weights summed over the
    selected edges.  offset is the term of the capacity identity that no
    cut changes, x_total less the negative charges, so a cut with
    witness W has capacity (charge(W) - x(E[W]) + offset) / scale.
    forced is the vertex every witness must hold, or None.

    incidence lists, per vertex, the ids of the selected edges holding
    it, so reading a cut back walks only the lists of its source-side
    vertices.  network is the network as built: the copy a `GadgetEngine`
    hands the read-back keeps it under its revised charges and offset.

    The witness of the inclusion-minimal minimum cut, the one every
    solve reports, is the inclusion-maximal minimizer of that function:
    a minimizer W gives a minimum cut whose source side is the vertices
    off W and the nodes of the edges leaving W, so the smallest source
    side has the largest W.  Separation, arboricity and the partition
    oracle break their ties by that rule.
    """

    network: FlowNetwork
    vertex_nodes: dict[int, int]
    edge_nodes: dict[int, int]
    edges: tuple[Hyperedge, ...]
    charges: tuple[int, ...]
    weights: tuple[int, ...]
    x_total: int
    offset: int
    scale: int
    forced: int | None
    incidence: tuple[list[int], ...] = field(repr=False, compare=False)


@dataclass(frozen=True)
class GadgetCutInterpretation:
    """A cut of a supermodular gadget read back as sets of the original instance.

    witness is W, the sink-side vertex set; edges_inside are exactly the
    edges contained in W; value is charge(W) - x(E[W]), an int when it is
    whole (always so for a gadget of scale 1) and a Fraction otherwise.
    """

    source_vertices: frozenset[int]
    witness: frozenset[int]
    edges_inside: frozenset[int]
    value: int | Fraction


def build_supermodular_gadget(h: Hypergraph, x: Sequence[int | Fraction],
                              charges: Sequence[int | Fraction], forced: int | None = None,
                              edge_ids: Iterable[int] | None = None) -> GadgetGraph:
    """Cut network minimizing charge(W) - x(E[W]) over vertex sets W.

    x holds a weight per edge and charges one per vertex, each any exact
    rational: an `EdgeVector`, or a list of ints or Fractions.  With a
    forced vertex the minimum ranges over the W that hold it, otherwise
    over every W, the empty set included.  Charges may be negative; a
    vertex with positive charge costs that much to keep out of W (source
    arc), a negative one pays to be in W (sink arc).  The source arcs
    occupy positions 0..n-1 and the sink arcs n..2n-1 (the forced
    vertex's sink arc is infinite); the arcs of the selected edges'
    nodes follow.  Every minimum cut has capacity min over W of
    charge(W) - x(E[W]), plus the gadget's offset over its scale.
    """
    return _supermodular_gadget(h, x, charges, forced, edge_ids)


def build_arboricity_gadget(h: Hypergraph, density: Fraction,
                            forced: int | None = None) -> GadgetGraph:
    """The supermodular gadget of arboricity's Newton round.

    Charge `density` per vertex and unit weight on every edge, so the
    cut minimizes density * |W| - |E[W]|.  `arboricity` builds it scaled
    to integers instead, charge p and weight q at density p/q, which
    has the same minimizers.
    """
    return _supermodular_gadget(h, [1] * h.m, [density] * h.n, forced, None)


def _supermodular_gadget(h: Hypergraph, x: Sequence[int | Fraction],
                         charges: Sequence[int | Fraction], forced: int | None,
                         edge_ids: Iterable[int] | None) -> GadgetGraph:
    # the body of both public builders: neither calls the other, so a
    # trace of the layer boundaries counts each build once
    if len(x) != h.m:
        raise ValueError(f"weights has {len(x)} entries, expected {h.m}")
    if forced is not None and not 0 <= forced < h.n:
        raise ValueError("forced vertex out of range")
    if len(charges) != h.n:
        raise ValueError("one charge per vertex required")
    # every weight and charge as an integer over one common denominator
    values = [v if type(v) is int else as_fraction(v) for v in (*x, *charges)]
    scale = math.lcm(*[v.denominator for v in values])
    nums = [v.numerator * (scale // v.denominator) for v in values]
    w, ch = nums[:h.m], nums[h.m:]
    ids = h._edge_id_list(edge_ids)
    for e in ids:
        if w[e] < 0:
            raise ValueError(f"negative weight at edge {e}")
    edges = tuple([h.edges[e] for e in ids])
    arcs: list[tuple[int, int, Cap]] = [(0, 2 + v, _rational(max(c, 0), scale))
                                        for v, c in enumerate(ch)]
    for v, c in enumerate(ch):
        arcs.append((2 + v, 1, INF if v == forced else _rational(max(-c, 0), scale)))
    enode: dict[int, int] = {}
    inc: tuple[list[int], ...] = tuple([[] for _ in ch])
    for node, e in enumerate(edges, start=2 + h.n):
        i = e.id
        enode[i] = node
        for u in e.vertices:
            arcs.append((2 + u, node, INF))
            inc[u].append(i)
        arcs.append((node, 1, _rational(w[i], scale)))
    total = sum([w[e] for e in ids])
    return GadgetGraph(FlowNetwork(2 + h.n + len(edges), tuple(arcs), 0, 1),
                       {v: 2 + v for v in range(h.n)}, enode, edges, tuple(ch), tuple(w), total,
                       total - sum([c for c in ch if c < 0]), scale, forced, inc)


def interpret_gadget_cut(g: GadgetGraph, cut: CutResult) -> GadgetCutInterpretation:
    """Read a supermodular gadget cut back as vertex and edge sets.

    Verifies the structural facts every minimum cut of the gadget must
    satisfy: the forced vertex lands in the witness, an edge's node is
    source-side exactly when one of its vertices is (so the sink-side
    edges are exactly those contained in the witness), and the cut
    capacity equals charge(W) - x(E[W]) + offset over the gadget's
    scale, checked in integers.

    The work is proportional to the cut's source side and the edges
    meeting it, not to the whole gadget: the edges leaving W are the
    incidences of the source-side vertices, W and E[W] are what remains
    of the vertices and the selected edges, and charge(W) and x(E[W])
    are the totals less the source-side terms.
    """
    inc = g.incidence
    first_edge = 2 + len(inc)  # the builder's layout: s, t, the vertices, then the edges
    edges = g.edges
    ch, w = g.charges, g.weights
    # infinite wiring drags the node of an edge with a source-side
    # vertex along; minimality keeps every other node sink-side
    source_list, source_edges = [], set()
    for node in cut.source_side:
        if node >= first_edge:
            source_edges.add(edges[node - first_edge].id)
        elif node >= 2:
            source_list.append(node - 2)
    leaving = set().union(*[inc[v] for v in source_list])
    assert source_edges <= leaving, "edge node on the source side without any of its vertices"
    assert leaving <= source_edges, "vertex on the source side but its edge node is not"
    source_vertices = frozenset(source_list)
    witness = frozenset(g.vertex_nodes.keys() - source_vertices)
    edges_inside = frozenset(g.edge_nodes.keys() - leaving)
    value = sum(ch) - sum([ch[v] for v in source_list]) \
        - (g.x_total - sum([w[e] for e in leaving]))
    if g.forced is not None:
        assert g.forced in witness, "forced vertex escaped the witness"
    c = cut.capacity
    assert c.numerator * g.scale == (value + g.offset) * c.denominator, "capacity identity failed"
    return GadgetCutInterpretation(source_vertices=source_vertices, witness=witness,
                                   edges_inside=edges_inside, value=_rational(value, g.scale))


class GadgetEngine:
    """The one solver of supermodular gadget cuts: warm re-solves, each read back.

    force() moves the infinite sink arc to another vertex and
    set_charge() revises a vertex's two terminal arcs; vertex v's source
    arc sits at position v and its sink arc at n + v, the builder's
    layout, which nothing else reads.  solve() returns the minimum cut
    read back by interpret_gadget_cut() against the charges, offset and
    forced vertex as they stand, so the read-back checks every revision.
    The engine keeps the gadget's integer form; a charge off its scale
    rescales the charges, the weights and their sums.
    """

    def __init__(self, g: GadgetGraph) -> None:
        self._gadget = g
        self._charges = list(g.charges)
        self._weights = g.weights
        self._x_total = g.x_total
        self._offset = g.offset
        self._scale = g.scale
        self._forced = g.forced
        self._engine = CutEngine(g.network)

    def force(self, v: int) -> None:
        """Make v the forced vertex, releasing the previous one."""
        old, n = self._forced, len(self._charges)
        if not 0 <= v < n:
            raise ValueError("vertex out of range")
        if v == old:
            return
        if old is not None:
            self._engine.set_capacity(n + old, _rational(max(-self._charges[old], 0), self._scale))
        self._engine.set_capacity(n + v, INF)
        self._forced = v

    def set_charge(self, v: int, charge: int | Fraction) -> None:
        """Give vertex v a new charge, any exact rational; a rejected one changes nothing."""
        charge = charge if type(charge) is int else as_fraction(charge)
        n = len(self._charges)
        if not 0 <= v < n:
            raise ValueError("vertex out of range")
        d = charge.denominator
        if self._scale % d:
            k = d // math.gcd(self._scale, d)
            self._charges = [c * k for c in self._charges]
            self._weights = tuple([c * k for c in self._weights])
            self._x_total *= k
            self._offset *= k
            self._scale *= k
        scale = self._scale
        num = charge.numerator * (scale // d)
        self._engine.set_capacity(v, _rational(max(num, 0), scale))
        if v != self._forced:
            self._engine.set_capacity(n + v, _rational(max(-num, 0), scale))
        self._offset += min(self._charges[v], 0) - min(num, 0)
        self._charges[v] = num

    def solve(self) -> GadgetCutInterpretation:
        """The minimum cut under the current charges and forced vertex, read back."""
        g = self._gadget
        live = GadgetGraph(g.network, g.vertex_nodes, g.edge_nodes, g.edges,
                           tuple(self._charges), self._weights, self._x_total, self._offset,
                           self._scale, self._forced, g.incidence)
        return interpret_gadget_cut(live, self._engine.solve())

