"""Builders for the auxiliary cut networks behind every reduction.

Three of the four constructions share one skeleton.  A hyperedge e is
split into an entry node and an exit node joined by an arc carrying half
the edge's weight; every vertex of e feeds the entry node and is fed by
the exit node through infinite arcs, and both split nodes can escape to
the sink for the same half weight.  A finite cut then encodes a vertex
set W (the sink-side vertices): each edge either lies entirely inside W
(both split nodes sink-side, contributing nothing), or pays its full
weight to the cut.  The per-vertex source and sink arcs differ per
construction and select which set function of W the cut capacity
measures.

The independence gadget is simpler: unit arcs meter how many distinct
vertices a sub-family of edges can be charged to.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .core import EdgeVector, Hyperedge, Hypergraph, LoopPresentError, as_fraction
from .mincut import INF, Cap, CutEngine, CutResult, FlowNetwork


@dataclass(frozen=True)
class GadgetGraph:
    """A built cut network plus the bookkeeping to read vertex sets back out.

    kind is one of "polytope", "cover", "density", "independence".
    vertex_nodes maps original vertex ids to network nodes; split_nodes
    maps edge ids to (entry, exit) node pairs for the edge-split kinds;
    edge_nodes maps edge ids to their single node in the independence
    gadget.  The kind-specific parameters needed to verify the capacity
    identity ride along.  capacity_offset is the term of that identity
    no cut changes (x of the selected edges less the negative charges,
    or |E| for the density kind): None has each interpretation sum it,
    and a sweep fills it in once for all of its cuts.
    """

    kind: str
    network: FlowNetwork
    source: int
    sink: int
    vertex_nodes: dict[int, int]
    split_nodes: dict[int, tuple[int, int]] = field(default_factory=dict)
    edge_nodes: dict[int, int] = field(default_factory=dict)
    edge_ids: tuple[int, ...] = ()
    edges: tuple[Hyperedge, ...] = ()
    forced: int | None = None
    distinguished: int | None = None
    charges: tuple[Fraction, ...] | None = None
    density: Fraction | None = None
    capacity_offset: Fraction | None = None


@dataclass(frozen=True)
class GadgetCutInterpretation:
    """A cut of an edge-split gadget read back as sets of the original instance.

    witness is W, the sink-side vertex set; edges_inside are exactly the
    edges contained in W; edges_spanning have only their entry node on
    the source side; edges_source have both split nodes there.  value
    is the gadget's set function at W: |W| - x(E[W]) for the polytope
    gadget, charge(W) - x(E[W]) for the supermodular one and
    density * |W| - |E[W]| for the arboricity one.
    """

    source_vertices: frozenset[int]
    witness: frozenset[int]
    edges_spanning: frozenset[int]
    edges_source: frozenset[int]
    edges_inside: frozenset[int]
    value: Fraction


def _split_section(arcs: list[tuple[int, int, Cap]], n: int, sink: int,
                   edges: Sequence[Hyperedge], halves: Sequence[Cap]) -> dict[int, tuple[int, int]]:
    # shared edge-split skeleton; vertex v sits at node 2 + v
    split: dict[int, tuple[int, int]] = {}
    nxt = 2 + n
    for e, half in zip(edges, halves):
        entry, exit_ = nxt, nxt + 1
        nxt += 2
        split[e.id] = (entry, exit_)
        arcs.append((entry, exit_, half))
        for u in e.vertices:
            arcs.append((2 + u, entry, INF))
            arcs.append((exit_, 2 + u, INF))
        arcs.append((entry, sink, half))
        arcs.append((exit_, sink, half))
    return split


def build_polytope_gadget(h: Hypergraph, x: EdgeVector, forced: int) -> GadgetGraph:
    """Cut network for minimizing |W| - x(E[W]) over vertex sets W containing `forced`.

    Every minimum cut has capacity x(E) plus that minimum, and its
    sink-side vertices attain it.  Requires 0 <= x <= 1 coordinatewise;
    out-of-box points are screened before ever building a gadget.
    """
    x.require_length(h.m, "point")
    if not 0 <= forced < h.n:
        raise ValueError("forced vertex out of range")
    for e in range(h.m):
        if not 0 <= x[e] <= 1:
            raise ValueError(f"point coordinate {e} outside [0, 1]")
    arcs: list[tuple[int, int, Cap]] = [(0, 2 + v, Fraction(1)) for v in range(h.n)]
    split = _split_section(arcs, h.n, 1, h.edges, [x[e.id] / 2 for e in h.edges])
    arcs.append((2 + forced, 1, INF))
    net = FlowNetwork(2 + h.n + 2 * h.m, tuple(arcs), 0, 1)
    return GadgetGraph(
        kind="polytope", network=net, source=0, sink=1,
        vertex_nodes={v: 2 + v for v in range(h.n)}, split_nodes=split,
        edge_ids=tuple(range(h.m)), edges=h.edges, forced=forced,
    )


def build_supermodular_gadget(h: Hypergraph, x: EdgeVector,
                              charges: Sequence[Fraction] | Mapping[int, Fraction],
                              forced: int,
                              edge_ids: Iterable[int] | None = None) -> GadgetGraph:
    """Cut network minimizing charge(W) - x(E[W]) over vertex sets W containing `forced`.

    Charges may be negative; a vertex with positive charge costs that
    much to keep out of W (source arc), a negative one pays to be in W
    (sink arc).  Ever-present layout: source arcs occupy positions
    0..n-1 and sink arcs positions n..2n-1 (the forced vertex's sink arc
    is the single infinite arc pinning it into W), so parametric callers
    can revise per-vertex capacities in place between solves.  Edge
    splits over the selected edges follow.  The minimum cut capacity is
    min over W of charge(W) - x(E[W]), plus x(selected) minus the total
    negative charge.
    """
    x.require_length(h.m, "weights")
    if not 0 <= forced < h.n:
        raise ValueError("forced vertex out of range")
    if isinstance(charges, Mapping):
        ch = [as_fraction(charges[v]) for v in range(h.n)]
    else:
        ch = [as_fraction(c) for c in charges]
        if len(ch) != h.n:
            raise ValueError("one charge per vertex required")
    ids = h._edge_id_list(edge_ids)
    edges = [h.edges[e] for e in ids]
    for e in ids:
        if x[e] < 0:
            raise ValueError(f"negative weight at edge {e}")
    zero = Fraction(0)
    arcs: list[tuple[int, int, Cap]] = [
        (0, 2 + v, ch[v] if ch[v] > 0 else zero) for v in range(h.n)
    ]
    for v in range(h.n):
        if v == forced:
            arcs.append((2 + v, 1, INF))
        else:
            arcs.append((2 + v, 1, -ch[v] if ch[v] < 0 else zero))
    split = _split_section(arcs, h.n, 1, edges, [x[e.id] / 2 for e in edges])
    net = FlowNetwork(2 + h.n + 2 * len(edges), tuple(arcs), 0, 1)
    return GadgetGraph(
        kind="cover", network=net, source=0, sink=1,
        vertex_nodes={v: 2 + v for v in range(h.n)}, split_nodes=split,
        edge_ids=tuple(ids), edges=tuple(edges), forced=forced,
        charges=tuple(ch),
    )


def build_arboricity_gadget(h: Hypergraph, density: Fraction,
                            forced: int | None = None) -> GadgetGraph:
    """Cut network minimizing density * |W| - |E[W]| over vertex sets W.

    Edge weight is 1 for every edge (halves of 1/2); each vertex costs
    `density` to keep out of W.  With a forced vertex the minimum ranges
    over W containing it, otherwise over all W including the empty set.
    Singleton edges are rejected: they would make the density objective
    count edges no vertex pair can share.
    """
    density = as_fraction(density)
    if density <= 0:
        raise ValueError("density must be positive")
    if forced is not None and not 0 <= forced < h.n:
        raise ValueError("forced vertex out of range")
    for e in h.edges:
        if e.is_loop:
            raise LoopPresentError(f"edge {e.id} is a singleton")
    half = Fraction(1, 2)
    arcs: list[tuple[int, int, Cap]] = [(0, 2 + v, density) for v in range(h.n)]
    split = _split_section(arcs, h.n, 1, h.edges, [half] * h.m)
    if forced is not None:
        arcs.append((2 + forced, 1, INF))
    net = FlowNetwork(2 + h.n + 2 * h.m, tuple(arcs), 0, 1)
    return GadgetGraph(
        kind="density", network=net, source=0, sink=1,
        vertex_nodes={v: 2 + v for v in range(h.n)}, split_nodes=split,
        edge_ids=tuple(range(h.m)), edges=h.edges, forced=forced,
        density=density,
    )


def build_independence_gadget(edges: Sequence[Hyperedge], distinguished: int) -> GadgetGraph:
    """Cut network testing whether a family stays independent with one more edge.

    The family is the given edges; `distinguished` is the id of the
    member under test (its source arc is infinite, the others carry 1).
    Each edge feeds its vertices through infinite arcs and each vertex
    of the union escapes to the sink for 1.  The minimum cut capacity
    minus the family size equals the smallest value of |union(F)| - |F|
    over sub-families F containing the distinguished edge.
    """
    ids = [e.id for e in edges]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate edge ids in family")
    if distinguished not in ids:
        raise ValueError("distinguished edge not in family")
    union = sorted({v for e in edges for v in e.vertices})
    vnode = {v: 2 + len(edges) + i for i, v in enumerate(union)}
    enode = {e.id: 2 + j for j, e in enumerate(edges)}
    arcs: list[tuple[int, int, Cap]] = []
    for e in edges:
        arcs.append((0, enode[e.id], INF if e.id == distinguished else Fraction(1)))
    for e in edges:
        for u in e.vertices:
            arcs.append((enode[e.id], vnode[u], INF))
    for v in union:
        arcs.append((vnode[v], 1, Fraction(1)))
    net = FlowNetwork(2 + len(edges) + len(union), tuple(arcs), 0, 1)
    return GadgetGraph(
        kind="independence", network=net, source=0, sink=1,
        vertex_nodes=vnode, edge_nodes=enode,
        edge_ids=tuple(ids), edges=tuple(edges), distinguished=distinguished,
    )


def interpret_gadget_cut(g: GadgetGraph, cut: CutResult,
                         x: EdgeVector | None = None) -> GadgetCutInterpretation:
    """Read an edge-split gadget cut back as vertex and edge sets.

    Verifies the structural facts every minimum cut of these gadgets
    must satisfy: the forced vertex lands in the witness, an edge sits
    fully sink-side exactly when it is contained in the witness, and
    the cut capacity matches the gadget's set function identity.
    """
    if g.kind not in ("polytope", "cover", "density"):
        raise ValueError(f"not an edge-split gadget: {g.kind}")
    offset = g.capacity_offset
    if offset is None:
        offset = _capacity_offset(g, x)
    side = cut.source_side
    source_vertices = frozenset(v for v, node in g.vertex_nodes.items() if node in side)
    witness = frozenset(g.vertex_nodes) - source_vertices
    spanning, on_source, inside = [], [], []
    for e in g.edges:
        entry, exit_ = g.split_nodes[e.id]
        if entry in side and exit_ in side:
            on_source.append(e.id)
        elif entry in side:
            spanning.append(e.id)
        else:
            assert exit_ not in side, "exit node on the source side without its entry"
            inside.append(e.id)
        # infinite wiring: a source-side vertex drags the entry node along,
        # and a source-side exit node drags every vertex of the edge
        if any(u in source_vertices for u in e.vertices):
            assert entry in side, "vertex on the source side but entry node is not"
        if exit_ in side:
            assert all(u in source_vertices for u in e.vertices)
    inside_set = frozenset(inside)
    assert inside_set == frozenset(
        e.id for e in g.edges if all(u in witness for u in e.vertices)
    ), "sink-side edges are not exactly the edges inside the witness"
    if g.forced is not None:
        assert g.forced in witness, "forced vertex escaped the witness"

    if g.kind == "density":
        assert g.density is not None
        value = g.density * len(witness) - len(inside_set)
    else:
        assert x is not None
        if g.kind == "polytope":
            charge_w = Fraction(len(witness))
        else:
            assert g.charges is not None
            charge_w = sum((g.charges[v] for v in witness), Fraction(0))
        value = charge_w - x.sum_over(inside_set)
    assert cut.capacity == value + offset, "capacity identity failed"
    return GadgetCutInterpretation(
        source_vertices=source_vertices, witness=witness,
        edges_spanning=frozenset(spanning), edges_source=frozenset(on_source),
        edges_inside=inside_set, value=value,
    )


def _capacity_offset(g: GadgetGraph, x: EdgeVector | None) -> Fraction:
    # the term of the capacity identity that no cut changes
    if g.kind == "polytope":
        assert x is not None, "polytope interpretation needs the point"
        return x.sum_over(g.edge_ids)
    if g.kind == "cover":
        assert x is not None and g.charges is not None
        return x.sum_over(g.edge_ids) - sum((c for c in g.charges if c < 0), Fraction(0))
    return Fraction(len(g.edges))


def forced_sweep(g: GadgetGraph, x: EdgeVector) -> Iterator[GadgetCutInterpretation]:
    """Minimum cuts of a supermodular gadget with each vertex forced in turn.

    One engine serves the whole sweep: between solves only the infinite
    sink arc moves, from one vertex's slot at n + v to the next.  Yields
    each vertex's cut, read back and checked, in vertex order.
    """
    if g.kind != "cover" or g.charges is None or g.forced is None:
        raise ValueError("forced sweeps need a supermodular gadget")
    n = len(g.charges)
    offset = _capacity_offset(g, x)
    engine = CutEngine(g.network)
    prev = g.forced
    for v in range(n):
        if v != prev:
            c = g.charges[prev]
            engine.set_capacity(n + prev, -c if c < 0 else Fraction(0))
            engine.set_capacity(n + v, INF)
            prev = v
        yield interpret_gadget_cut(replace(g, forced=v, capacity_offset=offset),
                                   engine.solve(), x)


def interpret_independence_cut(g: GadgetGraph, cut: CutResult) -> tuple[int, frozenset[int]]:
    """Read an independence gadget cut: (deficiency, chosen sub-family).

    The deficiency is |union(F)| - |F| minimized over sub-families F
    containing the distinguished edge; the family testing positive for
    independence is exactly deficiency >= 1.
    """
    if g.kind != "independence":
        raise ValueError("not an independence gadget")
    side = cut.source_side
    family = frozenset(e for e, node in g.edge_nodes.items() if node in side)
    assert g.distinguished in family, "distinguished edge escaped the source side"
    chosen_union = {v for e in g.edges if e.id in family for v in e.vertices}
    source_vertices = {v for v, node in g.vertex_nodes.items() if node in side}
    assert source_vertices == chosen_union, "metered vertices differ from the family union"
    value = cut.capacity - len(g.edge_ids)
    assert value.denominator == 1, "independence deficiency must be integral"
    assert value == len(chosen_union) - len(family), "deficiency identity failed"
    return int(value), family
