"""Exact minimum s-t cut on directed networks with rational or infinite capacities.

CutEngine runs Dinic's blocking-flow method on integers after clearing
denominators, so every comparison is exact.  Infinite capacities stay
symbolic: an infinite residual admits flow but never shrinks, and when
every s-t cut would have to cross an infinite arc the engine raises
NoFiniteCutError instead of inventing a large finite stand-in.

Each phase labels nodes by their residual distance to the sink, searching
backwards from the sink and stopping as soon as the source is labelled;
a depth-first search from the source then augments along arcs that step
one unit closer to the sink, marking dead ends as it backs out of them.
In the networks this package builds every vertex has a large source
charge, so a search from the source fans out to nearly every node while
only a few still have room to the sink; the backward search touches
those few.  The engine keeps the terminal arcs that still have room, out
of the source and into the sink, as the flow and the revisions change
them.  A phase starts only while one of the former is left: when none
is, the flow is already maximum, and a warm re-solve whose revisions
opened nothing runs no phase at all.  The backward search starts from
the latter, not from every arc into the sink.

The engine is incremental.  Callers revise only arcs incident to the
source or the sink and solve again; the flow of the previous solve is
kept and only augmented.  A revision that leaves an arc carrying more
than its new capacity raises both terminal arcs of that vertex by the
excess (the shift of Gallo, Grigoriadis and Tarjan, SIAM J. Comput.
18(1), 1989).  That adds one constant to every finite cut, so the kept
flow stays feasible and the minimum cuts stay the same; the reported
capacity is the flow minus the accumulated shift, checked in integers
against the capacities of the arcs the cut crosses.

The reported cut is the set of nodes reachable from the source in the
final residual network.  Any maximum flow saturates every minimum cut,
so that set lies inside each minimum cut's source side and is itself
one: it is the unique inclusion-minimal minimum cut, whichever maximum
flow was reached and however the phases were layered.  Callers rely on
that for deterministic tie-breaking.  One forward search after the last
phase finds it, and the check of its capacity walks the side with fewer
nodes: the arcs out of the reached nodes, or the arcs into the
unreached ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .core import as_fraction


class _Infinity:
    """Symbolic infinite capacity: compares above every rational, saturates."""

    __slots__ = ()
    _instance = None

    def __new__(cls) -> "_Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INF"

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("hypermat.INF")

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return other is self

    def __gt__(self, other: object) -> bool:
        return other is not self

    def __ge__(self, other: object) -> bool:
        return True

    def __add__(self, other: object) -> "_Infinity":
        return self

    __radd__ = __add__

    def __bool__(self) -> bool:
        return True


INF = _Infinity()

Cap = Union[int, Fraction, _Infinity]


def _check_cap(cap: object) -> Cap:
    if cap is INF:
        return INF
    if type(cap) is not int:
        cap = as_fraction(cap)  # type: ignore[arg-type]
    if cap < 0:
        raise ValueError(f"negative capacity {cap}")
    return cap


@dataclass(frozen=True)
class FlowNetwork:
    """A directed network with a distinguished source and sink.

    Arcs are (tail, head, capacity) triples, each capacity a nonnegative
    int (kept as one), another rational (made a Fraction) or INF; parallel
    arcs and self-loops (which never carry useful flow) are permitted.
    """

    node_count: int
    arcs: tuple[tuple[int, int, Cap], ...]
    source: int
    sink: int

    def __post_init__(self) -> None:
        if not (0 <= self.source < self.node_count and 0 <= self.sink < self.node_count):
            raise ValueError("source or sink out of range")
        if self.source == self.sink:
            raise ValueError("source equals sink")
        checked = []
        for tail, head, cap in self.arcs:
            if not (0 <= tail < self.node_count and 0 <= head < self.node_count):
                raise ValueError(f"arc ({tail}, {head}) out of range")
            checked.append((tail, head, _check_cap(cap)))
        object.__setattr__(self, "arcs", tuple(checked))


def _rational(num: int, scale: int) -> int | Fraction:
    """num / scale, an int when it is whole."""
    return num // scale if num % scale == 0 else Fraction(num, scale)


@dataclass(frozen=True)
class CutResult:
    """The inclusion-minimal minimum s-t cut and its capacity.

    source_side is the nodes reachable from the source in the final
    residual network; capacity is an int when it is whole and a Fraction
    otherwise.
    """

    source_side: frozenset[int]
    capacity: int | Fraction


class NoFiniteCutError(RuntimeError):
    """Every s-t cut crosses an arc of infinite capacity."""

    def __init__(self, message: str = "every s-t cut crosses an infinite arc") -> None:
        super().__init__(message)


class CutEngine:
    """Exact min-cut engine over one network, re-solved after terminal revisions.

    Residual slots 2*i and 2*i+1 belong to arc i: the forward slot holds
    what arc i can still take (-1 marks a symbolically infinite arc, which
    admits flow but is never decremented), the backward slot the flow on
    it.  `caps[i]` is the capacity of arc i (-1 for INF).  Every value is
    an integer over the common denominator `scale`, 1 for int capacities.

    open_source holds the forward slots out of the source that still
    have room, and open_sink the slots at the sink whose arc into it
    still has room.  Augmenting paths and revisions keep both up to date.

    solve() layers each phase by residual distance to the sink, searching
    back from the arcs in open_sink, augments along arcs one unit closer
    to it, and stops once open_source is empty or the backward search
    cannot reach the source.  Then one forward search from the source
    gives the source side of the inclusion-minimal cut.  The capacities
    of the arcs leaving it must sum to the flow minus the shift.  That
    sum runs over the smaller side of the cut: the out-slots of the
    reached nodes when they are at most half of all nodes, else the
    in-slots of the unreached ones.  An infinite arc across the cut fails
    the check.

    inf_from_source counts the infinite arcs leaving the source.  Only a
    path of infinite arcs out of the source can leave no finite cut, so
    solve() searches for one only while that count is nonzero.

    The residuals, the flow and the scale persist between solves, so
    solve() only augments what the latest revisions opened up.  Only arcs
    incident to the source or the sink may be revised.  When a revision
    leaves arc (s, v) or (v, t) carrying more than its new capacity, both
    terminal arcs of v are raised by the excess (Gallo, Grigoriadis and
    Tarjan's shift).  Every finite cut crosses exactly one of the two, so
    all finite cuts rise by the same constant: the flow stays feasible,
    the minimizers stay the same, and the true capacity is the flow minus
    the accumulated shift.  A vertex lacking the partner arc gets a hidden
    zero-capacity one.
    """

    def __init__(self, network: FlowNetwork) -> None:
        self.n = network.node_count
        s = self.s = network.source
        t = self.t = network.sink
        arcs = network.arcs
        self.arc_count = len(arcs)
        self.tails = [a[0] for a in arcs]
        self.heads = [a[1] for a in arcs]
        scale = 1
        for _, _, c in arcs:
            if c is not INF:
                d = c.denominator
                if d != 1:
                    scale = scale * d // math.gcd(scale, d)
        self.scale = scale
        # each capacity as an integer over `scale`, -1 for INF
        self.caps = [-1 if c is INF else c.numerator * (scale // c.denominator)
                     for _, _, c in arcs]
        self.res = [0] * (2 * len(arcs))
        self.res[::2] = self.caps
        self.extra = [0] * len(arcs)  # shift each arc carries, over `scale`
        self.flow = 0
        self.shift = 0
        self.inf_from_source = sum(1 for tail, head, c in arcs
                                   if tail == s and head != s and c is INF)
        # the terminal arcs of each vertex that absorb its shifts, and the
        # terminal slots that still have room
        source_arc: dict[int, int] = {}
        sink_arc: dict[int, int] = {}
        open_source: set[int] = set()
        open_sink: set[int] = set()
        caps = self.caps
        for i, (tail, head, _) in enumerate(arcs):
            if tail == s:
                if caps[i]:
                    open_source.add(2 * i)
                if head != t and head != s:
                    source_arc.setdefault(head, i)
            if head == t:
                if caps[i]:
                    open_sink.add(2 * i + 1)
                if tail != s and tail != t:
                    sink_arc.setdefault(tail, i)
        self.source_arc, self.sink_arc = source_arc, sink_arc
        self.open_source, self.open_sink = open_source, open_sink
        self._index()

    def _index(self) -> None:
        m = len(self.tails)
        self.to = [0] * (2 * m)
        self.slots: list[list[int]] = [[] for _ in range(self.n)]  # residual slots out of each node
        for i in range(m):
            self.to[2 * i] = self.heads[i]
            self.to[2 * i + 1] = self.tails[i]
            self.slots[self.tails[i]].append(2 * i)
            self.slots[self.heads[i]].append(2 * i + 1)

    def _partner(self, v: int, sink_side: bool) -> int:
        """The terminal arc of v on the other side, made at zero capacity if missing.

        A made arc is finite, so inf_from_source stays as it is.
        """
        table = self.sink_arc if sink_side else self.source_arc
        arc = table.get(v)
        if arc is None:
            arc = table[v] = len(self.tails)
            tail, head = (v, self.t) if sink_side else (self.s, v)
            self.tails.append(tail)
            self.heads.append(head)
            self.caps.append(0)
            self.res += [0, 0]
            self.extra.append(0)
            # the slots _index() would give the newest arc
            self.to += [head, tail]
            self.slots[tail].append(2 * arc)
            self.slots[head].append(2 * arc + 1)
        return arc

    def _rescale(self, scale: int) -> None:
        k = scale // self.scale
        self.res[:] = [r if r == -1 else r * k for r in self.res]
        self.caps[:] = [c if c == -1 else c * k for c in self.caps]
        self.extra[:] = [e * k for e in self.extra]
        self.flow *= k
        self.shift *= k
        self.scale = scale

    def set_capacity(self, arc: int, cap: object) -> None:
        """Revise the capacity of an arc incident to the source or the sink."""
        if not 0 <= arc < self.arc_count:
            raise ValueError(f"arc index {arc} out of range")
        s, t = self.s, self.t
        tail, head = self.tails[arc], self.heads[arc]
        if tail != s and tail != t and head != s and head != t:
            raise ValueError(f"arc {arc} is not incident to the source or sink")
        cap = _check_cap(cap)
        if tail == s and head != s:
            self.inf_from_source += (cap is INF) - (self.caps[arc] == -1)
        res = self.res
        if cap is INF:
            self.caps[arc] = room = -1
        else:
            d = cap.denominator
            if self.scale % d:
                self._rescale(self.scale * d // math.gcd(self.scale, d))
            c = self.caps[arc] = cap.numerator * (self.scale // d)
            room = c + self.extra[arc] - res[2 * arc + 1]
            if room < 0:
                # only arcs leaving s or entering t ever carry flow
                if tail == s and head == t:
                    # a direct arc is a flow path of its own: drop the excess
                    res[2 * arc + 1] += room
                    self.flow += room
                else:
                    partner = self._partner(head if tail == s else tail, tail == s)
                    self.extra[arc] -= room
                    self.extra[partner] -= room
                    if res[2 * partner] != -1:
                        res[2 * partner] -= room
                    self.shift -= room
                    # the raised partner has room now
                    if tail == s:
                        self.open_sink.add(2 * partner + 1)
                    else:
                        self.open_source.add(2 * partner)
                room = 0
        res[2 * arc] = room
        if tail == s:
            (self.open_source.add if room else self.open_source.discard)(2 * arc)
        if head == t:
            (self.open_sink.add if room else self.open_sink.discard)(2 * arc + 1)

    def _infinite_reach(self) -> bytearray:
        seen = bytearray(self.n)
        seen[self.s] = 1
        stack = [self.s]
        caps, slots, to = self.caps, self.slots, self.to
        while stack:
            v = stack.pop()
            for a in slots[v]:
                if a & 1:
                    continue  # only forward slots carry input capacity
                if caps[a >> 1] == -1:
                    w = to[a]
                    if not seen[w]:
                        seen[w] = 1
                        stack.append(w)
        return seen

    def solve(self) -> CutResult:
        """Augment to a maximum flow; return the inclusion-minimal minimum cut.

        Raises NoFiniteCutError, leaving the flow as it was, when every
        s-t cut crosses an infinite arc.
        """
        n, s, t = self.n, self.s, self.t
        if self.inf_from_source and self._infinite_reach()[t]:
            raise NoFiniteCutError()
        res, to, slots = self.res, self.to, self.slots
        open_source, open_sink = self.open_source, self.open_sink
        flow = self.flow
        # with no residual arc out of s the flow is already maximum
        while open_source:
            # label nodes by residual distance to t, searching backwards:
            # slot b of w leads back to to[b] when to[b] -> w has room
            dist = [-1] * n
            dist[t] = 0
            queue = []
            for b in open_sink:
                v = to[b]
                if dist[v] < 0:
                    dist[v] = 1
                    queue.append(v)
            for w in queue:  # the loop visits what it appends
                if dist[s] >= 0:
                    break  # every label below s's is complete
                dv = dist[w] + 1
                for b in slots[w]:
                    if res[b ^ 1] != 0:
                        v = to[b]
                        if dist[v] < 0:
                            dist[v] = dv
                            queue.append(v)
            if dist[s] < 0:
                break
            # a shortest path exists, so the phase must augment along it
            phase_start = flow
            it = [0] * n
            path: list[int] = []
            v = s
            while True:
                if v == t:
                    bottleneck = -1
                    for a in path:
                        r = res[a]
                        if r != -1 and (bottleneck == -1 or r < bottleneck):
                            bottleneck = r
                    assert bottleneck > 0, "augmenting path with no finite arc"
                    for a in path:
                        if res[a] != -1:
                            res[a] -= bottleneck
                        b = a ^ 1
                        if res[b] != -1:
                            res[b] += bottleneck
                    # only the path's first and last arcs are terminal ones
                    if not res[path[0]]:
                        open_source.discard(path[0])
                    if not res[path[-1]]:
                        open_sink.discard(path[-1] ^ 1)
                    flow += bottleneck
                    path = []
                    v = s
                    continue
                out = slots[v]
                i, end, dw = it[v], len(out), dist[v] - 1
                while i < end:
                    a = out[i]
                    if res[a] != 0 and dist[to[a]] == dw:
                        break
                    i += 1
                it[v] = i
                if i < end:
                    path.append(a)
                    v = to[a]
                    continue
                if v == s:
                    assert flow > phase_start, "phase with the source labelled found no path"
                    break
                dist[v] = -1  # dead end for the rest of this phase
                a = path.pop()
                v = to[a ^ 1]
                it[v] += 1
        self.flow = flow
        caps = self.caps

        # the nodes reachable from s in the final residual network
        seen = bytearray(n)
        seen[s] = 1
        queue = [s]
        for v in queue:
            for a in slots[v]:
                if res[a] != 0:
                    w = to[a]
                    if not seen[w]:
                        seen[w] = 1
                        queue.append(w)
        # the arcs the cut crosses, found from the side with fewer nodes:
        # forward slots of reached nodes leading to unreached ones (k = 0),
        # or backward slots of unreached nodes leading to reached ones (k = 1)
        k = 0 if 2 * len(queue) <= n else 1
        capacity = 0
        for v in set(range(n)).difference(queue) if k else queue:
            for a in slots[v]:
                if (a & 1) == k and seen[to[a]] == k:
                    c = caps[a >> 1]
                    assert c != -1, "minimum cut crosses an infinite arc"
                    capacity += c
        assert capacity == flow - self.shift, "max-flow / min-cut mismatch"
        return CutResult(frozenset(queue), _rational(capacity, self.scale))


def min_st_cut(network: FlowNetwork) -> CutResult:
    """Minimum s-t cut with the inclusion-minimal source side.

    Raises NoFiniteCutError when no finite-capacity cut separates the
    source from the sink.
    """
    return CutEngine(network).solve()
