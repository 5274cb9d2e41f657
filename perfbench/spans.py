"""Span tracing around the hypermat layer boundaries, installed at run time.

Nothing inside the package changes.  `Tracer.installed()` replaces, for
the duration of a `with` block:

* every public function of each layer module, in every `hypermat.*`
  namespace that holds it (found by object identity, because callers bind
  names with `from .mincut import ...`);
* the edge queries and the `Partition` and `FlowNetwork` validation of
  the core representation;
* `solve` and `__init__` of the flow-solver class defined in `mincut`.

Each call records a span (name, start, end, parent span, benchmark call
id, note) in memory.  A boundary that no longer exists is skipped, and
the metrics built on it are reported as absent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterator

LAYERS = ("core", "mincut", "gadgets", "partition_oracle", "matroid", "packing",
          "reinforcement", "cli")

# Per-value conversions, called once per arc or number: spans there would
# cost more than the work they time, and they are no layer boundary.
VALUE_HELPERS = {"as_fraction", "format_rational"}

# (module, class, method) -> span name
METHODS = {
    ("core", "Hypergraph", "cross_edges"): "core.cross_edges",
    ("core", "Hypergraph", "induced_edges"): "core.induced_edges",
    ("core", "Partition", "__post_init__"): "core.partition",
    ("mincut", "FlowNetwork", "__post_init__"): "mincut.network",
}

# The seven operations, as the benchmark labels their calls.
OPERATIONS = ("rank", "independent", "maxforest", "separate", "strength", "arboricity",
              "reinforce")

SOLVE = "mincut.solve"
BENCH = "bench"


def _solver(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"arcs": len(args[0].caps)}


def _gadget(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"arcs": len(result.network.arcs)}


def _arboricity_gadget(args: tuple, kwargs: dict, result: Any) -> dict:
    forced = kwargs["forced"] if "forced" in kwargs else (args[2] if len(args) > 2 else None)
    return {"arcs": len(result.network.arcs), "forced": int(forced is not None)}


def _accepted(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"accepted": int(bool(result))}


def _rounds(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"rounds": int(result.iterations)}


def _reinforce(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"rounds": len(result.dual.tight_edges), "merges": len(result.merges)}


# span name -> note, a dict of counts taken from (args, kwargs, result);
# every other gadgets.build_* span notes its arc count with _gadget
NOTES: dict[str, Callable[[tuple, dict, Any], dict]] = {
    SOLVE: _solver,
    "gadgets.build_arboricity_gadget": _arboricity_gadget,
    "matroid.independence_test_incremental": _accepted,
    "packing.strength": _rounds,
    "packing.arboricity": _rounds,
    "reinforcement.reinforce": _reinforce,
}

# Spans: [name, start, end, parent index, call id, note, raised exception name]
NAME, START, END, PARENT, CALL, NOTE, RAISED = range(7)


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: list[str] = []  # benchmark call id -> label
        self.boundaries: set[str] = set()
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, calls = self.spans, self._stack, self.calls
        note = NOTES.get(name, _gadget if name.startswith("gadgets.build_") else None)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, len(calls) - 1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = perf_counter()
                rec[RAISED] = type(exc).__name__
                raise
            finally:
                stack.pop()
            rec[END] = perf_counter()
            if note is not None:
                try:
                    rec[NOTE] = note(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    pass
            return result

        return wrapper

    def call(self, label: str, fn: Callable[[], Any]) -> Any:
        """Issue one benchmark call under a root span that names its label."""
        self.calls.append(label)
        return self._wrap(BENCH, fn)()

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        undo: list[tuple[Any, str, Any]] = []

        def patch(owner: Any, attr: str, new: Any) -> None:
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        namespaces = [mod for name, mod in list(sys.modules.items())
                      if name == "hypermat" or name.startswith("hypermat.")]
        try:
            for layer in LAYERS:
                mod = importlib.import_module(f"hypermat.{layer}")
                for attr, obj in list(vars(mod).items()):
                    if (attr.startswith("_") or attr in VALUE_HELPERS
                            or not inspect.isfunction(obj) or obj.__module__ != mod.__name__):
                        continue
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    self.boundaries.add(f"{layer}.{attr}")
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                patch(ns, key, wrapped)
            for (layer, cls_name, method), span in METHODS.items():
                cls = getattr(importlib.import_module(f"hypermat.{layer}"), cls_name, None)
                if cls is not None and method in cls.__dict__:
                    patch(cls, method, self._wrap(span, cls.__dict__[method]))
                    self.boundaries.add(span)
            mincut = importlib.import_module("hypermat.mincut")
            for obj in list(vars(mincut).values()):
                if (isinstance(obj, type) and obj.__module__ == mincut.__name__
                        and "solve" in obj.__dict__):
                    patch(obj, "solve", self._wrap(SOLVE, obj.__dict__["solve"]))
                    self.boundaries.add(SOLVE)
                    if "__init__" in obj.__dict__:
                        init = obj.__dict__["__init__"]
                        patch(obj, "__init__", self._wrap("mincut.network", init))
                        self.boundaries.add("mincut.network")
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

    def write(self, path: str) -> None:
        """Write the spans out, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "parent": rec[PARENT], "call_id": rec[CALL],
                    "call": self.calls[rec[CALL]] if rec[CALL] >= 0 else None,
                    "note": rec[NOTE], "raised": rec[RAISED],
                }) + "\n")


class Summary:
    """Busy time, self time, counts and notes aggregated from one tracer's spans."""

    def __init__(self, tracer: Tracer) -> None:
        spans = tracer.spans
        self.boundaries = tracer.boundaries
        self.spans = spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        self.busy: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)  # by layer
        self.by_label: dict[str, dict[str, float]] = {}  # call time and solves per call label
        for i, rec in enumerate(spans):
            name = rec[NAME]
            dur = rec[END] - rec[START]
            self.count[name] += 1
            self.self_s[name.split(".")[0]] += dur - child[i]
            p = rec[PARENT]
            while p >= 0 and spans[p][NAME] != name:
                p = spans[p][PARENT]
            if p < 0:  # outermost span of its name
                self.busy[name] += dur
            if rec[CALL] >= 0 and name in (BENCH, SOLVE):
                row = self.by_label.setdefault(tracer.calls[rec[CALL]],
                                               {"total": 0.0, "solves": 0, "in_solve": 0.0})
                if name == BENCH:
                    row["total"] += dur
                else:
                    row["solves"] += 1
                    row["in_solve"] += dur

    def has(self, *names: str) -> bool:
        return all(n in self.boundaries for n in names)

    def note_total(self, name: str, key: str) -> float | None:
        """Sum of one note entry over the spans of `name`; None if a note is missing."""
        total = 0
        for rec in self.spans:
            if rec[NAME] == name and rec[RAISED] is None:
                if rec[NOTE] is None or key not in rec[NOTE]:
                    return None
                total += rec[NOTE][key]
        return total

    def children(self, parent_name: str, name: str) -> int:
        """Spans of `name` whose direct parent is a span of `parent_name`."""
        spans = self.spans
        return sum(1 for rec in spans if rec[NAME] == name and rec[PARENT] >= 0
                   and spans[rec[PARENT]][NAME] == parent_name)


def layer_metrics(s: Summary) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    A metric whose boundary is gone, or whose note could not be taken,
    is left out.
    """
    m: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float | None, unit: str, *needs: str) -> None:
        if value is not None and needs and s.has(*needs):
            m[name] = (value, unit)

    def ratio(a: float | None, b: float) -> float | None:
        return None if a is None else (a / b if b else 0.0)

    def note_sum(names: list[str], key: str) -> float | None:
        parts = [s.note_total(n, key) for n in names]
        return None if None in parts else sum(parts)

    solves = s.count[SOLVE]
    put("mincut.solves", solves, "count", SOLVE)
    put("mincut.solve.busy_s", s.busy[SOLVE], "s", SOLVE)
    put("mincut.arcs_per_solve", ratio(s.note_total(SOLVE, "arcs"), solves), "count", SOLVE)
    put("mincut.no_finite_cut", sum(1 for r in s.spans
                                    if r[NAME] == SOLVE and r[RAISED] == "NoFiniteCutError"),
        "count", SOLVE)
    put("mincut.network.busy_s", s.busy["mincut.network"], "s", "mincut.network")

    builds = sorted(b for b in s.boundaries if b.startswith("gadgets.build_"))
    put("gadgets.builds", sum(s.count[b] for b in builds), "count", *builds)
    put("gadgets.build.busy_s", sum(s.busy[b] for b in builds), "s", *builds)
    put("gadgets.arcs_built", note_sum(builds, "arcs"), "count", *builds)
    interprets = sorted(b for b in s.boundaries if b.startswith("gadgets.interpret_"))
    put("gadgets.interpret.calls", sum(s.count[b] for b in interprets), "count", *interprets)
    put("gadgets.interpret.busy_s", sum(s.busy[b] for b in interprets), "s", *interprets)

    oracle = "partition_oracle.min_partition"
    put("partition_oracle.calls", s.count[oracle], "count", oracle)
    put("partition_oracle.pivots", s.children(oracle, SOLVE), "count", oracle, SOLVE)
    put("partition_oracle.self_s", s.self_s["partition_oracle"], "s", oracle)

    test = "matroid.independence_test_incremental"
    put("matroid.independence_tests", s.count[test], "count", test)
    put("matroid.independence_accept_ratio",
        ratio(s.note_total(test, "accepted"), s.count[test]), "ratio", test)
    put("matroid.self_s", s.self_s["matroid"], "s", "matroid.rank")

    put("packing.strength_rounds", s.note_total("packing.strength", "rounds"), "count",
        "packing.strength")
    put("packing.arboricity_rounds", s.note_total("packing.arboricity", "rounds"), "count",
        "packing.arboricity")
    put("packing.arboricity_sweep_cuts",
        s.note_total("gadgets.build_arboricity_gadget", "forced"), "count",
        "gadgets.build_arboricity_gadget")
    put("packing.self_s", s.self_s["packing"], "s", "packing.strength")

    rf = "reinforcement.reinforce"
    put("reinforcement.rounds", s.note_total(rf, "rounds"), "count", rf)
    put("reinforcement.merges", s.note_total(rf, "merges"), "count", rf)
    put("reinforcement.subproblem_solves", s.children(rf, oracle), "count", rf, oracle)
    put("reinforcement.canonicalize.busy_s", s.busy["reinforcement.canonicalize_merge"], "s",
        "reinforcement.canonicalize_merge")
    put("reinforcement.self_s", s.self_s["reinforcement"], "s", rf)

    for key in ("cross_edges", "induced_edges"):
        put(f"core.{key}.calls", s.count[f"core.{key}"], "count", f"core.{key}")
        put(f"core.{key}.busy_s", s.busy[f"core.{key}"], "s", f"core.{key}")
    put("core.partition.builds", s.count["core.partition"], "count", "core.partition")
    put("core.partition.busy_s", s.busy["core.partition"], "s", "core.partition")
    put("core.parse.busy_s", s.busy["core.parse_hypergraph"], "s", "core.parse_hypergraph")

    put("cli.calls", s.count["cli.main"], "count", "cli.main")
    put("cli.self_s", s.self_s["cli"], "s", "cli.main")

    for op in OPERATIONS:
        row = s.by_label.get(op, {"total": 0.0, "solves": 0, "in_solve": 0.0})
        put(f"{op}.solves", row["solves"], "count", SOLVE)
        put(f"{op}.in_solve_s", row["in_solve"], "s", SOLVE)
        put(f"{op}.outside_solve_s", row["total"] - row["in_solve"], "s", SOLVE)
    return m
