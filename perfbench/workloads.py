"""The three benchmark workloads.

A workload sets up its inputs from a seed, lists the calls of one pass
(label, thunk), and checks the answers of a pass.  Every thunk reaches
hypermat through a module attribute looked up at call time, so the traced
run sees the wrappers that `spans.Tracer` installs.
"""

from __future__ import annotations

import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import hypermat as hm
import hypermat.cli
from hypermat import brute

import checks
from instances import (
    CRIT9_SEED,
    crit9_instance,
    small_instance_text,
    small_instances,
    wide_instance,
)
from spans import OPERATIONS

Call = tuple[str, Callable[[], Any]]

REFUSED = object()  # an oracle's size guard declined the instance


class Raised:
    """Stands in for the answer of a call that raised."""

    def __init__(self, exc: BaseException) -> None:
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Raised) and other.text == self.text

    def __repr__(self) -> str:
        return f"Raised({self.text})"


def canonical(x: Any) -> Any:
    """A comparable form of an answer, independent of set iteration order."""
    if isinstance(x, hm.Hypergraph):
        return ("Hypergraph", x.n, tuple(e.vertices for e in x.edges))
    if isinstance(x, hm.EdgeVector):
        return ("EdgeVector", x.values)
    if is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__, tuple(canonical(getattr(x, f.name)) for f in fields(x)))
    if isinstance(x, (set, frozenset)):
        return ("set", tuple(sorted(canonical(v) for v in x)))
    if isinstance(x, (list, tuple)):
        return tuple(canonical(v) for v in x)
    return x


def _check_each(answers: list[Any],
                checkers: list[Callable[[Any], str | None]]) -> list[str | None]:
    return [repr(a) if isinstance(a, Raised) else check(a) for a, check in zip(answers, checkers)]


class Crit9:
    """All seven operations on each of a few criterion-9 shaped instances per pass.

    Instance j of seed s is `crit9_instance(s + 104729 * j)`, so instance 0
    at the default seed and size is the criterion-9 instance itself.  Two
    instances per pass halve the share of any one instance's Newton
    rounds and sweeps in the pass.
    """

    name = "crit9"

    def __init__(self, n: int = 60, m: int = 300, count: int = 2) -> None:
        self.n, self.m, self.count = n, m, count
        self.skipped = 0

    def setup(self, seed: int) -> None:
        self.insts = [crit9_instance(seed + 104729 * j, self.n, self.m) for j in range(self.count)]

    def calls(self) -> list[Call]:
        out: list[Call] = []
        for i in self.insts:
            out += [
                ("rank", lambda i=i: hm.rank(i.h)),
                ("independent", lambda i=i: hm.is_independent(i.h)),
                ("maxforest", lambda i=i: hm.max_weight_hyperforest(i.h, i.weights)),
                ("separate", lambda i=i: hm.separate_polytope(i.h, i.point)),
                ("strength", lambda i=i: hm.strength(i.h)),
                ("arboricity", lambda i=i: hm.arboricity(i.h)),
                ("reinforce", lambda i=i: hm.reinforce(i.h, 1, i.costs)),
            ]
        return out

    def check(self, answers: list[Any]) -> list[str | None]:
        out: list[str | None] = []
        for j, i in enumerate(self.insts):
            own = answers[7 * j:7 * j + 7]
            h = i.h
            rank_value = None if isinstance(own[0], Raised) else own[0].rank
            out += _check_each(own, [
                lambda a: checks.check_rank(h, a),
                lambda a: checks.check_independent(h, a, rank_value),
                lambda a: checks.check_maxforest(h, i.weights, a, rank_value),
                lambda a: checks.check_separate(h, i.point, a),
                lambda a: checks.check_strength(h, a),
                lambda a: checks.check_arboricity(h, a),
                lambda a: checks.check_reinforce(h, i.costs, 1, a),
            ])
        return out

    def close(self) -> None:
        pass


# answers measured on the criterion-9 instance itself (CRIT9_SEED, n=200, m=1000)
CRIT9_KNOWN = {
    "rank": 199,
    "independent": False,
    "maxforest": Fraction(1863),
    "strength": Fraction(1000, 199),
    "arboricity": Fraction(1000, 199),
    "reinforce": "optimal",
}


def crit9_known_answers(answers: list[Any]) -> dict[str, Any]:
    """The headline value of each known answer, for comparison with CRIT9_KNOWN."""
    rank_res, ok, forest, _, stren, arb, rein = answers[:7]
    return {"rank": rank_res.rank, "independent": ok, "maxforest": forest[1],
            "strength": stren.sigma, "arboricity": arb.rho, "reinforce": rein.status}


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = hypermat.cli.main(argv)
    return code, out.getvalue()


class SmallCli:
    """Every subcommand, in-process through `hypermat.cli.main`, on many small files."""

    name = "small_cli"

    def __init__(self, count: int = 150, workdir: Path | None = None) -> None:
        self.count = count
        self.workdir = workdir
        self.dir: str | None = None
        self.seed: int | None = None
        self.skipped = 0
        self._expected: dict[int, list[Any]] = {}

    def setup(self, seed: int) -> None:
        self.close()
        if seed != self.seed:  # the same seed makes the same instances
            self._expected.clear()
            self.seed = seed
        self.insts = small_instances(seed, self.count)
        if self.workdir is not None:
            self.workdir.mkdir(parents=True, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="small_cli-", dir=self.workdir)
        self.files = []
        for j, inst in enumerate(self.insts):
            path = f"{self.dir}/{j}.hg"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(small_instance_text(inst))
            self.files.append(path)

    def calls(self) -> list[Call]:
        out: list[Call] = []
        for inst, f in zip(self.insts, self.files):
            subset = ",".join(map(str, inst.subset))
            for argv in (["rank", "--json", f], ["independent", "--json", "--set", subset, f],
                         ["maxforest", "--json", f], ["separate", "--json", f],
                         ["strength", "--json", f], ["arboricity", "--json", f],
                         ["reinforce", "--json", "-k", "1", f]):
                out.append((argv[0], lambda argv=argv: _run_cli(argv)))
        return out

    def _oracle(self, j: int) -> list[Any]:
        """Expected answers of instance j, one per subcommand, or REFUSED."""
        if j in self._expected:
            return self._expected[j]
        inst = self.insts[j]
        h = hm.Hypergraph(inst.n, inst.edges)
        col = hm.EdgeVector(inst.values)

        def ask(fn: Callable[[], Any]) -> Any:
            try:
                return fn()
            except ValueError:  # the oracle's size guard
                return REFUSED

        exp = [
            ask(lambda: brute.brute_rank(h)),
            ask(lambda: brute.brute_hyperforest(h, inst.subset)),
            ask(lambda: checks.forest_weight_oracle(h, col)),
            ask(lambda: checks.in_polytope_oracle(h, col)),
            ask(lambda: brute.brute_strength(h, col)[0]),
            ask(lambda: brute.brute_arboricity(h)[0]),
            ask(lambda: checks.reinforce_oracle(inst.n, inst.edges, col, inst.bounds)),
        ]
        self._expected[j] = exp
        return exp

    def check(self, answers: list[Any]) -> list[str | None]:
        out: list[str | None] = []
        for idx, answer in enumerate(answers):
            j, op = divmod(idx, 7)
            expected = self._oracle(j)[op]
            if expected is REFUSED:
                self.skipped += 1
                out.append(None)
            else:
                out.append(self._check_one(op, answer, expected))
        return out

    @staticmethod
    def _check_one(op: int, answer: Any, expected: Any) -> str | None:
        if isinstance(answer, Raised):
            return repr(answer)
        code, text = answer
        if op == 6 and expected is None:
            return None if code == 2 and json.loads(text)["status"] == "infeasible" \
                else "reinforce should be infeasible"
        if code != 0:
            return f"exit code {code}"
        got = json.loads(text)
        value: Any
        if op == 0:
            value = got["rank"]
        elif op == 1:
            value = got["independent"]
        elif op == 2:
            value = Fraction(got["weight"])
        elif op == 3:
            value = got["in_polytope"]
            v = got.get("violation", {})
            if v.get("kind") == "set" and not Fraction(v["lhs"]) > v["rhs"]:
                return "set violation with lhs <= rhs"
        elif op == 4:
            value = Fraction(got["strength"])
        elif op == 5:
            value = Fraction(got["arboricity"])
        else:
            value = Fraction(got["cost"])
        return None if value == expected else f"{OPERATIONS[op]}: got {value}, oracle {expected}"

    def close(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None


class WideCore:
    """Load, partition building and edge queries on one large sparse hypergraph."""

    name = "wide_core"

    def __init__(self, n: int = 6000) -> None:
        self.n = n
        self.skipped = 0

    def setup(self, seed: int) -> None:
        self.inst = wide_instance(seed, self.n)

    def calls(self) -> list[Call]:
        i, st = self.inst, {}

        def build() -> Any:
            st["h"] = hm.Hypergraph(i.n, i.edges)
            return st["h"]

        def serialize() -> Any:
            st["text"] = hm.serialize_hypergraph(st["h"], [hm.EdgeVector(i.weights)])
            return len(st["text"])

        def blocks() -> Any:
            st["p"] = hm.Partition(i.n, tuple(tuple(b) for b in i.blocks))
            return st["p"]

        def singletons() -> Any:
            st["s"] = hm.Partition.singletons(i.n)
            return len(st["s"].blocks)

        return [
            ("parse", build),
            ("parse", serialize),
            ("parse", lambda: hm.parse_hypergraph(st["text"])),
            ("partition_query", singletons),
            ("partition_query", blocks),
            ("partition_query", lambda: st["h"].cross_edges(None, st["s"])),
            ("partition_query", lambda: st["h"].cross_edges(None, st["p"])),
            ("partition_query", lambda: st["h"].induced_edges(None, i.vertex_set)),
            ("partition_query", lambda: [st["p"].block_index(v) for v in range(i.n)]),
        ]

    def check(self, answers: list[Any]) -> list[str | None]:
        i = self.inst
        label = [0] * i.n
        for b, verts in enumerate(i.blocks):
            for v in verts:
                label[v] = b
        edges = [sorted(e) for e in i.edges]
        # a Partition orders its blocks by smallest vertex
        position = {b: k for k, b in enumerate(sorted(range(len(i.blocks)),
                                                      key=lambda b: min(i.blocks[b])))}
        return _check_each(answers, [
            lambda h: None if [list(e.vertices) for e in h.edges] == edges
            else "built edges differ",
            lambda size: None if size > 0 else "empty text",
            lambda parsed: None if [list(e.vertices) for e in parsed[0].edges] == edges
            and list(parsed[1][0]) == i.weights else "parse round trip differs",
            lambda blocks: None if blocks == i.n else "singleton partition size",
            lambda p: None if sorted(p.blocks) == sorted(tuple(sorted(b)) for b in i.blocks)
            else "partition blocks differ",
            lambda cross: None if cross == checks.crossing_by_label(i.edges, list(range(i.n)))
            else "cross_edges against singletons differs from the recount",
            lambda cross: None if cross == checks.crossing_by_label(i.edges, label)
            else "cross_edges against blocks differs from the recount",
            lambda inside: None if inside == checks.inside_by_member(i.edges, set(i.vertex_set))
            else "induced_edges differs from the recount",
            lambda index: None if index == [position[b] for b in label]
            else "block_index differs from the generated labels",
        ])

    def close(self) -> None:
        pass


def make(name: str, workdir: Path | None = None) -> Any:
    if name == "crit9":
        return Crit9()
    if name == "small_cli":
        return SmallCli(workdir=workdir)
    if name == "wide_core":
        return WideCore()
    raise ValueError(f"unknown workload {name!r}")

