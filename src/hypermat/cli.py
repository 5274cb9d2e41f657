"""Command-line front end.

Subcommands: rank, independent, maxforest, separate, strength,
arboricity, reinforce, oracle-check.  Files use the text format of
parse_hypergraph; rational output is rendered as "p/q" strings (plain
integers when the denominator is 1).

Exit codes: 0 success, 1 usage or input errors, 2 infeasible
reinforcement, 3 oracle mismatch under --oracle or oracle-check.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence

from . import brute
from .core import (
    EdgeVector,
    Hypergraph,
    HypergraphFormatError,
    LoopPresentError,
    Partition,
    format_rational,
    parse_hypergraph,
)
from .matroid import (
    BoundViolation,
    InPolytope,
    is_independent,
    max_weight_hyperforest,
    rank,
    separate_polytope,
)
from .packing import arboricity, strength
from .reinforcement import reinforce


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _blocks(p: Partition) -> list[list[int]]:
    return [list(b) for b in p.blocks]


def _blocks_text(p: Partition) -> str:
    return " ".join("{" + ",".join(str(v) for v in b) + "}" for b in p.blocks)


def _parse_set(text: str, m: int) -> list[int]:
    try:
        ids = sorted({int(t) for t in text.split(",") if t.strip() != ""})
    except ValueError as exc:
        raise _UsageError(f"bad edge-id list {text!r}") from exc
    for e in ids:
        if not 0 <= e < m:
            raise _UsageError(f"edge id {e} out of range 0..{m - 1}")
    return ids


def _load(path: str) -> tuple[Hypergraph, list[EdgeVector]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    return parse_hypergraph(text)


def _need_columns(columns: list[EdgeVector], count: int, what: str) -> list[EdgeVector]:
    if len(columns) < count:
        raise _UsageError(f"{what} needs {count} value column(s), file has {len(columns)}")
    return columns[:count]


def _emit(args: argparse.Namespace, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(human)


def _oracle_guard(fn: Callable[[], bool]) -> str:
    """Run an oracle comparison; size guards and unsupported data skip it."""
    try:
        return "match" if fn() else "MISMATCH"
    except (ValueError, LoopPresentError) as exc:
        return f"skipped ({exc})"


def _cmd_rank(args: argparse.Namespace) -> int:
    h, _ = _load(args.file)
    ids = _parse_set(args.set, h.m) if args.set is not None else None
    res = rank(h, ids)
    payload = {
        "rank": res.rank,
        "witness_partition": _blocks(res.witness_partition),
        "edge_set": ids if ids is not None else list(range(h.m)),
    }
    _emit(args, payload, f"rank {res.rank}\nwitness {_blocks_text(res.witness_partition)}")
    if args.oracle:
        note = _oracle_guard(lambda: brute.brute_rank(h, ids) == res.rank)
        print(f"oracle rank: {note}", file=sys.stderr)
        if note == "MISMATCH":
            return 3
    return 0


def _cmd_independent(args: argparse.Namespace) -> int:
    h, _ = _load(args.file)
    ids = _parse_set(args.set, h.m) if args.set is not None else None
    ok = is_independent(h, ids)
    size = len(ids) if ids is not None else h.m
    payload = {"independent": ok, "size": size}
    _emit(args, payload, "independent" if ok else "dependent")
    if args.oracle:
        note = _oracle_guard(lambda: brute.brute_hyperforest(h, ids) == ok)
        print(f"oracle independent: {note}", file=sys.stderr)
        if note == "MISMATCH":
            return 3
    return 0


def _cmd_maxforest(args: argparse.Namespace) -> int:
    h, columns = _load(args.file)
    (w,) = _need_columns(columns, 1, "maxforest")
    chosen, weight = max_weight_hyperforest(h, w)
    payload = {"edges": sorted(chosen), "weight": format_rational(weight)}
    human = f"weight {format_rational(weight)}\nedges {' '.join(str(e) for e in sorted(chosen))}"
    _emit(args, payload, human)
    if args.oracle:
        note = _oracle_guard(lambda: brute.brute_max_weight_hyperforest(h, w) == weight)
        print(f"oracle maxforest: {note}", file=sys.stderr)
        if note == "MISMATCH":
            return 3
    return 0


def _cmd_separate(args: argparse.Namespace) -> int:
    h, columns = _load(args.file)
    (x,) = _need_columns(columns, 1, "separate")
    outcome = separate_polytope(h, x)
    if isinstance(outcome, InPolytope):
        payload: dict = {"in_polytope": True}
        human = "in polytope"
    elif isinstance(outcome, BoundViolation):
        if outcome.upper is None:
            ineq = f"x({outcome.edge}) >= 0"
        else:
            ineq = f"x({outcome.edge}) <= {format_rational(outcome.upper)}"
        payload = {"in_polytope": False, "violation": {
            "kind": "bound", "edge": outcome.edge,
            "value": format_rational(outcome.value), "inequality": ineq,
        }}
        human = f"violated: {ineq} but x({outcome.edge}) = {format_rational(outcome.value)}"
    else:
        payload = {"in_polytope": False, "violation": {
            "kind": "set",
            "witness": sorted(outcome.witness),
            "lhs": format_rational(outcome.lhs),
            "rhs": outcome.rhs,
            "edge_set": sorted(outcome.edge_set),
            "partition": _blocks(outcome.partition),
        }}
        human = (f"violated: x(E[W]) = {format_rational(outcome.lhs)} > {outcome.rhs} = |W| - 1"
                 f"\nW = {sorted(outcome.witness)}")
    _emit(args, payload, human)
    if args.oracle:
        note = _oracle_guard(
            lambda: brute.brute_separate(h, x) == isinstance(outcome, InPolytope))
        print(f"oracle separate: {note}", file=sys.stderr)
        if note == "MISMATCH":
            return 3
    return 0


def _cmd_strength(args: argparse.Namespace) -> int:
    h, columns = _load(args.file)
    c = columns[0] if columns else None
    res = strength(h, c)
    payload = {
        "strength": format_rational(res.sigma),
        "floor": res.integer_packing,
        "partition": _blocks(res.critical_partition),
        "iterations": res.iterations,
    }
    human = (f"strength {format_rational(res.sigma)} (floor {res.integer_packing})"
             f"\ncritical {_blocks_text(res.critical_partition)}"
             f"\niterations {res.iterations}")
    _emit(args, payload, human)
    if args.oracle:
        note = _oracle_guard(lambda: brute.brute_strength(h, c)[0] == res.sigma)
        print(f"oracle strength: {note}", file=sys.stderr)
        if note == "MISMATCH":
            return 3
    return 0


def _cmd_arboricity(args: argparse.Namespace) -> int:
    h, _ = _load(args.file)
    res = arboricity(h)
    payload = {
        "arboricity": format_rational(res.rho),
        "k": res.k,
        "witness": sorted(res.witness),
        "iterations": res.iterations,
    }
    human = (f"arboricity {format_rational(res.rho)} (k {res.k})"
             f"\nwitness {sorted(res.witness)}")
    _emit(args, payload, human)
    if args.oracle:
        note = _oracle_guard(lambda: brute.brute_arboricity(h)[0] == res.rho)
        print(f"oracle arboricity: {note}", file=sys.stderr)
        if note == "MISMATCH":
            return 3
    return 0


def _cmd_reinforce(args: argparse.Namespace) -> int:
    h, columns = _load(args.file)
    d, u = _need_columns(columns, 2, "reinforce")
    res = reinforce(h, args.k, d, u)
    if res.status == "infeasible":
        payload = {"status": "infeasible",
                   "certificate": _blocks(res.dual.final_partition)}
        human = ("infeasible"
                 f"\ncertificate {_blocks_text(res.dual.final_partition)}")
        _emit(args, payload, human)
        return 2
    assert res.x is not None and res.cost is not None
    payload = {
        "status": "optimal",
        "cost": format_rational(res.cost),
        "x": [format_rational(v) for v in res.x],
    }
    human = (f"cost {format_rational(res.cost)}"
             f"\nx {' '.join(format_rational(v) for v in res.x)}")
    _emit(args, payload, human)
    if args.oracle:
        def check() -> bool:
            status, cost, _ = brute.brute_reinforce(h, args.k, d, u)
            return status == res.status and cost == res.cost
        note = _oracle_guard(check)
        print(f"oracle reinforce: {note}", file=sys.stderr)
        if note == "MISMATCH":
            return 3
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    h, columns = _load(args.file)
    col0 = columns[0] if columns else None
    checks: list[dict] = []
    failed = False

    def record(op: str, run: Callable[[], tuple[str, str, bool]]) -> None:
        nonlocal failed
        try:
            main_repr, oracle_repr, ok = run()
            checks.append({"op": op, "main": main_repr, "oracle": oracle_repr,
                           "match": ok})
            if not ok:
                failed = True
        except (ValueError, LoopPresentError) as exc:
            checks.append({"op": op, "skipped": str(exc)})

    def compare(main_value: object, oracle_value: object) -> tuple[str, str, bool]:
        return str(main_value), str(oracle_value), main_value == oracle_value

    record("rank", lambda: compare(rank(h).rank, brute.brute_rank(h)))
    record("independent", lambda: compare(is_independent(h), brute.brute_hyperforest(h)))
    if h.n >= 2:
        def strength_check() -> tuple[str, str, bool]:
            s = strength(h, col0).sigma
            b = brute.brute_strength(h, col0)[0]
            return format_rational(s), format_rational(b), s == b
        record("strength", strength_check)

        def arboricity_check() -> tuple[str, str, bool]:
            a = arboricity(h).rho
            b = brute.brute_arboricity(h)[0]
            return format_rational(a), format_rational(b), a == b
        record("arboricity", arboricity_check)
    if col0 is not None:
        def forest_check() -> tuple[str, str, bool]:
            w = max_weight_hyperforest(h, col0)[1]
            b = brute.brute_max_weight_hyperforest(h, col0)
            return format_rational(w), format_rational(b), w == b
        record("maxforest", forest_check)

        def separate_check() -> tuple[str, str, bool]:
            inside = isinstance(separate_polytope(h, col0), InPolytope)
            b = brute.brute_separate(h, col0)
            return str(inside), str(b), inside == b
        record("separate", separate_check)
    if len(columns) >= 2 and args.k is not None:
        def reinforce_check() -> tuple[str, str, bool]:
            res = reinforce(h, args.k, columns[0], columns[1])
            status, cost, _ = brute.brute_reinforce(h, args.k, columns[0], columns[1])
            main_repr = res.status if res.cost is None else format_rational(res.cost)
            oracle_repr = status if cost is None else format_rational(cost)
            return main_repr, oracle_repr, (res.status, res.cost) == (status, cost)
        record("reinforce", reinforce_check)

    if args.json:
        print(json.dumps({"checks": checks, "all_match": not failed}, indent=2))
    else:
        for c in checks:
            if "skipped" in c:
                print(f"{c['op']}: skipped ({c['skipped']})")
            else:
                mark = "ok" if c["match"] else "MISMATCH"
                print(f"{c['op']}: main={c['main']} oracle={c['oracle']} {mark}")
    return 3 if failed else 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="hypermat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser, oracle: bool = True) -> None:
        p.add_argument("file", help="hypergraph file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if oracle:
            p.add_argument("--oracle", action="store_true",
                           help="cross-check against the brute-force oracle")

    p = sub.add_parser("rank", help="rank of an edge set")
    common(p)
    p.add_argument("--set", help="comma-separated edge ids (default: all)")
    p.set_defaults(fn=_cmd_rank)

    p = sub.add_parser("independent", help="hyperforest test")
    common(p)
    p.add_argument("--set", help="comma-separated edge ids (default: all)")
    p.set_defaults(fn=_cmd_independent)

    p = sub.add_parser("maxforest", help="maximum-weight hyperforest (column: weights)")
    common(p)
    p.set_defaults(fn=_cmd_maxforest)

    p = sub.add_parser("separate", help="hyperforest polytope separation (column: point)")
    common(p)
    p.set_defaults(fn=_cmd_separate)

    p = sub.add_parser("strength", help="packing value (optional column: capacities)")
    common(p)
    p.set_defaults(fn=_cmd_strength)

    p = sub.add_parser("arboricity", help="covering value")
    common(p)
    p.set_defaults(fn=_cmd_arboricity)

    p = sub.add_parser("reinforce", help="minimum-cost reinforcement (columns: costs, bounds)")
    common(p)
    p.add_argument("-k", type=int, required=True, help="number of hypertrees to pack")
    p.set_defaults(fn=_cmd_reinforce)

    p = sub.add_parser("oracle-check",
                       help="run every applicable operation against its oracle")
    common(p, oracle=False)
    p.add_argument("-k", type=int, default=None, help="tree count for the reinforce check")
    p.set_defaults(fn=_cmd_oracle_check)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (HypergraphFormatError, LoopPresentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
