"""Command-line front end.

Subcommands: rank, independent, maxforest, separate, strength,
arboricity, reinforce, oracle-check.  Files use the text format of
parse_hypergraph; rational output is rendered as "p/q" strings (plain
integers when the denominator is 1).

Exit codes: 0 success, 1 usage or input errors, 2 infeasible
reinforcement, 3 oracle mismatch under --oracle or oracle-check.  A
mismatch wins: an infeasible reinforce run whose oracle disagrees exits 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence

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
    RankResult,
    SeparationOutcome,
    is_independent,
    max_weight_hyperforest,
    rank,
    separate_polytope,
)
from .packing import ArboricityResult, StrengthResult, arboricity, strength
from .reinforcement import ReinforcementResult, reinforce


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


def _render_rank(res: RankResult, operands: tuple) -> tuple[dict, str, int]:
    h, ids = operands
    payload = {
        "rank": res.rank,
        "witness_partition": _blocks(res.witness_partition),
        "edge_set": ids if ids is not None else list(range(h.m)),
    }
    return payload, f"rank {res.rank}\nwitness {_blocks_text(res.witness_partition)}", 0


def _render_independent(ok: bool, operands: tuple) -> tuple[dict, str, int]:
    h, ids = operands
    size = len(ids) if ids is not None else h.m
    return {"independent": ok, "size": size}, "independent" if ok else "dependent", 0


def _render_maxforest(res: tuple[frozenset[int], Fraction],
                      operands: tuple) -> tuple[dict, str, int]:
    chosen, weight = res
    payload = {"edges": sorted(chosen), "weight": format_rational(weight)}
    human = f"weight {format_rational(weight)}\nedges {' '.join(str(e) for e in sorted(chosen))}"
    return payload, human, 0


def _render_separate(outcome: SeparationOutcome, operands: tuple) -> tuple[dict, str, int]:
    if isinstance(outcome, InPolytope):
        return {"in_polytope": True}, "in polytope", 0
    if isinstance(outcome, BoundViolation):
        if outcome.upper is None:
            ineq = f"x({outcome.edge}) >= 0"
        else:
            ineq = f"x({outcome.edge}) <= {format_rational(outcome.upper)}"
        payload = {"in_polytope": False, "violation": {
            "kind": "bound", "edge": outcome.edge,
            "value": format_rational(outcome.value), "inequality": ineq,
        }}
        human = f"violated: {ineq} but x({outcome.edge}) = {format_rational(outcome.value)}"
        return payload, human, 0
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
    return payload, human, 0


def _render_strength(res: StrengthResult, operands: tuple) -> tuple[dict, str, int]:
    payload = {
        "strength": format_rational(res.sigma),
        "floor": res.integer_packing,
        "partition": _blocks(res.critical_partition),
        "iterations": res.iterations,
    }
    human = (f"strength {format_rational(res.sigma)} (floor {res.integer_packing})"
             f"\ncritical {_blocks_text(res.critical_partition)}"
             f"\niterations {res.iterations}")
    return payload, human, 0


def _render_arboricity(res: ArboricityResult, operands: tuple) -> tuple[dict, str, int]:
    payload = {
        "arboricity": format_rational(res.rho),
        "k": res.k,
        "witness": sorted(res.witness),
        "iterations": res.iterations,
    }
    human = (f"arboricity {format_rational(res.rho)} (k {res.k})"
             f"\nwitness {sorted(res.witness)}")
    return payload, human, 0


def _render_reinforce(res: ReinforcementResult, operands: tuple) -> tuple[dict, str, int]:
    if res.status == "infeasible":
        payload = {"status": "infeasible",
                   "certificate": _blocks(res.dual.final_partition)}
        return payload, f"infeasible\ncertificate {_blocks_text(res.dual.final_partition)}", 2
    if res.x is None or res.cost is None:
        raise AssertionError("an optimal reinforce result without x or cost")
    payload = {
        "status": "optimal",
        "cost": format_rational(res.cost),
        "x": [format_rational(v) for v in res.x],
    }
    human = (f"cost {format_rational(res.cost)}"
             f"\nx {' '.join(format_rational(v) for v in res.x)}")
    return payload, human, 0


def _edge_set(h: Hypergraph, columns: list[EdgeVector], args: argparse.Namespace) -> tuple:
    text = getattr(args, "set", None)  # oracle-check has no --set
    return h, _parse_set(text, h.m) if text is not None else None


def _reinforce_operands(h: Hypergraph, columns: list[EdgeVector],
                        args: argparse.Namespace) -> tuple:
    if args.k is None:  # only oracle-check leaves -k out
        raise _UsageError("reinforce needs -k")
    return (h, args.k, *_need_columns(columns, 2, "reinforce"))


@dataclass(frozen=True)
class _Op:
    """One subcommand: its operands, main routine, output and brute oracle.

    `operands` reads the main routine's arguments, which the oracle takes
    too, from the file and the flags, and raises _UsageError when they are
    missing; oracle-check then leaves the operation out, as it does below
    `min_n` vertices.  The oracle must equal `value` of the main result;
    `show` renders both for oracle-check.
    """

    name: str
    help: str
    flags: tuple[tuple[str, dict], ...]
    operands: Callable[[Hypergraph, list[EdgeVector], argparse.Namespace], tuple]
    main: Callable[..., Any]
    render: Callable[[Any, tuple], tuple[dict, str, int]]  # payload, human text, exit code
    value: Callable[[Any], Any]
    oracle: Callable[..., Any]
    show: Callable[[Any], str] = str
    min_n: int = 0


_SET = ("--set", {"help": "comma-separated edge ids (default: all)"})

# Each entry looks its routines up by name on every call, so tests can patch
# `brute` and a tracer that rebinds this module's names sees the main calls.
_OPS = {op.name: op for op in (
    _Op("rank", "rank of an edge set", (_SET,), _edge_set, lambda *a: rank(*a), _render_rank,
        value=lambda res: res.rank, oracle=lambda *a: brute.brute_rank(*a)),
    _Op("independent", "hyperforest test", (_SET,), _edge_set,
        lambda *a: is_independent(*a), _render_independent,
        value=lambda ok: ok, oracle=lambda *a: brute.brute_hyperforest(*a)),
    _Op("maxforest", "maximum-weight hyperforest (column: weights)", (),
        lambda h, columns, args: (h, *_need_columns(columns, 1, "maxforest")),
        lambda *a: max_weight_hyperforest(*a), _render_maxforest,
        value=lambda res: res[1], oracle=lambda *a: brute.brute_max_weight_hyperforest(*a),
        show=format_rational),
    _Op("separate", "hyperforest polytope separation (column: point)", (),
        lambda h, columns, args: (h, *_need_columns(columns, 1, "separate")),
        lambda *a: separate_polytope(*a), _render_separate,
        value=lambda outcome: isinstance(outcome, InPolytope),
        oracle=lambda *a: brute.brute_separate(*a)),
    _Op("strength", "packing value (optional column: capacities)", (),
        lambda h, columns, args: (h, columns[0] if columns else None),
        lambda *a: strength(*a), _render_strength,
        value=lambda res: res.sigma, oracle=lambda *a: brute.brute_strength(*a)[0],
        show=format_rational, min_n=2),
    _Op("arboricity", "covering value", (), lambda h, columns, args: (h,),
        lambda *a: arboricity(*a), _render_arboricity,
        value=lambda res: res.rho, oracle=lambda *a: brute.brute_arboricity(*a)[0],
        show=format_rational, min_n=2),
    _Op("reinforce", "minimum-cost reinforcement (columns: costs, bounds)",
        (("-k", {"type": int, "required": True, "help": "number of hypertrees to pack"}),),
        _reinforce_operands, lambda *a: reinforce(*a), _render_reinforce,
        value=lambda res: (res.status, res.cost),
        oracle=lambda *a: brute.brute_reinforce(*a)[:2],
        show=lambda v: v[0] if v[1] is None else format_rational(v[1])),
)}

# oracle-check runs, and prints, the operations in this order
_CHECK_ORDER = ("rank", "independent", "strength", "arboricity", "maxforest", "separate",
                "reinforce")


def _check(op: _Op, operands: tuple, run: Callable[[], Any]) -> dict:
    """Compare the main value with the oracle's; size guards and unsupported data skip it."""
    try:
        value = op.value(run())
        expected = op.oracle(*operands)
    except (ValueError, LoopPresentError) as exc:
        return {"skipped": str(exc)}
    return {"main": op.show(value), "oracle": op.show(expected), "match": value == expected}


def _run(op: _Op, args: argparse.Namespace) -> int:
    h, columns = _load(args.file)
    operands = op.operands(h, columns, args)
    result = op.main(*operands)
    payload, human, code = op.render(result, operands)
    print(json.dumps(payload, indent=2) if args.json else human)
    if args.oracle:
        check = _check(op, operands, lambda: result)
        if "skipped" in check:
            note = f"skipped ({check['skipped']})"
        else:
            note = "match" if check["match"] else "MISMATCH"
        print(f"oracle {op.name}: {note}", file=sys.stderr)
        if note == "MISMATCH":
            return 3
    return code


def _oracle_check(args: argparse.Namespace) -> int:
    h, columns = _load(args.file)
    checks: list[dict] = []
    for op in (_OPS[name] for name in _CHECK_ORDER):
        if h.n < op.min_n:
            continue
        try:
            operands = op.operands(h, columns, args)
        except _UsageError:
            continue
        checks.append({"op": op.name, **_check(op, operands, lambda: op.main(*operands))})
    failed = any(c.get("match") is False for c in checks)
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


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on the first call and reused for the process."""
    parser = _Parser(prog="hypermat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("file", help="hypergraph file")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    for op in _OPS.values():
        p = sub.add_parser(op.name, help=op.help)
        common(p)
        p.add_argument("--oracle", action="store_true",
                       help="cross-check against the brute-force oracle")
        for flag, options in op.flags:
            p.add_argument(flag, **options)
        p.set_defaults(fn=lambda args, op=op: _run(op, args))

    p = sub.add_parser("oracle-check",
                       help="run every applicable operation against its oracle")
    common(p)
    p.add_argument("-k", type=int, default=None, help="tree count for the reinforce check")
    p.set_defaults(fn=_oracle_check)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except (_UsageError, HypergraphFormatError, LoopPresentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
