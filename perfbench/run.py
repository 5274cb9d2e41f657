"""hypermat benchmark: one workload in a closed loop, one process, one thread.

    python3 perfbench/run.py --workload crit9 --seed 1 --seconds 25 --trace 0

The run sets its inputs up from the seed three times, then issues the
calls of one pass after another, each call after the previous one
returns, until the passes have taken `--seconds` seconds; it sets up
twice more before every pass, and the median of all set-ups is
`setup_s`.  Every answer is checked after its pass, outside the timed
interval, and compared with the first pass's answer.

Call times are reported in units of a fixed reference computation
(reference.py) timed between calls: a pass costs `pass_ref` reference
runs.  On a machine shared with other tenants the same work can take up
to twice its best time for minutes on end; the reference slows down
with it, so the ratio stays put where seconds do not.

With `--trace 0` the last line of output is a JSON object holding the
end-to-end metrics.  With `--trace 1` untraced and traced passes
alternate; the traced passes give the per-layer metrics (spans.py), the
untraced ones the seconds per operation, and the two together the
tracing overhead.  The spans of the last traced pass are written to
`perfbench/.out/<workload>.spans.jsonl`.

The package's certificate checks are `assert` statements, so the run
refuses `python -O`, which would time a different program.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

from spans import OPERATIONS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
OUT = ROOT / "perfbench" / ".out"
WORKLOADS = ("crit9", "small_cli", "wide_core")
# set-ups before the first pass, and before every pass: the machine's speed
# drifts over a run, so `setup_s` samples all of it
SETUPS = 3
SETUPS_BETWEEN = 2
REF_EVERY = 0.05  # seconds of calls between two timings of the reference computation
STEP_LABELS = OPERATIONS + ("parse", "partition_query")


def import_package() -> str | None:
    """Import hypermat from this checkout's src/; return an error message on failure."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hypermat
    except ImportError as exc:
        return f"cannot import hypermat from {src}: {exc}"
    if Path(hypermat.__file__).resolve().parent != (src / "hypermat").resolve():
        return f"hypermat was imported from {hypermat.__file__}, not from {src}"
    return None


class Pass:
    def __init__(self, labels: list[str], answers: list[Any], latencies: list[float],
                 refs: list[float], wall: float) -> None:
        self.labels, self.answers, self.latencies, self.wall = labels, answers, latencies, wall
        self.ref = statistics.fmean(refs)  # seconds per reference computation in this pass

    def cost(self) -> float:
        """The pass's call time in units of the reference computation."""
        return sum(self.latencies) / self.ref


def run_pass(workload: Any, tracer: Any = None) -> Pass:
    """Issue every call of one pass, timing the reference every REF_EVERY seconds of calls."""
    from reference import time_reference
    from workloads import Raised

    calls = workload.calls()
    answers: list[Any] = []
    latencies: list[float] = []
    refs: list[float] = []
    since = REF_EVERY
    start = perf_counter()
    for label, fn in calls:
        if since >= REF_EVERY:
            refs.append(time_reference())
            since = 0.0
        t0 = perf_counter()
        try:
            answer = fn() if tracer is None else tracer.call(label, fn)
        except Exception as exc:  # a failed call is counted, and the run goes on
            answer = Raised(exc)
        latencies.append(perf_counter() - t0)
        answers.append(answer)
        since += latencies[-1]
    wall = perf_counter() - start
    return Pass([label for label, _ in calls], answers, latencies, refs, wall)


def call_costs(passes: list[Pass]) -> list[float]:
    """Each distinct call's median latency over the passes, in reference units."""
    return [statistics.median(t / p.ref for t, p in zip(ts, passes))
            for ts in zip(*(p.latencies for p in passes))]


def timed_setup(workload: Any, seed: int) -> float:
    gc.collect()
    t0 = perf_counter()
    workload.setup(seed)
    return perf_counter() - t0


def best_latencies(passes: list[Pass]) -> list[float]:
    """Each distinct call's fastest latency in seconds over the passes."""
    return [min(ts) for ts in zip(*(p.latencies for p in passes))]


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of a nonempty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def measure(workload: Any, seed: int, seconds: float, trace: bool,
            spans_path: Path | None = None) -> dict[str, Any]:
    """Set up, run passes for `seconds`, check every answer; return the result object."""
    from spans import Summary, Tracer, layer_metrics
    from workloads import canonical

    setup_times = [timed_setup(workload, seed) for _ in range(SETUPS)]

    untraced: list[Pass] = []
    traced: list[Pass] = []
    layer_runs: list[dict[str, tuple[float, str]]] = []
    reference: list[Any] | None = None
    attempted = failed = 0
    measured = 0.0
    last_tracer = None
    while True:
        tracer = Tracer() if trace and len(untraced) > len(traced) else None
        setup_times += [timed_setup(workload, seed) for _ in range(SETUPS_BETWEEN)]
        gc.collect()
        if tracer is None:
            p = run_pass(workload)
        else:
            with tracer.installed():
                p = run_pass(workload, tracer)
        measured += p.wall
        errors = workload.check(p.answers)
        canon = [canonical(a) for a in p.answers]
        if reference is None:
            reference = canon
        p.answers = []  # checked; keep the peak memory the workload's own
        for error, got, want in zip(errors, canon, reference):
            attempted += 1
            if error is not None or got != want:
                failed += 1
                print(f"check failed: {error or 'answer differs from the first pass'}",
                      file=sys.stderr)
        if tracer is None:
            untraced.append(p)
        else:
            traced.append(p)
            layer_runs.append(layer_metrics(Summary(tracer)))
            last_tracer = tracer
        if measured >= seconds and (traced or not trace):
            break
    workload.close()

    metrics: dict[str, dict[str, Any]] = {}
    costs = call_costs(untraced)
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
        metrics["pass_ref"] = {"value": statistics.median(p.cost() for p in untraced),
                               "unit": "ref"}
        metrics["call_p99_ref"] = {"value": percentile(costs, 99), "unit": "ref"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
    else:
        for name in layer_runs[0]:
            if all(name in run for run in layer_runs):
                metrics[name] = {"value": statistics.median(run[name][0] for run in layer_runs),
                                 "unit": layer_runs[0][name][1]}
        best = best_latencies(untraced)
        labels = untraced[0].labels
        for label in STEP_LABELS:
            metrics[f"{label}_s"] = {
                "value": sum(t for lb, t in zip(labels, best) if lb == label), "unit": "s"}
        metrics["pass_s"] = {"value": sum(best), "unit": "s"}
        metrics["call_p50_ms"] = {"value": 1000 * percentile(best, 50), "unit": "ms"}
        metrics["call_p99_ms"] = {"value": 1000 * percentile(best, 99), "unit": "ms"}
        metrics["reference_ms"] = {
            "value": 1000 * statistics.median(p.ref for p in untraced), "unit": "ms"}
        metrics["trace.overhead_frac"] = {
            "value": statistics.median(p.cost() for p in traced)
            / statistics.median(p.cost() for p in untraced) - 1, "unit": "ratio"}
        metrics["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
        metrics["skipped_frac"] = {"value": workload.skipped / attempted, "unit": "ratio"}
        if spans_path is not None and last_tracer is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            last_tracer.write(str(spans_path))

    print(f"{workload.name}: seed {seed}, {len(untraced)} untraced and {len(traced)} traced "
          f"passes, {len(costs)} distinct calls (latency samples), {attempted} answers checked, "
          f"{failed} failed; pass seconds: "
          + " ".join(f"{p.wall:.3f}{'t' if p in traced else ''}" for p in untraced + traced))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("error: python -O strips the certificate checks; run without -O", file=sys.stderr)
        return 2
    error = import_package()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import make

    result = measure(make(args.workload, WORK), args.seed, args.seconds, bool(args.trace),
                     OUT / f"{args.workload}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
