"""Rebuild the ROADMAP baseline table from one traced pass on the criterion-9 instance.

    python3 perfbench/baseline.py [--seed N]

Runs the seven operations once on the n=200, m=1000 instance of
acceptance criterion 9 (one pass takes about a minute), with the span
wrappers of spans.py installed, and prints per operation its total time,
cut solves, and the time in and outside `solve`.  Every answer is
checked, and at the default seed compared with the known answers.  The
solve counts repeat exactly between runs of one seed; the times do not.
"""

from __future__ import annotations

import argparse
import sys

from run import import_package, run_pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                        help="instance seed (default: the criterion-9 seed 0xAC09)")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("error: python -O strips the certificate checks; run without -O", file=sys.stderr)
        return 2
    error = import_package()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from spans import Summary, Tracer
    from workloads import CRIT9_KNOWN, CRIT9_SEED, Crit9, Raised, crit9_known_answers

    seed = CRIT9_SEED if args.seed is None else args.seed
    workload = Crit9(n=200, m=1000, count=1)
    workload.setup(seed)
    tracer = Tracer()
    with tracer.installed():
        p = run_pass(workload, tracer)
    problems = [f"{label}: {e}" for label, e in zip(p.labels, workload.check(p.answers)) if e]
    if seed == CRIT9_SEED and not any(isinstance(a, Raised) for a in p.answers):
        got = crit9_known_answers(p.answers)
        problems += [f"{op}: got {got[op]}, known answer {want}"
                     for op, want in CRIT9_KNOWN.items() if got[op] != want]

    rows = Summary(tracer).by_label
    print(f"criterion-9 instance, seed {seed:#x}, n=200, m=1000, one traced pass\n")
    print("| op          | total | cut solves | in solve | outside solve |")
    print("| ----------- | ----: | ---------: | -------: | ------------: |")
    for label in p.labels:
        r = rows[label]
        print(f"| {label:<11} | {r['total']:4.1f}s | {r['solves']:>10,} | {r['in_solve']:7.1f}s "
              f"| {r['total'] - r['in_solve']:12.1f}s |")
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
