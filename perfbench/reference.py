"""A fixed pure-Python computation that measures how fast the machine runs right now.

On a machine shared with other tenants the same work can take anywhere
from 1x to 2x its best time, in phases that last from seconds to
minutes, which is longer than a run.  The benchmark times this reference
between calls and reports call times in units of it, so that a slow
phase scales both alike and cancels.  It does what hypermat's hot loops
do, breadth-first search over int arrays and exact rational sums, on a
fixed graph, and it shares no code with hypermat.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

_rng = random.Random(0x5EED)
_N = 600
_FIRST = [0]
_HEAD: list[int] = []
for _v in range(_N):
    _HEAD.extend(_rng.sample(range(_N), 6))
    _FIRST.append(len(_HEAD))
_RESIDUAL = [_rng.randint(0, 3) for _ in _HEAD]


def reference_work() -> int:
    """Three breadth-first searches over a fixed 600-node, 3600-arc graph, and 40 rational sums."""
    reached = 0
    for source in (0, 1, 2):
        level = [-1] * _N
        level[source] = 0
        queue = [source]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            lv = level[v] + 1
            for idx in range(_FIRST[v], _FIRST[v + 1]):
                if _RESIDUAL[idx] != 0:
                    w = _HEAD[idx]
                    if level[w] < 0:
                        level[w] = lv
                        queue.append(w)
        reached += qi
    acc = Fraction(0)
    for i in range(40):
        acc += Fraction(i % 7, i % 5 + 1)
    return reached + acc.numerator


def time_reference() -> float:
    """Seconds one run of the reference computation takes now."""
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0
