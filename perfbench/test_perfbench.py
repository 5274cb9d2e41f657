"""Tests of the benchmark itself, on tiny instances.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

assert run.import_package() is None

import spans  # noqa: E402
import workloads  # noqa: E402
from instances import CRIT9_SEED, crit9_instance  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "crit9": lambda: workloads.Crit9(n=12, m=40),
    "small_cli": lambda: workloads.SmallCli(count=4),
    "wide_core": lambda: workloads.WideCore(n=300),
}


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(TINY) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    wl = TINY[name]()
    wl.workdir = tmp_path if name == "small_cli" else None
    result = run.measure(wl, seed=3, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_answers_are_identical(name, tmp_path):
    wl = TINY[name]()
    wl.workdir = tmp_path if name == "small_cli" else None
    wl.setup(5)
    plain = run.run_pass(wl)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = run.run_pass(wl, tracer)
    wl.close()
    assert [workloads.canonical(a) for a in plain.answers] == \
        [workloads.canonical(a) for a in traced.answers]
    assert not any(isinstance(a, workloads.Raised) for a in plain.answers)
    assert tracer.spans and all(rec[spans.END] >= rec[spans.START] for rec in tracer.spans)


def _bindings() -> dict:
    """Every name bound in a hypermat module and every attribute of its classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "hypermat" or name.startswith("hypermat."):
            for key, value in vars(mod).items():
                out[name, key] = value
                if isinstance(value, type) and value.__module__ == name:
                    out.update({(name, key, k): v for k, v in vars(value).items()})
    return out


def test_wrappers_are_removed_after_the_traced_pass():
    import hypermat

    before = _bindings()
    with spans.Tracer().installed() as tracer:
        assert hypermat.rank is not before["hypermat", "rank"]
        assert {"matroid.rank", "core.cross_edges", spans.SOLVE} <= tracer.boundaries
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_counts_repeat_exactly_at_one_seed():
    def counts():
        wl = workloads.Crit9(n=14, m=50)
        wl.setup(7)
        tracer = spans.Tracer()
        with tracer.installed():
            run.run_pass(wl, tracer)
        m = spans.layer_metrics(spans.Summary(tracer))
        return {k: v for k, (v, unit) in m.items() if unit == "count"}

    first = counts()
    assert first["mincut.solves"] > 0 and first == counts()


def test_crit9_reproduces_the_acceptance_instance():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        acceptance = importlib.import_module("test_acceptance")
    finally:
        sys.path.remove(str(ROOT / "tests"))
    rng = random.Random(CRIT9_SEED)
    h = acceptance.rand_hypergraph(rng, 200, 200, 1000, 1000, 2, 6, connected=True)
    weights = [rng.randint(0, 10) for _ in range(h.m)]
    point = [rng.randint(0, 4) for _ in range(h.m)]
    costs = [rng.randint(1, 6) for _ in range(h.m)]
    inst = crit9_instance()
    assert inst.h == h
    assert list(inst.weights) == weights
    assert [v * 4 for v in inst.point] == point
    assert list(inst.costs) == costs


def _bench(args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def test_refuses_python_optimize():
    out = _bench(["-O", "perfbench/run.py", "--workload", "crit9", "--seed", "1",
                  "--seconds", "0"], ROOT)
    assert out.returncode != 0 and out.stdout == ""


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", ".out"))
    out = _bench([*SPEC["command"][1:], "--workload", "crit9", "--seed", "1",
                  "--seconds", "1", "--trace", "0"], tmp_path)
    assert out.returncode != 0 and out.stdout == ""
