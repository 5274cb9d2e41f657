"""Static checks on the package source and the README, with the standard library only."""

import argparse
import ast
import re
from pathlib import Path

import hypermat
from hypermat.cli import _build_parser

PACKAGE = Path(hypermat.__file__).resolve().parent


def _imported_names(tree):
    """Names bound by the module's imports, except `from __future__` ones."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree):
    """Names read anywhere in the module, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


def test_no_unused_imports():
    exported = set(hypermat.__all__)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        if path.name == "__init__.py":
            used |= exported
        unused += [f"{path.name}: {name}" for name in _imported_names(tree) if name not in used]
    assert unused == []


def test_every_export_resolves():
    missing = [name for name in hypermat.__all__ if not hasattr(hypermat, name)]
    assert missing == []
    assert len(set(hypermat.__all__)) == len(hypermat.__all__)


def test_readme_lists_every_subcommand():
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Subcommands", 1)[1].split("\n\n", 2)[1]
    documented = re.findall(r"^\| `([\w-]+)`", table, flags=re.MULTILINE)
    (subparsers,) = [a for a in _build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert documented == list(subparsers.choices)


def test_readme_lower_level_names_are_exported():
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Lower-level pieces are exported too", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`([\w.]+)`", paragraph)
    assert names
    # a dotted name is an attribute of an exported class
    missing = [name for name in names if name.split(".")[0] not in hypermat.__all__]
    assert missing == []
    for name in names:
        head, *rest = name.split(".")
        obj = getattr(hypermat, head)
        for attr in rest:
            obj = getattr(obj, attr)


def test_gadget_cuts_take_one_path():
    # every gadget cut is solved and read back by gadgets.GadgetEngine:
    # no other module solves a cut or reads a cut's source side, and none
    # builds a network or a gadget graph, so the integer form of their
    # numbers stays behind these two modules
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("mincut.py", "gadgets.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("min_st_cut", "CutEngine", "FlowNetwork", "GadgetGraph"):
                    stray.append(f"{path.name}:{node.lineno}: {name}()")
            elif isinstance(node, ast.Attribute) and node.attr == "source_side":
                stray.append(f"{path.name}:{node.lineno}: .source_side")
    assert stray == []


def test_no_operation_calls_the_partition_oracle():
    # strength reads its partitions from the gathering pass's blocks;
    # min_partition stays as the reference the tests compare them with
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "partition_oracle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "min_partition":
                    callers.append(f"{path.name}:{node.lineno}")
    assert callers == []


def _asserts(name):
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_gathering_pass_holds_no_assert():
    # matroid.py checks its certificates (the gathering pass, the trimming,
    # the most violated set, the rank witness) with `if ...: raise`, which
    # `python -O` keeps; an `assert` there would vanish under it
    asserts = _asserts("matroid.py")
    assert asserts == [], f"matroid.py asserts on lines {asserts}"


def test_reinforcement_holds_no_assert():
    # so do reinforcement's round checks, duals and optimality proof
    asserts = _asserts("reinforcement.py")
    assert asserts == [], f"reinforcement.py asserts on lines {asserts}"


def test_packing_holds_no_assert():
    # nor do strength's and arboricity's Newton checks
    asserts = _asserts("packing.py")
    assert asserts == [], f"packing.py asserts on lines {asserts}"


def test_cli_holds_no_assert():
    # nor does the CLI's check of a reinforce result before it renders it
    asserts = _asserts("cli.py")
    assert asserts == [], f"cli.py asserts on lines {asserts}"


def test_core_holds_no_assert():
    # nor does core.py's input and `Partition` validation, which reinforce
    # now reaches only for the partitions it hands out
    asserts = _asserts("core.py")
    assert asserts == [], f"core.py asserts on lines {asserts}"


def test_each_check_has_its_own_message():
    # a failed certificate check names the identity that broke, so no two
    # `raise AssertionError("...")` in the package share their text
    where: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                    and exc.func.id == "AssertionError" and exc.args
                    and isinstance(exc.args[0], ast.Constant)):
                where.setdefault(exc.args[0].value, []).append(f"{path.name}:{node.lineno}")
    assert where
    repeated = {message: lines for message, lines in where.items() if len(lines) > 1}
    assert repeated == {}


def test_reinforcement_makes_no_cut():
    # reinforcement reads each round's merge from the gathering pass, so
    # it needs neither the gadget nor the flow engine
    tree = ast.parse((PACKAGE / "reinforcement.py").read_text(encoding="utf-8"))
    modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    stray = [name for name in modules if name and name.split(".")[-1] in ("gadgets", "mincut")]
    assert stray == []
