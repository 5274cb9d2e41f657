import json
from fractions import Fraction

import pytest

from hypermat import Partition
from hypermat.cli import main

H0 = "3 2\n0 1 2 | 1 2\n0 1 2 | 2 2\n"
H0_TIGHT = "3 2\n0 1 2 | 1 1\n0 1 2 | 2 0\n"
K3 = "3 3\n0 1\n1 2\n0 2\n"
K3_COLS = "3 3\n0 1 | 1\n1 2 | 2\n0 2 | 3\n"
K3_POINT = "3 3\n0 1 | 1\n1 2 | 1\n0 2 | 1\n"
PATH8 = "8 7\n" + "".join(f"{i} {i + 1}\n" for i in range(7))
LOOPY = "2 2\n0\n0 1\n"


@pytest.fixture
def write(tmp_path):
    def _write(text, name="g.hg"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return _write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestRankCommand:
    def test_human(self, write, capsys):
        assert main(["rank", write(H0)]) == 0
        out = capsys.readouterr().out
        assert "rank 2" in out

    def test_json(self, write, capsys):
        code, data = run_json(capsys, ["rank", write(H0), "--json"])
        assert code == 0
        assert data["rank"] == 2
        assert data["edge_set"] == [0, 1]

    def test_set_flag(self, write, capsys):
        code, data = run_json(capsys, ["rank", write(H0), "--set", "0", "--json"])
        assert code == 0 and data["rank"] == 1 and data["edge_set"] == [0]

    def test_bad_set(self, write, capsys):
        assert main(["rank", write(H0), "--set", "0,9"]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_oracle_match(self, write, capsys):
        assert main(["rank", write(H0), "--oracle"]) == 0
        assert "oracle rank: match" in capsys.readouterr().err

    def test_oracle_skip_on_guard(self, write, capsys):
        assert main(["rank", write(PATH8), "--oracle"]) == 0
        assert "skipped" in capsys.readouterr().err

    def test_oracle_mismatch_exit_3(self, write, capsys, monkeypatch):
        monkeypatch.setattr("hypermat.brute.brute_rank", lambda h, ids=None: 99)
        assert main(["rank", write(H0), "--oracle"]) == 3
        assert "MISMATCH" in capsys.readouterr().err


class TestIndependentCommand:
    def test_true(self, write, capsys):
        assert main(["independent", write(H0)]) == 0
        assert "independent" in capsys.readouterr().out

    def test_false(self, write, capsys):
        code, data = run_json(capsys, ["independent", write(K3), "--json"])
        assert code == 0 and data["independent"] is False

    def test_subset(self, write, capsys):
        code, data = run_json(
            capsys, ["independent", write(K3), "--set", "0,2", "--json"])
        assert code == 0 and data["independent"] is True and data["size"] == 2


class TestMaxforestCommand:
    def test_weights(self, write, capsys):
        code, data = run_json(capsys, ["maxforest", write(K3_COLS), "--json"])
        assert code == 0
        assert data["weight"] == "5" and data["edges"] == [1, 2]

    def test_missing_column(self, write, capsys):
        assert main(["maxforest", write(K3)]) == 1
        assert "column" in capsys.readouterr().err


class TestSeparateCommand:
    def test_set_violation(self, write, capsys):
        code, data = run_json(capsys, ["separate", write(K3_POINT), "--json"])
        assert code == 0
        assert data["in_polytope"] is False
        v = data["violation"]
        assert v["kind"] == "set"
        assert v["witness"] == [0, 1, 2]
        assert v["lhs"] == "3" and v["rhs"] == 2

    def test_inside(self, write, capsys):
        text = "3 3\n0 1 | 2/3\n1 2 | 2/3\n0 2 | 2/3\n"
        code, data = run_json(capsys, ["separate", write(text), "--json"])
        assert code == 0 and data == {"in_polytope": True}

    def test_bound_violation(self, write, capsys):
        text = "3 3\n0 1 | 3/2\n1 2 | 0\n0 2 | 0\n"
        code, data = run_json(capsys, ["separate", write(text), "--json"])
        assert code == 0
        v = data["violation"]
        assert v["kind"] == "bound" and v["edge"] == 0 and v["value"] == "3/2"


class TestStrengthCommand:
    def test_json_schema(self, write, capsys):
        code, data = run_json(capsys, ["strength", write(K3), "--json"])
        assert code == 0
        assert set(data) == {"strength", "floor", "partition", "iterations"}
        assert data["strength"] == "3/2"
        assert data["floor"] == 1
        assert data["partition"] == [[0], [1], [2]]

    def test_capacities_column(self, write, capsys):
        code, data = run_json(capsys, ["strength", write(K3_COLS), "--json"])
        assert code == 0 and data["strength"] == "3"

    def test_oracle_mismatch(self, write, capsys, monkeypatch):
        monkeypatch.setattr(
            "hypermat.brute.brute_strength",
            lambda h, c=None: (Fraction(99), Partition.singletons(h.n)))
        assert main(["strength", write(K3), "--oracle"]) == 3
        assert "MISMATCH" in capsys.readouterr().err


class TestArboricityCommand:
    def test_json(self, write, capsys):
        code, data = run_json(capsys, ["arboricity", write(K3), "--json"])
        assert code == 0
        assert data["arboricity"] == "3/2" and data["k"] == 2
        assert data["witness"] == [0, 1, 2]

    def test_loop_rejected(self, write, capsys):
        assert main(["arboricity", write(LOOPY)]) == 1
        assert "singleton" in capsys.readouterr().err


class TestReinforceCommand:
    def test_optimal_json(self, write, capsys):
        code, data = run_json(capsys, ["reinforce", write(H0), "-k", "1", "--json"])
        assert code == 0
        assert data == {"status": "optimal", "cost": "2", "x": ["2", "0"]}

    def test_infeasible_exit_2(self, write, capsys):
        code = main(["reinforce", write(H0_TIGHT), "-k", "1", "--json"])
        assert code == 2
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "infeasible"
        assert data["certificate"] == [[0], [1], [2]]

    def test_oracle_checks_infeasible(self, write, capsys):
        assert main(["reinforce", write(H0_TIGHT), "-k", "1", "--oracle"]) == 2
        assert "oracle reinforce: match" in capsys.readouterr().err

    def test_oracle_mismatch_beats_infeasible(self, write, capsys, monkeypatch):
        monkeypatch.setattr("hypermat.brute.brute_reinforce",
                            lambda h, k, d, u: ("optimal", Fraction(0), (0, 0)))
        assert main(["reinforce", write(H0_TIGHT), "-k", "1", "--oracle"]) == 3
        assert "oracle reinforce: MISMATCH" in capsys.readouterr().err

    def test_k_required(self, write, capsys):
        assert main(["reinforce", write(H0)]) == 1
        assert "-k" in capsys.readouterr().err

    def test_missing_columns(self, write, capsys):
        assert main(["reinforce", write(K3_COLS), "-k", "1"]) == 1
        assert "2 value column" in capsys.readouterr().err


class TestOracleCheck:
    def test_all_match(self, write, capsys):
        code, data = run_json(capsys, ["oracle-check", write(H0), "-k", "1", "--json"])
        assert code == 0
        assert data["all_match"] is True
        ops = {c["op"] for c in data["checks"]}
        assert ops == {"rank", "independent", "strength", "arboricity",
                       "maxforest", "separate", "reinforce"}
        assert all("skipped" not in c for c in data["checks"])

    def test_without_columns_or_k(self, write, capsys):
        code, data = run_json(capsys, ["oracle-check", write(K3), "--json"])
        assert code == 0
        ops = {c["op"] for c in data["checks"]}
        assert ops == {"rank", "independent", "strength", "arboricity"}

    def test_loop_skips_arboricity(self, write, capsys):
        code, data = run_json(capsys, ["oracle-check", write(LOOPY), "--json"])
        assert code == 0
        skipped = {c["op"] for c in data["checks"] if "skipped" in c}
        assert "arboricity" in skipped

    def test_mismatch_exit_3(self, write, capsys, monkeypatch):
        monkeypatch.setattr("hypermat.brute.brute_rank", lambda h, ids=None: 99)
        code = main(["oracle-check", write(K3)])
        assert code == 3
        assert "MISMATCH" in capsys.readouterr().out

    def test_each_brute_oracle_runs_once(self, write, capsys, monkeypatch):
        import hypermat.cli as cli

        calls = {"brute_rank": 0, "brute_hyperforest": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(cli.brute, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli.brute, name, counted)
        code, data = run_json(capsys, ["oracle-check", write(K3), "--json"])
        assert code == 0 and data["all_match"] is True
        assert calls == {"brute_rank": 1, "brute_hyperforest": 1}

    def test_main_routines_looked_up_per_call(self, write, capsys, monkeypatch):
        # benchmark tracing rebinds the module's names; the CLI must call through them
        import hypermat.cli as cli

        names = ("rank", "is_independent", "strength", "arboricity",
                 "max_weight_hyperforest", "separate_polytope", "reinforce")
        calls = []
        for name in names:
            def counted(*args, _name=name, _fn=getattr(cli, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(cli, name, counted)
        assert main(["oracle-check", write(H0), "-k", "1"]) == 0
        assert main(["strength", write(H0)]) == 0
        assert calls == [*names, "strength"]

    def test_human_lines(self, write, capsys):
        assert main(["oracle-check", write(K3)]) == 0
        out = capsys.readouterr().out
        assert "rank: main=2 oracle=2 ok" in out


ORACLE_CHECK_H0 = """\
rank: main=2 oracle=2 ok
independent: main=True oracle=True ok
strength: main=3/2 oracle=3/2 ok
arboricity: main=1 oracle=1 ok
maxforest: main=3 oracle=3 ok
separate: main=False oracle=False ok
reinforce: main=2 oracle=2 ok
"""


def _check_json(op, main_value, oracle_value, match):
    return (f'    {{\n      "op": "{op}",\n      "main": "{main_value}",\n'
            f'      "oracle": "{oracle_value}",\n      "match": {match}\n    }}')


ORACLE_CHECK_H0_JSON = ('{\n  "checks": [\n' + ",\n".join([
    _check_json("rank", 2, 2, "true"),
    _check_json("independent", True, True, "true"),
    _check_json("strength", "3/2", "3/2", "true"),
    _check_json("arboricity", 1, 1, "true"),
    _check_json("maxforest", 3, 3, "true"),
    _check_json("separate", False, False, "true"),
    _check_json("reinforce", 2, 2, "true"),
]) + '\n  ],\n  "all_match": true\n}\n')


class TestFullStdout:
    """The complete stdout and exit code, so a reordered line or key shows."""

    @pytest.mark.parametrize("text, argv, code, expected", [
        (H0, ["rank"], 0, "rank 2\nwitness {0,1,2}\n"),
        (H0, ["rank", "--set", "0"], 0, "rank 1\nwitness {0} {1} {2}\n"),
        (K3, ["independent"], 0, "dependent\n"),
        (H0, ["independent"], 0, "independent\n"),
        (K3_COLS, ["maxforest"], 0, "weight 5\nedges 1 2\n"),
        (K3_POINT, ["separate"], 0,
         "violated: x(E[W]) = 3 > 2 = |W| - 1\nW = [0, 1, 2]\n"),
        ("3 3\n0 1 | 2/3\n1 2 | 2/3\n0 2 | 2/3\n", ["separate"], 0, "in polytope\n"),
        ("3 3\n0 1 | 3/2\n1 2 | 0\n0 2 | 0\n", ["separate"], 0,
         "violated: x(0) <= 1 but x(0) = 3/2\n"),
        (K3, ["strength"], 0, "strength 3/2 (floor 1)\ncritical {0} {1} {2}\niterations 1\n"),
        (K3, ["arboricity"], 0, "arboricity 3/2 (k 2)\nwitness [0, 1, 2]\n"),
        (H0, ["reinforce", "-k", "1"], 0, "cost 2\nx 2 0\n"),
        (H0_TIGHT, ["reinforce", "-k", "1"], 2, "infeasible\ncertificate {0} {1} {2}\n"),
        (H0, ["oracle-check", "-k", "1"], 0, ORACLE_CHECK_H0),
        (LOOPY, ["oracle-check"], 0,
         "rank: main=1 oracle=1 ok\nindependent: main=False oracle=False ok\n"
         "strength: main=1 oracle=1 ok\narboricity: skipped (edge 0 is a singleton)\n"),
        (H0, ["oracle-check", "-k", "1", "--json"], 0, ORACLE_CHECK_H0_JSON),
    ])
    def test_stdout(self, write, capsys, text, argv, code, expected):
        assert main([argv[0], write(text), *argv[1:]]) == code
        assert capsys.readouterr().out == expected


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["rank", "/nonexistent/file.hg"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_bad_format(self, write, capsys):
        assert main(["rank", write("3\n")]) == 1
        assert "header" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate", "x"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "command" in capsys.readouterr().err
