import json
import re
import shlex
import time
from pathlib import Path

import pytest

import stoimenow.cli as cli
from stoimenow.cli import main


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_small(capsys):
    code, out, _ = run(capsys, "gen", "--n", "2")
    assert code == 0
    assert out == "(1,2)(3,4)\n(1,3)(2,4)\n"
    code, out, _ = run(capsys, "gen", "--n", "1")
    assert out == "(1,2)\n"
    code, out, _ = run(capsys, "gen", "--n", "0")
    assert out == "\n"


def test_gen_with_filter(capsys):
    code, out, _ = run(capsys, "gen", "--n", "5", "--avoid", "P3")
    assert code == 0
    assert len(out.splitlines()) == 42


def test_gen_workers_identical(capsys):
    _, serial, _ = run(capsys, "gen", "--n", "5", "--workers", "1")
    _, parallel, _ = run(capsys, "gen", "--n", "5", "--workers", "4")
    assert serial == parallel


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--n", "5", "--avoid", "R4")
    assert code == 0
    assert out == "16\n"
    code, out, _ = run(capsys, "count", "--n-max", "4", "--avoid", "P3")
    assert out == 'patterns,n,count\nP3,1,1\nP3,2,2\nP3,3,5\nP3,4,14\n'


def test_pattern_free_count_reaches_the_size_cap(capsys):
    code, out, _ = run(capsys, "count", "--n", "14")
    assert code == 0
    assert out == "796713190\n"
    code, out, _ = run(capsys, "count", "--n-max", "14")
    assert code == 0
    assert out.splitlines()[-1] == ",14,796713190"


def test_pattern_free_count_workers_byte_identical(capsys):
    _, one, _ = run(capsys, "count", "--n-max", "9", "--workers", "1")
    _, two, _ = run(capsys, "count", "--n-max", "9", "--workers", "2")
    assert one == two
    assert one.splitlines()[-1] == ",9,31240"


def test_walking_commands_refuse_sizes_past_their_limit(capsys):
    for argv in (
        ["gen", "--n", "12"],
        ["count", "--n", "12", "--avoid", "P1"],
        ["count", "--n-max", "12", "--avoid", "P1"],
        ["table", "--n-max", "12"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "at most 11" in err


@pytest.mark.parametrize("suite", ["omega", "bijections", "all"])
def test_walking_check_suites_refuse_n_max_past_8(capsys, suite):
    code, out, err = run(capsys, "check", "--suite", suite, "--n-max", "9")
    assert code == 2
    assert out == ""
    assert f"--n-max must be at most 8 for check --suite {suite}" in err


def test_series_check_suites_ignore_n_max(capsys):
    for suite in ("h-eq", "f-catalan", "case-sums", "fibonacci"):
        code, out, _ = run(capsys, "check", "--suite", suite, "--n-max", "14", "--order", "8")
        assert code == 0, suite
        assert "FAIL" not in out


def test_series_refuses_degree_past_the_cap_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "series", "--num", "1", "--den", "1-x^3000000", "--order", "4")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert "exceeds 1000" in err


def test_series_by_name(capsys):
    code, out, _ = run(capsys, "series", "--name", "P3,P4,P5", "--order", "8")
    assert code == 0
    values = [line.split(",")[1] for line in out.splitlines()[1:]]
    assert values == ["1", "1", "2", "5", "12", "28", "65", "151", "351"]
    code, out, _ = run(capsys, "series", "--name", "P1,P2,P4,P5", "--order", "8")
    values = [line.split(",")[1] for line in out.splitlines()[1:]]
    assert values == ["1", "1", "2", "5", "11", "22", "42", "79", "149"]


def test_series_by_polynomials(capsys):
    code, out, _ = run(capsys, "series", "--num", "1", "--den", "1-1x", "--order", "3")
    assert code == 0
    assert out == "n,coefficient\n0,1\n1,1\n2,1\n3,1\n"


def test_series_bfile(capsys):
    code, out, _ = run(
        capsys, "series", "--name", "P1,P2", "--order", "4", "--format", "bfile"
    )
    assert out == "1 1\n2 2\n3 5\n4 13\n"
    code, out, _ = run(
        capsys, "series", "--name", "P1,P2", "--order", "4", "--format", "bfile",
        "--with-zero",
    )
    assert out == "0 1\n1 1\n2 2\n3 5\n4 13\n"


def test_series_usage_errors(capsys):
    code, _, err = run(capsys, "series", "--num", "1", "--den", "bogus!")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "series", "--name", "nope")
    assert code == 2
    code, _, err = run(capsys, "series")
    assert code == 2


def test_table_single_row(capsys):
    code, out, _ = run(capsys, "table", "--n-max", "4", "--rows", "P1,P2")
    assert code == 0
    assert "P1,P2 [A116703] counts=1,2,5,13 expansion=1,2,5,13 agree" in out
    assert "overall: PASS (1/1 rows agree, n_max=4)" in out


def test_table_all_rows_trivial(capsys):
    code, out, _ = run(capsys, "table", "--n-max", "1")
    assert code == 0
    assert "overall: PASS (26/26 rows agree, n_max=1)" in out


def test_table_note_and_json(capsys):
    code, out, _ = run(capsys, "table", "--n-max", "6", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["overall_pass"] is True
    noted = [row["patterns"] for row in report["rows"] if row["note"]]
    assert noted == ["P1,P3,P4", "P1,P3,P5"]


def test_table_workers_byte_identical(capsys):
    _, one, _ = run(capsys, "table", "--n-max", "5", "--workers", "1")
    _, four, _ = run(capsys, "table", "--n-max", "5", "--workers", "4")
    assert one == four


def test_table_unknown_row(capsys):
    code, _, err = run(capsys, "table", "--rows", "P1,P9")
    assert code == 2


@pytest.mark.parametrize("rows", [";", ""])
def test_table_rows_selecting_nothing_are_refused(capsys, rows):
    code, out, err = run(capsys, "table", "--n-max", "3", "--rows", rows)
    assert code == 2
    assert out == ""
    assert "select no row" in err


def test_check_suites(capsys):
    code, out, _ = run(capsys, "check", "--suite", "fibonacci")
    assert code == 0
    assert "fibonacci-identity: PASS" in out
    code, out, _ = run(capsys, "check", "--suite", "h-eq", "--order", "12")
    assert code == 0
    code, out, _ = run(capsys, "check", "--suite", "case-sums")
    assert code == 0
    assert len(out.splitlines()) == 18
    code, out, _ = run(capsys, "check", "--suite", "omega", "--n-max", "4")
    assert code == 0
    code, out, _ = run(capsys, "check", "--suite", "bijections", "--n-max", "4")
    assert code == 0
    code, out, _ = run(capsys, "check", "--suite", "all", "--n-max", "3")
    assert code == 0


def test_biject_operations(capsys):
    code, out, _ = run(capsys, "biject", "--op", "string", "--input", "bbabaab")
    assert code == 0
    assert out == "(1,5)(2,9)(3,12)(4,13)(6,7)(8,10)(11,14)(15,16)\n"
    code, out, _ = run(
        capsys, "biject", "--op", "unstring",
        "--input", "(1,5)(2,9)(3,12)(4,13)(6,7)(8,10)(11,14)(15,16)",
    )
    assert out == "bbabaab\n"
    code, out, _ = run(capsys, "biject", "--op", "split", "--input", "(1,2)")
    assert out == "∅ | ∅\n"
    code, out, _ = run(
        capsys, "biject", "--op", "glue", "--left", "(1,3)(2,4)", "--right", ""
    )
    assert out == "(1,4)(2,5)(3,6)\n"
    code, out, _ = run(capsys, "biject", "--op", "omega", "--input", "(1,2)(3,4)")
    assert json.loads(out) == {
        "size": 2,
        "covers": [[1, 2]],
        "less": [[0, 1], [0, 0]],
    }


def test_biject_precondition_failure(capsys):
    code, _, err = run(
        capsys, "biject", "--op", "split", "--input", "(1,3)(2,5)(4,7)(6,8)"
    )
    assert code == 1
    assert "NotP2Avoiding" in err
    code, _, err = run(capsys, "biject", "--op", "split", "--input", "")
    assert code == 1
    assert "EmptyMatching" in err


def test_biject_usage_errors(capsys):
    code, _, err = run(capsys, "biject", "--op", "string")
    assert code == 2
    code, _, err = run(capsys, "biject", "--op", "glue", "--input", "(1,2)")
    assert code == 2


def crossing(n):
    return "".join(f"({i},{i + n})" for i in range(1, n + 1))


def test_biject_refuses_operands_past_the_limit_at_once(capsys):
    big = crossing(cli.MAX_BIJECT_ARCS + 1)
    for argv in (
        ["--op", "split", "--input", big],
        ["--op", "unstring", "--input", big],
        ["--op", "omega", "--input", big],
        ["--op", "glue", "--left", big, "--right", "(1,2)"],
        ["--op", "glue", "--left", "(1,2)", "--right", big],
        ["--op", "string", "--input", "a" * cli.MAX_BIJECT_ARCS],
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "biject", *argv)
        assert time.perf_counter() - start < 0.5, argv
        assert code == 2, argv
        assert out == ""
        assert f"biject takes at most {cli.MAX_BIJECT_ARCS}" in err


def test_biject_splits_an_all_crossing_input_at_the_limit(capsys):
    n = cli.MAX_BIJECT_ARCS
    code, out, _ = run(capsys, "biject", "--op", "split", "--input", crossing(n))
    assert code == 0
    assert out == f"{crossing(n - 1)} | ∅\n"


def test_bounds_rejected(capsys):
    code, _, err = run(capsys, "gen", "--n", "15")
    assert code == 2
    code, _, err = run(capsys, "series", "--name", "R3", "--order", "65")
    assert code == 2


def test_workers_must_be_positive_and_oeis_is_gone(capsys):
    for argv in (["gen", "--n", "3"], ["count", "--n", "3"], ["table", "--n-max", "3"]):
        code, out, err = run(capsys, *argv, "--workers", "0")
        assert code == 2, argv
        assert out == ""
        assert "--workers must be at least 1" in err
    with pytest.raises(SystemExit) as exc:
        main(["oeis", "--name", "P2,P4"])
    assert exc.value.code == 2


def test_docs_list_every_subcommand():
    (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    commands = set(sub.choices)
    listed = re.search(r"Commands: ([^.]*)\.", cli.__doc__).group(1)
    assert set(listed.split(", ")) == commands
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for command in commands:
        assert f"stoimenow {command} " in readme, command


def test_readme_cli_examples_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    examples = [line for line in block.splitlines() if line.startswith("stoimenow ")]
    assert len(examples) >= 20
    for line in examples:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
        capsys.readouterr()


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "2", "--bogus"])
    assert exc.value.code == 2


def test_gen_json_format(capsys):
    code, out, _ = run(capsys, "gen", "--n", "2", "--format", "json")
    assert code == 0
    assert out == "[[1, 2], [3, 4]]\n[[1, 3], [2, 4]]\n"


def test_count_requires_a_bound(capsys):
    code, _, err = run(capsys, "count", "--avoid", "P3")
    assert code == 2
    assert "error" in err
