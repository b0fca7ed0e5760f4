import csv
import hashlib
import io
import json
import re
import shlex
import time
from pathlib import Path

import pytest

import stoimenow.cli as cli
from stoimenow import enumeration, identities, series, verify
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


@pytest.mark.parametrize(
    "args, digest",
    [
        (["--n", "9"], "62a8d95234dddb4d62130e76ed46acd66d19206922ceecaadf775bbceacde585"),
        (
            ["--n", "8", "--format", "json"],
            "b665be1004e288a88c99e921439dcea3cf31cf2a55f37f9b6675c2425e82c418",
        ),
    ],
)
def test_gen_output_is_pinned_byte_for_byte(capsys, args, digest):
    # digests taken from the search that popped one node per closer
    code, out, _ = run(capsys, "gen", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_count_one_size_as_json(capsys):
    code, out, _ = run(capsys, "count", "--n", "5", "--avoid", "R4,P1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"patterns": "P1,R4", "n": 5, "count": 11}
    code, out, _ = run(capsys, "count", "--n", "5", "--avoid", "R4,P1", "--format", "csv")
    assert out == "11\n"
    code, out, _ = run(capsys, "count", "--n", "9", "--format", "json")
    assert json.loads(out) == {"patterns": "", "n": 9, "count": 31240}


def test_count_refuses_a_set_past_the_occurrence_budget(capsys, monkeypatch):
    monkeypatch.setattr(enumeration, "MAX_HELD_OCCURRENCES", 39)
    code, out, err = run(capsys, "count", "--n", "6", "--avoid", "P1")
    assert code == 2
    assert out == ""
    assert "more than 39 partial occurrences" in err
    monkeypatch.undo()
    # P1,P2 goes past the budget at the size cap
    code, out, err = run(capsys, "count", "--n", "14", "--avoid", "P1,P2")
    assert code == 2
    assert out == ""
    assert f"more than {enumeration.MAX_HELD_OCCURRENCES} partial occurrences" in err


def test_pattern_free_count_reaches_the_size_cap(capsys):
    code, out, _ = run(capsys, "count", "--n", "14")
    assert code == 0
    assert out == "796713190\n"
    code, out, _ = run(capsys, "count", "--n-max", "14")
    assert code == 0
    assert out.splitlines()[-1] == ",14,796713190"


def test_pattern_free_count_reaches_the_series_cap(capsys):
    # F(64), from the ascent-sequence DP (`fishburn_oracle(64)`)
    f64 = "39921188510110481663222349863704777328113003001966505846965727427322450165110"
    cap = enumeration.MAX_FISHBURN_ARCS
    assert cap == cli.MAX_ORDER == 64
    code, out, _ = run(capsys, "count", "--n", str(cap))
    assert code == 0
    assert out == f64 + "\n"
    code, out, _ = run(capsys, "count", "--n", str(cap), "--format", "json")
    assert json.loads(out) == {"patterns": "", "n": cap, "count": int(f64)}
    code, out, _ = run(capsys, "count", "--n-max", str(cap))
    assert code == 0
    column = enumeration.fishburn_numbers(cap)
    assert out.splitlines() == ["patterns,n,count", *(f",{n},{column[n]}" for n in range(1, cap + 1))]
    for n in range(cap + 1):
        assert run(capsys, "count", "--n", str(n))[1] == f"{column[n]}\n", n


def test_pattern_free_count_workers_byte_identical(capsys):
    _, one, _ = run(capsys, "count", "--n-max", "9", "--workers", "1")
    _, two, _ = run(capsys, "count", "--n-max", "9", "--workers", "2")
    assert one == two
    assert one.splitlines()[-1] == ",9,31240"


def _forbid_walks(monkeypatch):
    def no_walk(n):
        raise AssertionError(f"walked M_{n}")

    monkeypatch.setattr(enumeration, "completions", no_walk)


def test_walking_commands_refuse_sizes_past_their_limit(capsys, monkeypatch):
    _forbid_walks(monkeypatch)  # each refusal comes before the first walk

    def no_layer(*args):
        raise AssertionError("built the counter's occurrence table")

    monkeypatch.setattr(enumeration, "_Occurrences", no_layer)  # and before any layer
    for argv, cap in (
        (["gen", "--n", "12"], "at most 11"),
        (["count", "--n", "15", "--avoid", "P1"], "at most 14"),
        (["count", "--n-max", "12", "--avoid", "P1"], "at most 11"),
        (["table", "--n-max", "12"], "at most 11"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5, argv
        assert code == 2, argv
        assert out == ""
        assert cap in err
    for argv in (
        ["gen", "--n", "-1"],
        ["gen", "--n", "15"],
        ["count", "--n", str(enumeration.MAX_FISHBURN_ARCS + 1)],
        ["count", "--n-max", str(enumeration.MAX_FISHBURN_ARCS + 1)],
        ["count", "--n-max", "0"],
        ["table", "--n-max", "0"],
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5, argv
        assert code == 2, argv
        assert out == ""
        assert "error" in err


@pytest.mark.parametrize("suite", ["omega", "bijections", "all"])
def test_walking_check_suites_refuse_n_max_past_the_cap(capsys, monkeypatch, suite):
    cap = verify.MAX_CHECK_WALK_ARCS
    _forbid_walks(monkeypatch)
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--suite", suite, "--n-max", str(cap + 1))
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert f"--n-max must be at most {cap} for check --suite {suite}" in err


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


def test_series_name_accepts_any_pattern_order(capsys):
    for given, canonical in (("P4,P2", "P2,P4"), ("P5,P3,P4", "P3,P4,P5")):
        got = run(capsys, "series", "--name", given, "--order", "8")
        assert got[0] == 0
        assert got == run(capsys, "series", "--name", canonical, "--order", "8")


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


def test_atlas_literals_are_named_like_the_atlas(capsys):
    p1 = "(1,3)(2,7)(4,5)(6,8)"
    assert run(capsys, "series", "--name", f"{p1},P2", "--order", "8") == run(
        capsys, "series", "--name", "P1,P2", "--order", "8"
    )
    literal = run(capsys, "table", "--n-max", "4", "--rows", f"{p1},P2")
    assert literal[0] == 0
    assert literal == run(capsys, "table", "--n-max", "4", "--rows", "P1,P2")
    code, out, _ = run(capsys, "count", "--n-max", "3", "--avoid", "(1,3)(2,5)(4,6)")
    assert code == 0
    assert out == "patterns,n,count\nR3,1,1\nR3,2,2\nR3,3,4\n"


def test_series_usage_errors(capsys):
    code, _, err = run(capsys, "series", "--num", "1", "--den", "bogus!")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "series", "--name", "nope")
    assert code == 2
    # a valid pattern set that names no registry series
    code, _, err = run(capsys, "series", "--name", "P1")
    assert code == 2
    assert "unknown series name 'P1'" in err
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
    # a valid pattern set that is not a registry row
    code, out, err = run(capsys, "table", "--rows", "P1")
    assert code == 2
    assert out == ""
    assert "unknown rows: ['P1']" in err


@pytest.mark.parametrize("rows", [";", ""])
def test_table_rows_selecting_nothing_are_refused(capsys, rows):
    code, out, err = run(capsys, "table", "--n-max", "3", "--rows", rows)
    assert code == 2
    assert out == ""
    assert "select no row" in err


# One tiny run per subcommand that has --format; every choice runs once.
FORMAT_ARGS = {
    "gen": ["--n", "2", "--avoid", "P1"],
    "count": ["--n-max", "3", "--avoid", "P1"],
    "table": ["--n-max", "3"],
    "series": ["--name", "R3", "--order", "4"],
}


def test_every_output_format_runs(capsys):
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    formats = {
        name: action.choices
        for name, sub in commands.items()
        for action in sub._actions
        if action.dest == "format"
    }
    assert set(formats) == set(FORMAT_ARGS)
    for name, choices in formats.items():
        for fmt in choices:
            code, out, err = run(capsys, name, *FORMAT_ARGS[name], "--format", fmt)
            assert (code, err) == (0, ""), (name, fmt)
            assert out.strip(), (name, fmt)
            if fmt == "csv":
                rows = list(csv.reader(io.StringIO(out)))
                assert len(rows) > 1 and {len(row) for row in rows} == {len(rows[0])}, name
            elif fmt == "json":
                # gen streams one JSON value per line; a report is one value
                for doc in out.splitlines() if name == "gen" else [out]:
                    json.loads(doc)


def test_table_csv_and_count_json_are_pinned(capsys):
    code, out, _ = run(capsys, "table", "--n-max", "3", "--rows", "P1,P2", "--format", "csv")
    assert code == 0
    assert out == (
        "patterns,n,count,expected,agree\n"
        '"P1,P2",1,1,1,true\n'
        '"P1,P2",2,2,2,true\n'
        '"P1,P2",3,5,5,true\n'
    )
    code, out, _ = run(capsys, "count", "--n-max", "3", "--avoid", "P1,P3", "--format", "json")
    assert code == 0
    assert out == (
        '[\n  {\n    "patterns": "P1,P3",\n    "n_from": 1,\n'
        '    "counts": [\n      1,\n      2,\n      5\n    ]\n  }\n]\n'
    )


@pytest.mark.parametrize(
    "suite, name, broken, failing",
    [
        ("bijections", "split", lambda real: lambda m: real(m)[::-1], {"glue-then-split", "split-then-glue"}),
        (
            "bijections",
            "string_to_matching",
            lambda real: lambda word: real(word[::-1]),
            {"string-worked-examples", "string-bijection"},
        ),
        ("omega", "interval_type", lambda real: lambda p: 0, {"omega-injective"}),
        (
            "bijections",
            "avoider_counts",
            lambda real: lambda n, s: [count + 1 for count in real(n, s)],
            {"glue-then-split", "string-bijection"},
        ),
        (
            "omega",
            "poset_contains",
            lambda real: lambda p, name: not real(p, name),
            {"omega-images-2+2-free", "omega-P1-iff-3+1-free", "omega-P2-iff-N-free"},
        ),
        (
            "omega",
            "avoider_counts",
            lambda real: lambda n, s: [count + 1 for count in real(n, s)],
            {"omega-P1-iff-3+1-free", "omega-P2-iff-N-free"},
        ),
        # P3-avoiders are Catalan-many too, so only the check that omega(P1) has a 3+1 fails
        (
            "omega",
            "registry",
            lambda real: lambda: {**real(), "P1": real()["P3"]},
            {"omega-P1-iff-3+1-free"},
        ),
    ],
)
def test_walking_suites_report_a_broken_map(capsys, monkeypatch, suite, name, broken, failing):
    monkeypatch.setattr(verify, name, broken(getattr(verify, name)))
    code, out, _ = run(capsys, "check", "--suite", suite, "--n-max", "3")
    assert code == 1
    assert {line.partition(": ")[0] for line in out.splitlines() if ": FAIL" in line} == failing


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


def test_case_sums_report_a_broken_registry_form(capsys, monkeypatch):
    reg = dict(identities.gf_registry())
    reg["P1,P3"] = reg["P1,P4"]
    monkeypatch.setattr(identities, "gf_registry", lambda: reg)
    code, out, _ = run(capsys, "check", "--suite", "case-sums", "--order", "12")
    assert code == 1
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        "case-sum P1,P3: FAIL (order=12)"
    ]


@pytest.mark.parametrize("suite", ["h-eq", "f-catalan"])
def test_series_suites_refuse_order_zero(capsys, suite):
    # at order 0 both sides hold only their constant terms, equal by construction
    code, out, err = run(capsys, "check", "--suite", suite, "--order", "0")
    assert code == 2
    assert out == ""
    assert err == "error: order must be at least 1\n"
    code, out, _ = run(capsys, "check", "--suite", suite, "--order", "1")
    assert code == 0
    assert out.endswith(": PASS (order=1)\n")


def test_fibonacci_suite_names_the_order_it_refuses(capsys):
    code, out, err = run(capsys, "check", "--suite", "fibonacci", "--order", "0")
    assert code == 2
    assert out == ""
    assert err == "error: order must be at least 1\n"


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


def test_bounds_rejected(capsys, monkeypatch):
    _forbid_walks(monkeypatch)
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


def test_readme_limits_quote_every_cap():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    notes = readme[readme.index("* Size limits."):]
    for module, name in (
        (enumeration, "MAX_ARCS"),
        (enumeration, "MAX_FISHBURN_ARCS"),
        (enumeration, "MAX_HELD_OCCURRENCES"),
        (enumeration, "MAX_WALK_ARCS"),
        (verify, "MAX_CHECK_WALK_ARCS"),
        (cli, "MAX_ORDER"),
        (series, "MAX_DEGREE"),
        (cli, "MAX_BIJECT_ARCS"),
    ):
        quoted = f"`{module.__name__.rsplit('.', 1)[1]}.{name} = {getattr(module, name)}`"
        assert quoted in " ".join(notes.split()), quoted


def test_readme_library_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library quick tour\n.*?```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


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


def test_count_refuses_both_bounds(capsys):
    code, out, err = run(capsys, "count", "--n", "3", "--n-max", "5")
    assert code == 2
    assert out == ""
    assert "error" in err
