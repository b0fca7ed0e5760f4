"""Tests of the benchmark harness itself: tracer bindings, failure
accounting and repeatable counters.  Workloads run at small sizes here."""

import contextlib
import inspect
import io
import json
import random
import sys
from pathlib import Path

import pytest

import stoimenow
import stoimenow.cli as cli
from stoimenow import enumeration, patterns, series, verify

import calibration
import oracles
import run
import workloads
from tracer import LAYERS, Tracer
from workloads import Session


def _bindings():
    """Every attribute of every package module and of the classes they define."""
    targets = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "stoimenow"}
    for name, mod in list(targets.items()):
        for attr, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == name:
                targets[f"{name}.{attr}"] = obj
    return {(t, attr): value for t, obj in targets.items() for attr, value in vars(obj).items()}


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_tracer_rebinds_import_sites_and_restores_them():
    before = _bindings()
    original_contains = patterns.contains
    original_mul = series.PowerSeries.__mul__
    with Tracer() as tracer:
        assert enumeration.contains is not original_contains
        assert verify.contains is enumeration.contains
        assert cli.count_table is verify.count_table is enumeration.count_table
        assert stoimenow.count_table is enumeration.count_table
        assert series.PowerSeries.__rmul__ is series.PowerSeries.__mul__ is not original_mul
        assert _quiet(["count", "--n-max", "5", "--avoid", "P1", "--workers", "2"])[0] == 0
        assert _quiet(["check", "--suite", "h-eq", "--order", "8"])[0] == 0
    stats = tracer.stats()
    assert stats["patterns.contains"].calls > 0
    assert stats["series.mul"].calls > 0
    assert _bindings().keys() == before.keys()
    assert all(_bindings()[key] is value for key, value in before.items())


def test_tracer_restores_bindings_after_an_exception():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert all(_bindings()[key] is value for key, value in before.items())


def test_recursion_is_one_span_and_self_time_excludes_children():
    with Tracer() as tracer:
        rc, out = _quiet(["check", "--suite", "all", "--order", "6", "--n-max", "3"])
    assert rc == 0
    stats = tracer.stats()
    assert stats["verify.run_suite"].calls == 1
    assert stats["verify.h_suite"].calls == 1 and stats["enumeration.completions.next"].items > 0
    main = stats["cli.main"]
    assert 0 <= main.self_time < main.total


def test_pool_threads_wait_while_the_calibration_loop_runs(monkeypatch):
    """The timer's loop may run inside a --workers invocation and have its
    span cut out, because the pool threads make no progress meanwhile."""
    calls = [0]
    progress = []  # contains calls made by the pool during each loop

    def counted(*args):
        calls[0] += 1
        return original_contains(*args)

    def watched():
        before = calls[0]
        elapsed = original_loop()
        progress.append(calls[0] - before)
        return elapsed

    original_contains, original_loop = enumeration.contains, calibration.loop_time
    monkeypatch.setattr(enumeration, "contains", counted)
    monkeypatch.setattr(calibration, "loop_time", watched)
    session = Session(main=cli.main)
    with session.ticking():
        session.run("step", ["table", "--n-max", "7", "--workers", "2"], lambda rc, out: rc == 0)
    assert session.failed == 0 and calls[0] > 0
    assert len(progress) >= 3
    assert sum(1 for p in progress if p) <= 1  # a rare forced GIL switch at most


def _corrupting(transform):
    def main(argv):
        rc, out = _quiet(argv)
        sys.stdout.write(transform(argv, out))
        return rc

    return main


def _drop_last_gen_line(argv, out):
    return "".join(out.splitlines(keepends=True)[:-1]) if argv[0] == "gen" else out


def _off_by_one(argv, out):
    if argv[:3] == ["count", "--n", "5"]:
        return f"{int(out) + 1}\n"
    return out


@pytest.mark.parametrize(
    "transform, failed",
    [(lambda argv, out: out, 0), (_drop_last_gen_line, 1), (_off_by_one, 1)],
)
def test_corrupted_outputs_count_as_failures(transform, failed):
    session = Session(main=_corrupting(transform))
    workloads.fishburn(5).round(session, random.Random(0))
    assert session.attempted == 3
    assert session.failed == failed


def test_corrupted_table_row_is_a_failure():
    def bump_first_count(argv, out):
        return out.replace("counts=1,", "counts=2,", 1) if argv[0] == "table" else out

    honest = Session(main=cli.main)
    workloads.avoid(5).round(honest, random.Random(0))
    assert (honest.attempted, honest.failed) == (4, 0)
    corrupted = Session(main=_corrupting(bump_first_count))
    workloads.avoid(5).round(corrupted, random.Random(0))
    assert corrupted.failed == 2


def test_lab_round_checks_pass_and_broken_bijection_fails():
    small = dict(order=12, n_max=4, word_len=4, glue_total=3, calls=8)
    session = Session(main=cli.main)
    workloads.lab(**small).round(session, random.Random(1))
    assert session.attempted > 8 and session.failed == 0

    def reverse_words(argv, out):
        return out[-2::-1] + "\n" if argv[:3] == ["biject", "--op", "unstring"] and out.strip() else out

    broken = Session(main=_corrupting(reverse_words))
    workloads.lab(**small).round(broken, random.Random(1))
    assert broken.failed > 0


def _traced_counts(argv):
    usefulness = run.Usefulness()
    with Tracer(on_result=usefulness.hooks()) as tracer:
        assert _quiet(argv)[0] == 0
    figures = run.layer_metrics(tracer.stats(), usefulness)
    return {k: v for k, v in figures.items() if run.LAYER_METRICS[k] == "count"}


def test_exact_counters_repeat():
    first = _traced_counts(["table", "--n-max", "6"])
    assert first == _traced_counts(["table", "--n-max", "6"])
    leaves = sum(oracles.fishburn(k) for k in range(1, 7))
    assert first["enumeration.leaves"] == leaves
    # five distinct patterns over the 26 rows: at most one test per pattern per leaf
    assert 0 < first["patterns.contains.calls"] <= 5 * leaves
    assert first["patterns.leaves_tested"] == 26 * leaves


def test_pattern_free_generation_makes_no_containment_calls():
    counts = _traced_counts(["gen", "--n", "6"])
    assert counts["enumeration.leaves"] == oracles.fishburn(6)
    assert counts["patterns.contains.calls"] == 0
    assert counts["matching.format_arcs.calls"] == oracles.fishburn(6)


def test_benchmark_json_names_match_the_emitted_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_METRICS
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", *workloads.STEPS, "ok_frac", "peak_rss_mib"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(LAYERS) == {name.split(".")[0] for name in run.LAYER_METRICS if "." in name}


def test_oracles_match_known_values():
    assert [oracles.fishburn(n) for n in range(10)] == [1, 1, 2, 5, 15, 53, 217, 1014, 5335, 31240]
    assert [len(oracles.p2_avoiders(n)) for n in range(5)] == [oracles.catalan(n) for n in range(5)]
    assert oracles.series_expansion((1, -1), (1, -2), 4) == [1, 1, 2, 4, 8]
