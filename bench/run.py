"""Benchmark for the stoimenow CLI: end-to-end wall times and layer traces.

Run from the repository root:

    python3 bench/run.py --workload fishburn|avoid|lab --seed N --seconds S --trace 0|1

The package is imported from ``src/`` next to this directory.  With
``--trace 0`` the run measures set-up time in fresh interpreters, then
runs closed-loop rounds of the workload for S seconds and reports the
end-to-end metrics.  With ``--trace 1`` it alternates untraced and traced
rounds for S seconds and reports the per-layer metrics of the traced
rounds plus the tracing overhead.  Every invocation's output is checked
against independent oracles.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import calibration
from tracer import Stat, Tracer, generator_stats
from workloads import STEPS, WORKLOADS, Session

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
SETUP_CODE = """\
import time
from statistics import median
from calibration import loop_time
before = median(loop_time() for _ in range(3))
start = time.perf_counter()
import stoimenow.cli
from stoimenow.identities import gf_registry, multi_avoidance_rows
from stoimenow.patterns import registry
gf_registry(); multi_avoidance_rows(); registry(); stoimenow.cli.build_parser()
elapsed = time.perf_counter() - start
print(elapsed, (before + median(loop_time() for _ in range(3))) / 2)
"""

SUITE_FUNCTIONS = {
    "h-eq": "h_suite",
    "f-catalan": "f_catalan_suite",
    "case-sums": "case_sum_suite",
    "fibonacci": "fibonacci_suite",
    "omega": "omega_suite",
    "bijections": "bijection_suite",
}
TIMED = ("matching.format_arcs", "matching.parse_arcs")
TIMED += tuple(f"series.{k}" for k in ("mul", "truediv", "sqrt", "gf_coefficients"))
TIMED += tuple(f"posets.{k}" for k in ("omega", "poset_contains", "canonical_form"))
PER_CALL = tuple(f"bijections.{k}" for k in ("glue", "split", "string_to_matching", "matching_to_string"))

# Per-layer metrics of one traced round: name -> unit.
LAYER_METRICS = {
    "enumeration.leaves": "count",
    "enumeration.us_per_leaf": "us",
    "enumeration.count_stoimenow.s": "s",
    "enumeration.count_table.s": "s",
    "enumeration.count_table.self_s": "s",
    "patterns.contains.calls": "count",
    "patterns.contains.hits": "count",
    "patterns.contains.us_per_call": "us",
    "patterns.contains.calls_per_leaf": "ratio",
    "patterns.avoids_all.calls": "count",
    "patterns.leaves_tested": "count",
    "patterns.useful_ratio": "ratio",
    **{f"{name}.{m}": u for name in TIMED[:6] for m, u in (("calls", "count"), ("s", "s"))},
    "identities.check_case_sums.s": "s",
    "identities.catalan_series.s": "s",
    "identities.h_series.s": "s",
    **{f"{name}.{m}": u for name in TIMED[6:] for m, u in (("calls", "count"), ("s", "s"))},
    **{f"{name}.{m}": u for name in PER_CALL for m, u in (("calls", "count"), ("us_per_call", "us"))},
    "verify.verify_table.s": "s",
    **{f"verify.suite.{k}.s": "s" for k in SUITE_FUNCTIONS},
    "cli.build_parser.calls": "count",
    "cli.build_parser.s": "s",
    "trace_overhead": "ratio",
}


def import_package():
    """Import stoimenow from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import stoimenow.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import stoimenow from {SRC}: {exc}")
    if SRC not in Path(stoimenow.__file__).resolve().parents:
        raise SystemExit(f"bench: stoimenow was imported from {stoimenow.__file__}, not {SRC}")
    return stoimenow.cli


def measure_setup() -> list[float]:
    """Import, registries and first parser build, each in a fresh interpreter,
    normalised by calibration loops run in that interpreter around it.

    Byte code is cached under .bench_build/, whatever the caller's
    environment says, and one unmeasured run fills that cache first, so
    compiling the sources is never part of the time.
    """
    path = [str(SRC), str(HERE), os.environ.get("PYTHONPATH")]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
        )
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up run failed: {proc.stderr.strip()[-500:]}")
        if i:
            elapsed, loop = map(float, proc.stdout.split())
            times.append(calibration.normalised(elapsed, loop))
    return times


class Usefulness:
    """Leaves counted or emitted versus leaves tested against patterns,
    fed by result hooks on the counting entry points."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.useful = 0
        self.tested = 0

    def count_table(self, args, result, leaves):
        for patterns, counts in result.rows:
            if patterns.members:
                self.useful += sum(counts)
                self.tested += leaves

    def count_avoiders(self, args, result, leaves):
        if args[1].members:
            self.useful += result
            self.tested += leaves

    def hooks(self) -> dict:
        return {
            "enumeration.count_table": self.count_table,
            "enumeration.count_avoiders": self.count_avoiders,
        }


def layer_metrics(stats, usefulness: Usefulness) -> dict[str, float]:
    """Per-layer figures of one traced round (everything but trace_overhead)."""

    def get(name):
        return stats.get(name, Stat())

    def per_call_us(name):
        s = get(name)
        return s.total / s.calls * 1e6 if s.calls else 0.0

    nexts = generator_stats(stats)
    leaves = sum(s.items for s in nexts)
    contains = get("patterns.contains")
    out = {
        "enumeration.leaves": leaves,
        "enumeration.us_per_leaf": sum(s.total for s in nexts) / leaves * 1e6 if leaves else 0.0,
        "enumeration.count_stoimenow.s": get("enumeration.count_stoimenow").total,
        "enumeration.count_table.s": get("enumeration.count_table").total,
        "enumeration.count_table.self_s": get("enumeration.count_table").self_time,
        "patterns.contains.calls": contains.calls,
        "patterns.contains.hits": contains.items,
        "patterns.contains.us_per_call": per_call_us("patterns.contains"),
        "patterns.contains.calls_per_leaf": contains.calls / leaves if leaves else 0.0,
        "patterns.avoids_all.calls": get("patterns.avoids_all").calls,
        "patterns.leaves_tested": usefulness.tested,
        "patterns.useful_ratio": usefulness.useful / usefulness.tested if usefulness.tested else 0.0,
        "identities.check_case_sums.s": get("identities.check_case_sums").total,
        "identities.catalan_series.s": get("identities.catalan_series").total,
        "identities.h_series.s": get("identities.h_series").total,
        "verify.verify_table.s": get("verify.verify_table").total,
        "cli.build_parser.calls": get("cli.build_parser").calls,
        "cli.build_parser.s": get("cli.build_parser").total,
    }
    for name in TIMED:
        out[f"{name}.calls"] = get(name).calls
        out[f"{name}.s"] = get(name).total
    for name in PER_CALL:
        out[f"{name}.calls"] = get(name).calls
        out[f"{name}.us_per_call"] = per_call_us(name)
    for suite, fn in SUITE_FUNCTIONS.items():
        out[f"verify.suite.{suite}.s"] = get(f"verify.{fn}").total
    return out


def run_rounds(workload, session, rng, seconds: float, tracer=None, usefulness=None):
    """Closed-loop rounds until `seconds` have passed (at least one).

    With a tracer, rounds alternate untraced and traced.  Returns the time
    spent inside invocations per untraced and per traced round, and the
    per-layer figures of each traced round.
    """

    def busy(i: int) -> float:
        return sum(end - start for _, start, end in session.timed[i:])

    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        i = len(session.timed)
        workload.round(session, rng)
        untraced.append(busy(i))
        if tracer is None:
            continue
        tracer.reset()
        usefulness.reset()
        i = len(session.timed)
        with tracer:
            workload.round(session, rng)
        traced.append(busy(i))
        layers.append(layer_metrics(tracer.stats(), usefulness))
    return untraced, traced, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_package()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    setup = measure_setup() if not args.trace else []
    workload = WORKLOADS[args.workload]()
    session = Session(main=lambda a: cli.main(a))  # looked up per call, so tracing rebinds it
    rng = random.Random(args.seed)
    usefulness = Usefulness()
    tracer = Tracer(on_result=usefulness.hooks()) if args.trace else None
    t0 = time.perf_counter()
    with contextlib.nullcontext() if args.trace else session.ticking():
        untraced, traced, layers = run_rounds(workload, session, rng, args.seconds, tracer, usefulness)
    wall = time.perf_counter() - t0

    rounds = len(untraced) + len(traced)
    lines = [f"workload {workload.name}  seed {args.seed}  {rounds} rounds in {wall:.1f} s"]
    if args.trace:
        metrics = {}
        for name, unit in LAYER_METRICS.items():
            if name == "trace_overhead":
                continue
            values = [round_[name] for round_ in layers]
            if unit == "count" and len(set(values)) != 1:
                session.failed += 1
                session.failures.append(f"counter {name} differs between traced rounds: {values}")
            metrics[name] = {"value": values[0] if unit == "count" else median(values), "unit": unit}
        metrics["trace_overhead"] = {"value": median(traced) / median(untraced), "unit": "ratio"}
        lines += [f"  {k:40s} {v['value']:>14.6g} {v['unit']}" for k, v in metrics.items()]
    else:
        samples, raw = session.samples(), session.samples(normalise=False)
        metrics = {"setup_s": {"value": median(setup), "unit": "s"}}
        lines.append(f"  {'setup_s':22s} {median(setup):12.6f} s    median of {len(setup)}")
        for step in STEPS:
            metrics[step] = {"value": median(samples[step]), "unit": "s"}
            lines.append(
                f"  {step:22s} {median(samples[step]):12.6f} s    median of {len(samples[step]):<4d}"
                f" (raw wall {median(raw[step]):.6f} s)  {workload.labels[step]}"
            )
        for name, (value, unit) in workload.derived(samples).items():
            lines.append(f"  {name:22s} {value:12.6f} {unit}")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["ok_frac"] = {"value": 1 - session.failed / session.attempted, "unit": "ratio"}
        metrics["peak_rss_mib"] = {"value": peak, "unit": "MiB"}
        fail_frac = session.failed / session.attempted
        lines.append(f"  {'fail_frac':22s} {fail_frac:12.6f} ratio  {session.failed} of {session.attempted}")
        lines.append(f"  {'ok_frac':22s} {metrics['ok_frac']['value']:12.6f} ratio")
        lines.append(f"  {'peak_rss_mib':22s} {peak:12.3f} MiB")
    lines += [f"  FAILED: {f}" for f in session.failures]
    print("\n".join(lines))
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
