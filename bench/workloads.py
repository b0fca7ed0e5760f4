"""The benchmark's workloads: closed-loop rounds of CLI invocations.

Every workload is a list of three gated steps run in order, once per
round, by a single caller that starts each invocation only after the
previous one has returned.  A step's metric is the median wall time of
its invocations in a run.  `avoid` also runs `table --workers 2` each
round, checked and printed but not gated: its wall time depends on how
the host schedules the two GIL-bound pool threads, and its median moved
by up to 40 % between sets of runs of the same code.  Each invocation
runs ``stoimenow.cli.main`` in-process with stdout captured in memory;
its output is checked against the oracles in :mod:`oracles` after the
clock has stopped.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import io
import json
import random
import re
import signal
import time
from dataclasses import dataclass, field
from functools import lru_cache
from statistics import median
from typing import Callable

import calibration
import oracles

STEPS = ("step1_s", "step2_s", "step3_s")
TICK_S = 0.05


@dataclass
class Session:
    """Runs invocations, keeps their wall times per step, counts failures.

    While `ticking()` is active, a timer signal runs the calibration loop
    every TICK_S seconds, also in the middle of an invocation, so each
    stretch of an invocation is judged by the host speed measured around it.
    That holds for `table --workers 2` too: its pool threads run pure
    Python, so they wait for the GIL while the loop runs in the main thread
    and make no progress then (a harness test checks this).  Cutting the
    loop's span out of the invocation is therefore exact, and the loop
    reads the same inside such an invocation as outside it.
    """

    main: Callable[[list[str]], int]
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    timed: list[tuple[str, float, float]] = field(default_factory=list)  # (step, start, end)
    loops: list[tuple[float, float, float]] = field(default_factory=list)  # (start, end, loop_s)

    def calibrate(self, *_signal) -> None:
        start = time.perf_counter()
        if self.loops and self.loops[-1][1] > start:
            return  # the timer fired inside a loop
        loop = calibration.loop_time()
        self.loops.append((start, time.perf_counter(), loop))

    @contextlib.contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, self.calibrate)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def run(self, step: str, argv: list[str], check: Callable[[int, str], bool]) -> str:
        """Invoke the CLI once, time it, then check (rc, stdout) untimed."""
        out, err = io.StringIO(), io.StringIO()
        rc: int | None = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.main(argv)
        except SystemExit as exc:  # argparse refusing its arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed invocation, not a crashed benchmark
            err.write(f"{type(exc).__name__}: {exc}")
        self.timed.append((step, start, time.perf_counter()))
        text = out.getvalue()
        self.attempted += 1
        if rc is None or not check(rc, text):
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{' '.join(argv)} -> rc={rc} {err.getvalue().strip()[:200]}")
        return text

    def samples(self, normalise: bool = True) -> dict[str, list[float]]:
        """Time of each invocation per step in seconds, calibration loops
        that ran inside it excluded.  Normalised, each stretch between loops
        is scaled by the mean of the loops on either side of it."""
        self.calibrate()
        starts = [start for start, _, _ in self.loops]
        out: dict[str, list[float]] = {}
        for step, start, end in self.timed:
            lo = bisect.bisect_right(starts, start)
            hi = bisect.bisect_left(starts, end)
            edges = [start, *(t for s, e, _ in self.loops[lo:hi] for t in (s, e)), end]
            total = 0.0
            for i in range(hi - lo + 1):
                stretch = edges[2 * i + 1] - edges[2 * i]
                if normalise:
                    near = [self.loops[j][2] for j in (lo + i - 1, lo + i) if 0 <= j < len(self.loops)]
                    stretch = calibration.normalised(stretch, sum(near) / len(near))
                total += stretch
            out.setdefault(step, []).append(total)
        return out


@dataclass
class Workload:
    name: str
    labels: dict[str, str]  # step metric -> what it times
    round: Callable[[Session, random.Random], None]
    # figures printed under their own names beside the steps: samples -> {name: (value, unit)}
    derived: Callable[[dict[str, list[float]]], dict[str, tuple[float, str]]]


# -- checks -------------------------------------------------------------------


def prints(text: str) -> Callable[[int, str], bool]:
    """Check: exit code 0 and stdout exactly `text`."""
    return lambda rc, out: rc == 0 and out == text


@lru_cache(maxsize=8)
def gen_ok(n: int, out: str) -> bool:
    """Every line parses, is Stoimenow and distinct; there are F(n) of them."""
    lines = out.splitlines()
    if len(lines) != oracles.fishburn(n) or len(set(lines)) != len(lines):
        return False
    for line in lines:
        pairs = oracles.parse_arcs(line)
        if pairs is None or len(pairs) != n or not oracles.is_stoimenow(pairs):
            return False
    return True


def csv_counts(out: str, patterns: str) -> list[int] | None:
    """Counts a_1..a_k from `count --n-max` CSV output for one pattern set."""
    lines = out.splitlines()
    if not lines or lines[0] != "patterns,n,count":
        return None
    counts = []
    for i, line in enumerate(lines[1:], start=1):
        m = re.fullmatch(r'"?([^"]*)"?,(\d+),(\d+)', line)
        if m is None or m.group(1) != patterns or int(m.group(2)) != i:
            return None
        counts.append(int(m.group(3)))
    return counts


@lru_cache(maxsize=None)
def expansion(name: str, order: int) -> list[int]:
    """a_0..a_order of a registry row, by the oracle's own long division."""
    from stoimenow.identities import gf_registry

    gf = gf_registry()[name]
    return oracles.series_expansion(gf.numerator.coeffs, gf.denominator.coeffs, order)


@lru_cache(maxsize=4)
def table_ok(n_max: int, out: str) -> bool:
    """Every row of the text report agrees, and its counts equal the
    oracle's expansion of that row's closed form."""
    from stoimenow.identities import multi_avoidance_rows

    rows = {}
    for line in out.splitlines():
        m = re.fullmatch(r"(\S+)(?: \[\S+\])? counts=([\d,]+) expansion=[\d,]+ agree", line)
        if m:
            rows[m.group(1)] = [int(v) for v in m.group(2).split(",")]
    names = [row.name for row in multi_avoidance_rows()]
    if sorted(rows) != sorted(names) or not out.endswith(f"rows agree, n_max={n_max})\n"):
        return False
    return all(rows[name] == expansion(name, n_max)[1:] for name in names)


def string_image_ok(word: str, out: str) -> bool:
    pairs = oracles.parse_arcs(out)
    return (
        pairs is not None
        and len(pairs) == len(word) + 1
        and oracles.is_stoimenow(pairs)
        and not oracles.contains(pairs, oracles.R4)
    )


def omega_ok(pairs, out: str) -> bool:
    less = oracles.omega_relation(pairs)
    try:
        obj = json.loads(out)
    except ValueError:
        return False
    return obj == {"size": len(pairs), "covers": oracles.cover_pairs(less), "less": less}


# -- workloads ----------------------------------------------------------------


def fishburn(n: int = 9) -> Workload:
    """Pattern-free generation and counting: the generator does the work."""
    N = str(n)

    def round_(s: Session, rng: random.Random) -> None:
        gc.collect()
        s.run("step1_s", ["gen", "--n", N], lambda rc, o: rc == 0 and gen_ok(n, o))
        gc.collect()
        s.run(
            "step2_s",
            ["count", "--n-max", N],
            lambda rc, o: rc == 0 and csv_counts(o, "") == [oracles.fishburn(k) for k in range(1, n + 1)],
        )
        gc.collect()
        s.run("step3_s", ["count", "--n", N], prints(f"{oracles.fishburn(n)}\n"))

    def derived(samples):
        return {
            "gen_matchings_per_s": (oracles.fishburn(n) / median(samples["step1_s"]), "1/s"),
            "count_table_s": (median(samples["step2_s"]), "s"),
            "count_n_s": (median(samples["step3_s"]), "s"),
        }

    labels = {
        "step1_s": f"gen --n {n}",
        "step2_s": f"count --n-max {n}",
        "step3_s": f"count --n {n}",
    }
    return Workload("fishburn", labels, round_, derived)


def avoid(n: int = 8) -> Workload:
    """Containment-heavy counting: the shared bitmask pass of `count_table`
    and the short-circuit `avoids_all` path of `count --n`."""
    N = str(n)

    def round_(s: Session, rng: random.Random) -> None:
        gc.collect()
        out = s.run("step1_s", ["table", "--n-max", N], lambda rc, o: rc == 0 and table_ok(n, o))
        gc.collect()
        s.run(
            "table_w2",
            ["table", "--n-max", N, "--workers", "2"],
            lambda rc, o: rc == 0 and o == out and table_ok(n, o),
        )
        gc.collect()
        s.run(
            "step2_s",
            ["count", "--n-max", N, "--avoid", "P1,P3"],
            lambda rc, o: rc == 0 and csv_counts(o, "P1,P3") == expansion("P1,P3", n)[1:],
        )
        gc.collect()
        s.run("step3_s", ["count", "--n", N, "--avoid", "P2"], prints(f"{oracles.catalan(n)}\n"))

    def derived(samples):
        return {
            "table_s": (median(samples["step1_s"]), "s"),
            "table_w2_s": (median(samples["table_w2"]), "s"),
            "count_avoid_s": (median(samples["step2_s"]), "s"),
            "filter_avoid_s": (median(samples["step3_s"]), "s"),
        }

    labels = {
        "step1_s": f"table --n-max {n}",
        "step2_s": f"count --n-max {n} --avoid P1,P3",
        "step3_s": f"count --n {n} --avoid P2",
    }
    return Workload("avoid", labels, round_, derived)


def lab(
    order: int = 64, n_max: int = 6, word_len: int = 9, glue_total: int = 5, calls: int = 120
) -> Workload:
    """Exact series, posets and bijections: one long `check` batch, then
    seeded streams of short `series` and `biject` calls on the same layers."""
    from stoimenow.identities import gf_registry
    from stoimenow.verify import GLUE_EXAMPLE, STRING_EXAMPLES

    row_names = sorted(gf_registry())
    pool = {k: oracles.p2_avoiders(k) for k in range(glue_total + 1)}
    pairs = [(a, b) for k in range(glue_total + 1) for a in pool[k] for b in pool[glue_total - k]]
    ran_examples = []

    def examples(s: Session) -> None:
        """The worked examples shipped with the verifier, through the CLI."""
        for word, arcs in STRING_EXAMPLES.items():
            s.run("examples", ["biject", "--op", "string", "--input", word], prints(arcs + "\n"))
            s.run("examples", ["biject", "--op", "unstring", "--input", arcs], prints(word + "\n"))
        left, right, glued = GLUE_EXAMPLE
        s.run("examples", ["biject", "--op", "glue", "--left", left, "--right", right], prints(glued + "\n"))
        s.run("examples", ["biject", "--op", "split", "--input", glued], prints(f"{left} | {right}\n"))

    def round_(s: Session, rng: random.Random) -> None:
        if not ran_examples:
            examples(s)
            ran_examples.append(True)
        gc.collect()
        s.run(
            "step1_s",
            ["check", "--suite", "all", "--order", str(order), "--n-max", str(n_max)],
            lambda rc, o: rc == 0 and o != "" and all(": PASS" in line for line in o.splitlines()),
        )
        gc.collect()
        for _ in range(calls):
            name = rng.choice(row_names)
            want = "".join(f"{k} {v}\n" for k, v in enumerate(expansion(name, order)) if k)
            argv = ["series", "--name", name, "--order", str(order), "--format", "bfile"]
            s.run("step2_s", argv, prints(want))
        gc.collect()
        for _ in range(calls // 2):
            word = "".join(rng.choice("ab") for _ in range(word_len))
            image = s.run(
                "step3_s",
                ["biject", "--op", "string", "--input", word],
                lambda rc, o: rc == 0 and string_image_ok(word, o),
            )
            s.run("step3_s", ["biject", "--op", "unstring", "--input", image.strip()], prints(word + "\n"))
        gc.collect()
        for _ in range(calls // 4):
            m1, m2 = rng.choice(pairs)
            glued = s.run(
                "step3_s",
                ["biject", "--op", "glue", "--left", oracles.render(m1), "--right", oracles.render(m2)],
                lambda rc, o: rc == 0 and len(oracles.parse_arcs(o) or ()) == glue_total + 1,
            ).strip()
            split_out = f"{oracles.render(m1)} | {oracles.render(m2)}\n"
            s.run("step3_s", ["biject", "--op", "split", "--input", glued], prints(split_out))
            target = oracles.parse_arcs(glued) or []
            s.run(
                "step3_s",
                ["biject", "--op", "omega", "--input", glued],
                lambda rc, o: rc == 0 and omega_ok(target, o),
            )

    def derived(samples):
        stream = samples["step2_s"] + samples["step3_s"]
        return {
            "check_s": (median(samples["step1_s"]), "s"),
            "cli_calls_per_s": (len(stream) / sum(stream), "1/s"),
        }

    labels = {
        "step1_s": f"check --suite all --order {order} --n-max {n_max}",
        "step2_s": f"series --name <row> --order {order} --format bfile (per call)",
        "step3_s": (
            f"biject --op string|unstring on {word_len}-letter words, glue|split|omega"
            f" on P2-avoider pairs of total size {glue_total} (per call)"
        ),
    }
    return Workload("lab", labels, round_, derived)


WORKLOADS = {"fishburn": fishburn, "avoid": avoid, "lab": lab}
