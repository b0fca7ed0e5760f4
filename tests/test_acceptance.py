"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  All comparisons are exact; the stated time budgets are
asserted as hard ceilings.
"""

import os
import subprocess
import sys
import time
from functools import lru_cache
from itertools import combinations
from pathlib import Path

from stoimenow import (
    catalan_number,
    check_case_sums,
    check_f_equals_catalan,
    check_h_closed_forms,
    check_h_functional_equation,
    count_stoimenow,
    count_table,
    fibonacci,
    fibonacci_identity_check,
    fishburn_oracle,
    gf_coefficients,
    gf_registry,
    parse_pattern_set,
    registry,
    reverse_pattern_set,
)
from stoimenow.verify import bijection_suite, omega_suite, verify_table


def _report(number: int, label: str, ok: bool, elapsed: float, budget: float) -> None:
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {number} ({label}): {verdict} [{elapsed:.2f}s < {budget:.0f}s]")
    assert ok, f"criterion {number} failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def test_criterion_1_table_reproduction():
    start = time.time()
    report = verify_table(7)
    ok = report.overall_pass and len(report.rows) == 26
    # brute force arbitrates the one divergent quoted sequence; the report
    # must carry a note for exactly the two affected rows
    noted = [row.name for row in report.rows if row.note]
    ok = ok and noted == ["P1,P3,P4", "P1,P3,P5"]
    _report(1, "closed forms vs brute force, 26 rows, n<=7", ok, time.time() - start, 60)


def test_criterion_2_fishburn_totals():
    start = time.time()
    expected = [1, 1, 2, 5, 15, 53, 217, 1014, 5335, 31240]
    ok = all(
        count_stoimenow(n) == fishburn_oracle(n) == expected[n] for n in range(10)
    )
    _report(2, "enumeration equals ascent-sequence oracle, n<=9", ok, time.time() - start, 30)


@lru_cache(maxsize=1)
def _single_pattern_counts():
    names = ["P1", "P2", "P3", "P4", "P5", "R3", "R4", "R5"]
    table = count_table([parse_pattern_set(n) for n in names], 8)
    return dict(zip(names, (counts for _, counts in table.rows)))


def test_criterion_3_catalan_single_patterns():
    start = time.time()
    counts = _single_pattern_counts()
    ok = all(
        counts[f"P{i}"] == tuple(catalan_number(n) for n in range(1, 9))
        for i in range(1, 6)
    )
    _report(3, "|M_n(P_i)| = C_n for n<=8", ok, time.time() - start, 120)


def test_criterion_4_length_three_patterns():
    start = time.time()
    counts = _single_pattern_counts()
    powers = tuple(2 ** (n - 1) for n in range(1, 9))
    ok = all(counts[name] == powers for name in ("R3", "R4", "R5"))
    _report(4, "|M_n(R_i)| = 2^(n-1) for n<=8", ok, time.time() - start, 120)


def test_criterion_5_identity_suites():
    start = time.time()
    order = 12
    case_sums = check_case_sums(order)
    a = gf_coefficients(gf_registry()["P2,P4"], order)
    recurrence = all(a[n] == 3 * a[n - 1] - a[n - 2] for n in range(2, order + 1))
    ok = (
        check_h_closed_forms(order)
        and check_h_functional_equation(order)
        and check_f_equals_catalan(order)
        and len(case_sums) == 18
        and all(case_sums.values())
        and recurrence
        and fibonacci_identity_check(order)
        and all(a[n] == fibonacci(2 * n - 1) for n in range(1, order + 1))
    )
    _report(5, "series identities at order 12", ok, time.time() - start, 10)


def test_criterion_6_bijection_round_trips():
    start = time.time()
    outcomes = bijection_suite(total_size=7, string_n_max=8)
    ok = all(o.passed for o in outcomes)
    _report(6, "glue/split <=7 and string bijection <=8", ok, time.time() - start, 60)


def test_criterion_7_omega_equivalences():
    start = time.time()
    outcomes = omega_suite(n_max=7)
    ok = all(o.passed for o in outcomes)
    _report(7, "poset-map equivalences n<=7, injective n<=7", ok, time.time() - start, 120)


def test_criterion_8_reversal_symmetries():
    start = time.time()
    pattern_names = ["P1", "P2", "P3", "P4", "P5"]
    subsets = [
        parse_pattern_set(",".join(names))
        for size in range(6)
        for names in combinations(pattern_names, size)
    ]
    table = count_table(subsets, 7)
    by_name = {ps.name: counts for ps, counts in table.rows}
    ok = all(
        by_name[ps.name] == by_name[reverse_pattern_set(ps).name] for ps in subsets
    )
    # the pairs listed among the registry rows are covered by the power set
    listed = [
        ("P1,P4", "P1,P5"), ("P2,P4", "P2,P5"), ("P3,P4", "P3,P5"),
        ("P1,P2,P4", "P1,P2,P5"), ("P2,P3,P4", "P2,P3,P5"),
        ("P1,P3,P4", "P1,P3,P5"),
        ("P1,P2,P3,P4", "P1,P2,P3,P5"),
    ]
    ok = ok and all(by_name[a] == by_name[b] for a, b in listed)
    self_reverse = parse_pattern_set("P1,P2,P4,P5")
    ok = ok and reverse_pattern_set(self_reverse).name == "P1,P2,P4,P5"
    _report(8, "reverse-paired counts equal, n<=7", ok, time.time() - start, 60)


def test_criterion_9_worker_determinism():
    start = time.time()
    import stoimenow

    src_dir = str(Path(stoimenow.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    runs = [
        subprocess.run(
            [sys.executable, "-m", "stoimenow", "table", "--n-max", "6",
             "--workers", workers],
            capture_output=True,
            check=True,
            env=env,
        )
        for workers in ("1", "4")
    ]
    ok = runs[0].stdout == runs[1].stdout and runs[0].stdout != b""
    _report(9, "table output byte-identical across workers", ok, time.time() - start, 60)
