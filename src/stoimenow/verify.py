"""Verification harness: registry rows against brute-force counts, identity
suites, bijection round trips, and the poset-map equivalences.

Everything here is deterministic; reports render identically on every run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

from .bijections import _glue, glue, matching_to_string, split, string_to_matching
from .enumeration import MAX_ARCS, avoider_counts, count_table, enumerate_stoimenow
from .identities import (
    check_case_sums,
    check_f_equals_catalan,
    check_h_closed_forms,
    check_h_functional_equation,
    fibonacci_identity_check,
    gf_coefficients,
    multi_avoidance_rows,
)
from .matching import EMPTY, parse_arcs
from .patterns import PatternSet, parse_pattern_set, registry
# Uncalled here: bench/test_bench_harness.py asserts `verify.contains is enumeration.contains`.
from .patterns import contains
from .posets import interval_type, omega, poset_contains

REPORT_SCHEMA = 1

# Worked examples reproduced bit-exactly by the bijection suite.
GLUE_EXAMPLE = (
    "(1,4)(2,5)(3,8)(6,9)(7,10)",
    "(1,2)(3,5)(4,6)(7,8)",
    "(1,5)(2,6)(3,9)(4,10)(7,11)(8,12)(13,14)(15,17)(16,18)(19,20)",
)
STRING_EXAMPLES = {
    "bbabaab": "(1,5)(2,9)(3,12)(4,13)(6,7)(8,10)(11,14)(15,16)",
    "aabab": "(1,5)(2,6)(3,7)(4,9)(8,10)(11,12)",
}


@dataclass
class RowOutcome:
    name: str
    oeis: str | None
    expansion: tuple[int, ...]  # closed-form coefficients a_1..a_n
    counts: tuple[int, ...]  # brute-force counts
    note: str | None

    @property
    def agree(self) -> bool:
        return self.expansion == self.counts


@dataclass
class VerificationReport:
    n_max: int
    rows: list[RowOutcome]

    @property
    def overall_pass(self) -> bool:
        return all(row.agree for row in self.rows)

    def to_text(self) -> str:
        lines = []
        for row in self.rows:
            tag = f" [{row.oeis}]" if row.oeis else ""
            lines.append(
                f"{row.name}{tag} counts={_fmt(row.counts)} "
                f"expansion={_fmt(row.expansion)} "
                f"{'agree' if row.agree else 'MISMATCH'}"
            )
        for row in self.rows:
            if row.note:
                lines.append(f"note: {row.name}: {row.note}")
        agreeing = sum(1 for r in self.rows if r.agree)
        verdict = "PASS" if self.overall_pass else "FAIL"
        lines.append(
            f"overall: {verdict} ({agreeing}/{len(self.rows)} rows agree, n_max={self.n_max})"
        )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        report = {
            "schema": REPORT_SCHEMA,
            "n_max": self.n_max,
            "rows": [
                {
                    "patterns": row.name,
                    "oeis": row.oeis,
                    "counts": list(row.counts),
                    "expansion": list(row.expansion),
                    "agree": row.agree,
                    "note": row.note,
                }
                for row in self.rows
            ],
            "overall_pass": self.overall_pass,
        }
        return json.dumps(report, indent=2)

    def to_csv(self) -> str:
        lines = ["patterns,n,count,expected,agree"]
        for row in self.rows:
            for i, (count, expected) in enumerate(zip(row.counts, row.expansion), start=1):
                lines.append(
                    f"\"{row.name}\",{i},{count},{expected},{str(count == expected).lower()}"
                )
        return "\n".join(lines) + "\n"


def _fmt(values: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in values)


def verify_table(n_max: int = 7, row_names: list[str] | None = None) -> VerificationReport:
    """Compare brute-force counts with closed-form coefficients per row."""
    rows = list(multi_avoidance_rows())
    if row_names is not None:
        wanted = {parse_pattern_set(name).name for name in row_names}
        rows = [r for r in rows if r.name in wanted]
        missing = wanted - {r.name for r in rows}
        if missing:
            raise ValueError(f"unknown rows: {sorted(missing)}")
        if not rows:
            raise ValueError("row names select no row")
    pattern_sets = [parse_pattern_set(r.name) for r in rows]
    table = count_table(pattern_sets, n_max)
    outcomes = []
    for info, (_, counts) in zip(rows, table.rows):
        expansion = tuple(gf_coefficients(info.gf, n_max)[1:])
        note = None
        quoted = info.quoted_terms[:n_max]
        if quoted != expansion[: len(quoted)]:
            i = next(k for k, (q, e) in enumerate(zip(quoted, expansion)) if q != e)
            note = (
                f"quoted terms diverge from the closed form at n={i + 1} "
                f"(quoted {quoted[i]}, expansion {expansion[i]}); "
                f"enumeration matches the expansion"
            )
        outcomes.append(RowOutcome(info.name, info.oeis, expansion, counts, note))
    return VerificationReport(n_max, outcomes)


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {verdict}{suffix}"


def _require_order(order: int) -> None:
    """Refuse order 0: the series would hold constant terms only, equal by construction."""
    if order < 1:
        raise ValueError("order must be at least 1")


def h_suite(order: int) -> list[CheckOutcome]:
    _require_order(order)
    return [
        CheckOutcome("h-closed-forms", check_h_closed_forms(order), f"order={order}"),
        CheckOutcome(
            "h-functional-equation", check_h_functional_equation(order), f"order={order}"
        ),
    ]


def f_catalan_suite(order: int) -> list[CheckOutcome]:
    _require_order(order)
    return [CheckOutcome("f-equals-catalan", check_f_equals_catalan(order), f"order={order}")]


def case_sum_suite(order: int) -> list[CheckOutcome]:
    return [
        CheckOutcome(f"case-sum {name}", ok, f"order={order}")
        for name, ok in check_case_sums(order).items()
    ]


def fibonacci_suite(order: int) -> list[CheckOutcome]:
    return [CheckOutcome("fibonacci-identity", fibonacci_identity_check(order), f"n<={order}")]


def bijection_suite(n_max: int = 6) -> list[CheckOutcome]:
    """Round-trip and worked-example checks for both bijections, up to n_max arcs.

    The P2-avoiders with n arcs are built as the glue images of every pair
    of smaller ones, and both round trips run on each image.  `split`
    refuses any image that is not a P2-avoider, and splitting returns each
    pair, so the images are distinct P2-avoiders; as they number
    |M_n(P2)|, glue is onto.  Every operand is `EMPTY` or an
    earlier image, which `split` has checked once already, so the round
    trips glue with the unchecking `_glue`; the worked example goes
    through `glue`.  Likewise `matching_to_string` refuses any string
    image that is not an R4-avoider and decodes each image to its own
    string, so the 2^(n-1) images are distinct, and they must number
    |M_n(R4)|.  Each column |M_n(S)| for n = 0..n_max is read from one
    `avoider_counts` call.
    """
    outcomes = []

    p2_counts = avoider_counts(n_max, parse_pattern_set("P2"))
    avoiders = [[EMPTY]]
    glue_ok = split_ok = True
    pairs = 0
    for n in range(1, n_max + 1):
        images = []
        for n1 in range(n):
            for m1, m2 in product(avoiders[n1], avoiders[n - 1 - n1]):
                glued = _glue(m1, m2)
                halves = split(glued)
                if glued.n != n or halves != (m1, m2):
                    glue_ok = False
                if _glue(*halves) != glued:
                    split_ok = False
                images.append(glued)
        if len(images) != p2_counts[n]:
            glue_ok = False
        avoiders.append(images)
        pairs += len(images)
    outcomes.append(
        CheckOutcome("glue-then-split", glue_ok, f"{pairs} pairs, total size <= {n_max}")
    )
    outcomes.append(
        CheckOutcome("split-then-glue", split_ok, f"{pairs} matchings, n <= {n_max}")
    )

    m1 = parse_arcs(GLUE_EXAMPLE[0])
    m2 = parse_arcs(GLUE_EXAMPLE[1])
    outcomes.append(
        CheckOutcome(
            "glue-worked-example", glue(m1, m2) == parse_arcs(GLUE_EXAMPLE[2])
        )
    )

    strings_ok = all(
        string_to_matching(word) == parse_arcs(expected)
        for word, expected in STRING_EXAMPLES.items()
    ) and all(
        matching_to_string(parse_arcs(expected)) == word
        for word, expected in STRING_EXAMPLES.items()
    )
    outcomes.append(CheckOutcome("string-worked-examples", strings_ok))

    r4_counts = avoider_counts(n_max, parse_pattern_set("R4"))
    bijection_ok = True
    for n in range(1, n_max + 1):
        words = ["".join(w) for w in product("ab", repeat=n - 1)]
        if len(words) != r4_counts[n]:
            bijection_ok = False
        if any(matching_to_string(string_to_matching(w)) != w for w in words):
            bijection_ok = False
    outcomes.append(
        CheckOutcome(
            "string-bijection",
            bijection_ok,
            f"2^(n-1) strings onto R4-avoiders, n <= {n_max}",
        )
    )
    return outcomes


def omega_suite(n_max: int = 6) -> list[CheckOutcome]:
    """Interval-order image, the two avoidance equivalences, and injectivity.

    `omega` relates two arcs by their four endpoints only, so the image of
    a sub-matching is the subposet that `omega(m)` induces on its arcs, and
    an occurrence of P in m makes `omega(m)` induce `omega(P)`.  The suite
    checks once that `omega(P1)` contains a 3+1 and `omega(P2)` an N;
    then every matching with a 3+1-free image avoids P1, and every one
    with an N-free image avoids P2.  Per n it counts those images and
    compares each count with |M_n(P1)| or |M_n(P2)|, read from one
    `avoider_counts` column per pattern: a subset as large as the set is
    the set, so no matching is tested with `contains`.

    One pass over M_n per n computes each `omega(m)` once, and the three
    `poset_contains` calls on it read one `induced_shapes` set, so each
    image's 4-subsets are coded once, not once per name.  The images of
    M_n are pairwise non-isomorphic when their `interval_type`s differ,
    for the type is an isomorphism invariant; and as it is complete on
    the (2+2)-free images, which `poset_contains` checks independently,
    a repeated type is a repeated image, not a false alarm.
    """
    p1 = registry()["P1"]
    p2 = registry()["P2"]
    free_ok = True
    three_one_ok = poset_contains(omega(p1.template), "3+1")
    n_ok = poset_contains(omega(p2.template), "N")
    p1_counts = avoider_counts(n_max, PatternSet.of(p1))
    p2_counts = avoider_counts(n_max, PatternSet.of(p2))
    injective = True
    total = 0
    for n in range(n_max + 1):
        types = []
        three_one_free = n_free = 0
        for m in enumerate_stoimenow(n):
            pos = omega(m)
            total += 1
            if poset_contains(pos, "2+2"):
                free_ok = False
            three_one_free += not poset_contains(pos, "3+1")
            n_free += not poset_contains(pos, "N")
            types.append(interval_type(pos))
        if three_one_free != p1_counts[n]:
            three_one_ok = False
        if n_free != p2_counts[n]:
            n_ok = False
        if len(set(types)) != len(types):
            injective = False
    return [
        CheckOutcome("omega-images-2+2-free", free_ok, f"{total} matchings, n <= {n_max}"),
        CheckOutcome("omega-P1-iff-3+1-free", three_one_ok, f"n <= {n_max}"),
        CheckOutcome("omega-P2-iff-N-free", n_ok, f"n <= {n_max}"),
        CheckOutcome("omega-injective", injective, f"n <= {n_max}"),
    ]


# Each runner looks its suite up by global name when called, so wrappers
# bound to those names (tracers, monkeypatches) see the call.
_RUNNERS = {
    "h-eq": lambda order, n_max: h_suite(order),
    "f-catalan": lambda order, n_max: f_catalan_suite(order),
    "case-sums": lambda order, n_max: case_sum_suite(order),
    "fibonacci": lambda order, n_max: fibonacci_suite(order),
    "omega": lambda order, n_max: omega_suite(n_max),
    "bijections": lambda order, n_max: bijection_suite(n_max),
}
SUITES = (*_RUNNERS, "all")
# The suites that list matchings up to n_max refuse larger values.  omega
# walks every matching: about 0.5 s at n_max 8 and 2.9-3.5 s and 41 MiB at
# 9 on a 2-core host, and each further arc multiplies the walk by about 7,
# so n_max 10 would take over 20 s.  bijections builds every P2-avoider
# (Catalan-many) and every a/b string (2^(n-1)-many): about 0.27 s at 8
# and 0.9 s at 9.  `check --suite all --n-max 9` takes 3.6-6.2 s.  The
# others ignore n_max, which still has to lie in 1..MAX_ARCS.
MAX_CHECK_WALK_ARCS = 9
WALKING_SUITES = ("omega", "bijections", "all")


def run_suite(name: str, order: int = 12, n_max: int = 6) -> list[CheckOutcome]:
    """Run one suite of `SUITES`, as `check` does; out-of-range n_max raises ValueError."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    cap = MAX_CHECK_WALK_ARCS if name in WALKING_SUITES else MAX_ARCS
    if not 1 <= n_max <= cap:
        raise ValueError(f"--n-max must be at most {cap} for check --suite {name} (and at least 1)")
    if name == "all":
        return [outcome for runner in _RUNNERS.values() for outcome in runner(order, n_max)]
    return _RUNNERS[name](order, n_max)
