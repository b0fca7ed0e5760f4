"""Closed-form registry and exact identity checks.

Holds the rational generating functions for every multi-avoidance row over
the patterns P1..P5 and for the three-arc patterns R3/R4/R5, together with
coefficient-level verifiers: the Catalan series built two independent
ways, the auxiliary inner-interval series H with its functional equation,
the full three-case assembly whose specializations cover several rows, the
displayed case sums of each derivation, and the odd-index Fibonacci
identity of the A001519 rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

from .series import Polynomial, PowerSeries, RationalGF, gf_coefficients


def catalan_number(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def catalan_series(order: int) -> PowerSeries:
    """The Catalan series, computed two independent ways which must agree:
    the closed form (1 - sqrt(1-4x)) / (2x) and the convolution recurrence
    C_{n+1} = sum_k C_k C_{n-k}."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    root = (1 - PowerSeries.monomial(4, 1, order + 1)).sqrt()
    closed = (1 - root).over_x() * Fraction(1, 2)
    values = [1]
    for n in range(order):
        values.append(sum(values[k] * values[n - k] for k in range(n + 1)))
    recurrence = PowerSeries(tuple(values))
    if closed != recurrence:
        raise AssertionError("Catalan series cross-check failed")
    return closed


def h_series(order: int) -> PowerSeries:
    """Inner-interval series H(x) = (1 - sqrt(1-4x)) / (2(1-x))."""
    x = PowerSeries.monomial(1, 1, order)
    root = (1 - PowerSeries.monomial(4, 1, order)).sqrt()
    return (1 - root) / (2 * (1 - x))


def check_h_closed_forms(order: int) -> bool:
    """The two closed forms of H agree: (1-sqrt(1-4x))/(2(1-x)) = xC(x)/(1-x)."""
    x = PowerSeries.monomial(1, 1, order)
    alt = catalan_series(order).times_x() / (1 - x)
    return h_series(order) == alt


def h_equation_rhs(h: PowerSeries, order: int) -> PowerSeries:
    """Right side of the functional equation satisfied by H."""
    x = PowerSeries.monomial(1, 1, order)
    geom2 = 1 - 2 * x
    return x / geom2 + (x**3 / geom2) * (h / geom2) * (1 / (1 - (1 + x**2 / geom2) * h))


def check_h_functional_equation(order: int) -> bool:
    h = h_series(order)
    return h == h_equation_rhs(h, order)


def three_case_assembly(inner: PowerSeries, order: int) -> PowerSeries:
    """The three-case sum for P3-style avoiders, parameterized by the series
    counting an interval under an arc together with its defining arc.

    With the full H the sum gives the Catalan series; with x/(1-x) it gives
    the (P3,P4) row; with a bare x it gives the (P3,P4,P5) row.
    """
    x = PowerSeries.monomial(1, 1, order)
    geom2 = 1 - 2 * x
    tail = x**2 * (1 + x / geom2) ** 2 * (inner / (1 - (1 + x**2 / geom2) * inner))
    return (1 / (1 - x)) * (1 + x**2 / geom2 + tail)


def check_f_equals_catalan(order: int) -> bool:
    """The assembled three-case sum with H substituted equals C(x)."""
    return three_case_assembly(h_series(order), order) == catalan_series(order)


@dataclass(frozen=True)
class RowInfo:
    """One registry row: canonical pattern-set name, closed form, and the
    cross-check metadata carried into reports."""

    name: str
    gf: RationalGF
    oeis: str | None
    quoted_terms: tuple[int, ...]  # first terms (n>=1) as quoted in the source
    # catalogue; cross-check data only -- expansion and enumeration arbitrate


@cache
def _forms() -> dict[str, RationalGF]:
    P = Polynomial.parse
    return {
        "A116703": RationalGF(P("1-x") ** 3, P("1-4x+5x^2-3x^3")),
        "pair13": RationalGF(P("1-6x+15x^2-19x^3+13x^4-5x^5"), P("1-x") ** 5 * P("1-2x")),
        "A005183": RationalGF(P("1-4x+5x^2-x^3"), P("1-x") * P("1-2x") ** 2),
        "A001519": RationalGF(P("1-2x"), P("1-3x+x^2")),
        "A116722": RationalGF(P("1-4x+7x^2-5x^3+2x^4-x^5+x^6"), P("1-x") ** 5),
        "A000325": RationalGF(P("1-3x+3x^2"), P("1-x") ** 2 * P("1-2x")),
        "A116725": RationalGF(P("1-5x+10x^2-9x^3+3x^4-x^5"), P("1-x") ** 4 * P("1-2x")),
        "A034943": RationalGF(P("1-x") ** 2, P("1-3x+2x^2-x^3")),
        "A050407": RationalGF(P("1-3x+4x^2-x^3"), P("1-x") ** 4),
        "quad-new": RationalGF(P("1-4x+6x^2-3x^3-x^4"), P("1-x") ** 3 * P("1-2x")),
        "A002522": RationalGF(P("1-2x+2x^2+x^3"), P("1-x") ** 3),
        "length3": RationalGF(P("1-x"), P("1-2x")),
    }


@cache
def multi_avoidance_rows() -> tuple[RowInfo, ...]:
    """The 26 multi-avoidance rows over P1..P5, in catalogue order.

    Rows sharing a closed form share the same RationalGF object.
    """
    f = _forms()
    groups = [
        (["P1,P2"], f["A116703"], "A116703", (1, 2, 5, 13, 33, 82, 202, 497)),
        (["P1,P3"], f["pair13"], None, (1, 2, 5, 13, 32, 73, 156, 318)),
        (["P1,P4", "P1,P5", "P2,P3"], f["A005183"], "A005183", (1, 2, 5, 13, 33, 81, 193, 449)),
        (
            ["P2,P4", "P2,P5", "P3,P4", "P3,P5", "P4,P5"],
            f["A001519"],
            "A001519",
            (1, 2, 5, 13, 34, 89, 233, 610),
        ),
        (["P1,P2,P3"], f["A116722"], "A116722", (1, 2, 5, 12, 25, 47, 82, 135)),
        (
            ["P1,P2,P4", "P1,P2,P5", "P2,P3,P4", "P2,P3,P5", "P1,P4,P5", "P2,P4,P5"],
            f["A000325"],
            "A000325",
            (1, 2, 5, 12, 27, 58, 121, 248),
        ),
        # The quoted terms of the next group skip a value: the expansion of
        # the closed form runs 1,2,5,12,26,52,99,184,340 while the quoted
        # terms jump from 26 to 99.  Enumeration arbitrates (52 is correct);
        # reports carry a note instead of trusting the quote.
        (["P1,P3,P4", "P1,P3,P5"], f["A116725"], "A116725", (1, 2, 5, 12, 26, 99, 184, 340)),
        (["P3,P4,P5"], f["A034943"], "A034943", (1, 2, 5, 12, 28, 65, 151, 351)),
        (
            ["P1,P2,P3,P4", "P1,P2,P3,P5", "P2,P3,P4,P5"],
            f["A050407"],
            "A050407",
            (1, 2, 5, 11, 21, 36, 57, 85),
        ),
        (
            ["P1,P2,P4,P5", "P1,P3,P4,P5"],
            f["quad-new"],
            None,
            (1, 2, 5, 11, 22, 42, 79, 149),
        ),
        (["P1,P2,P3,P4,P5"], f["A002522"], "A002522", (1, 2, 5, 10, 17, 26, 37, 50)),
    ]
    rows = []
    for names, gf, oeis, quoted in groups:
        for name in names:
            rows.append(RowInfo(name, gf, oeis, quoted))
    return tuple(rows)


@cache
def gf_registry() -> dict[str, RationalGF]:
    """Closed form per pattern-set name: the 26 multi-avoidance rows plus
    the single three-arc patterns R3/R4/R5."""
    reg = {row.name: row.gf for row in multi_avoidance_rows()}
    for name in ("R3", "R4", "R5"):
        reg[name] = _forms()["length3"]
    return reg


def check_case_sums(order: int) -> dict[str, bool]:
    """Re-assemble each displayed case sum and compare with the registry form.

    One table maps each row to its assembled series, and one comparison
    covers every entry.  For the two rows whose derivation is a fixed-point
    equation rather than an explicit sum ((P2,P3) and (P2,P4)), the entry
    is the equation's right side with the registry form substituted.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    x = PowerSeries.monomial(1, 1, order)
    u = x / (1 - x)
    geom2 = 1 - 2 * x
    reg = gf_registry()

    def target(name: str) -> PowerSeries:
        return PowerSeries.from_gf(reg[name], order)

    a23 = target("P2,P3")
    a24 = target("P2,P4")
    sums = {
        "P1,P3": (1 / (1 - x)) * (1 + x**2 / geom2) + u**2 * (x / geom2) + x**4 / (1 - x) ** 5,
        "P1,P4": 1 / (1 - x) + (x / (1 - x)) * (1 / (1 - u)) * (u / (1 - u)),
        "P2,P3": 1 + x * (x / geom2) ** 2 + x * a23 + x**2 / geom2,
        "P2,P4": 1 + u * (a24 - 1) + x * a24,
        "P3,P4": three_case_assembly(u, order),
        "P4,P5": 1 / (1 - x) + (x / geom2) * (x / ((1 - x) * (1 - x * (1 + x / geom2)))),
        "P1,P2,P3": (
            1 / (1 - x)
            + x**2 / (1 - x) ** 3
            + x * u**2 * (1 + 2 * x / (1 - x))
            + x**4 / (1 - x) ** 5
        ),
        "P1,P2,P4": 1 / (1 - x) + x**2 / ((1 - x) ** 3 * (1 - u)),
        "P2,P3,P4": (1 / (1 - x)) * (1 + u**2 + u**2 * (u / (1 - u))),
        "P1,P4,P5": 1 / (1 - x) + x**2 / ((1 - x) ** 2 * (1 - u)) + x**3 / ((1 - x) ** 3 * (1 - u)),
        "P2,P4,P5": 1 / (1 - x) + x**2 / ((1 - x) ** 3 * (1 - u)),
        "P1,P3,P4": (1 / (1 - x)) * (1 + x**2 / geom2 + x**3 / (1 - x) ** 3),
        "P3,P4,P5": three_case_assembly(x, order),
        "P1,P2,P3,P4": (1 / (1 - x)) * (1 + u**2 + u**3),
        "P2,P3,P4,P5": 1 / (1 - x) + x**2 / (1 - x) ** 4,
        "P1,P2,P4,P5": 1 / (1 - x) + x**2 / (1 - x) ** 3 + x**3 / ((1 - x) ** 3 * (1 - u)),
        "P1,P3,P4,P5": (1 / (1 - x)) * (1 + x**2 / geom2 + x**3 / (1 - x) ** 2),
        "P1,P2,P3,P4,P5": (1 / (1 - x)) * (1 + u**2 + x**3 / (1 - x) ** 2),
    }
    return {name: total == target(name) for name, total in sums.items()}


def fibonacci(k: int) -> int:
    """Fibonacci numbers under the convention F_1 = F_2 = 1."""
    if k < 1:
        raise ValueError("k must be at least 1")
    a, b = 1, 1
    for _ in range(k - 1):
        a, b = b, a + b
    return a


def fibonacci_identity_check(order: int) -> bool:
    """The A001519 rows satisfy a_n = 3a_{n-1} - a_{n-2} (a_0 = a_1 = 1) and
    a_n = F_{2n-1} for 1 <= n <= order."""
    if order < 1:
        raise ValueError("order must be at least 1")
    a = gf_coefficients(gf_registry()["P2,P4"], order)
    if a[0] != 1 or a[1] != 1:
        return False
    if any(a[n] != 3 * a[n - 1] - a[n - 2] for n in range(2, order + 1)):
        return False
    return all(a[n] == fibonacci(2 * n - 1) for n in range(1, order + 1))
