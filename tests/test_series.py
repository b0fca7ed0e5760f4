from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stoimenow import (
    DivByNonUnit,
    NonUnitDenominator,
    Polynomial,
    PowerSeries,
    RationalGF,
    SqrtNonUnit,
    catalan_number,
    catalan_series,
    gf_coefficients,
    gf_registry,
)
from stoimenow.series import MAX_DEGREE
from util import ref_mul, ref_pow, ref_sqrt, ref_truediv


def test_polynomial_parse_human_form():
    p = Polynomial.parse("1-4x+5x^2-3x^3")
    assert p.coeffs == (1, -4, 5, -3)
    assert Polynomial.parse("1-1x").coeffs == (1, -1)
    assert Polynomial.parse("-x").coeffs == (0, -1)
    assert Polynomial.parse("x^3").coeffs == (0, 0, 0, 1)
    assert Polynomial.parse("7").coeffs == (7,)


def test_polynomial_parse_comma_form():
    assert Polynomial.parse("1,-4,5,-3").coeffs == (1, -4, 5, -3)
    assert Polynomial.parse("0,0,1").coeffs == (0, 0, 1)


@pytest.mark.parametrize("bad", ["", "1 2x", "2x5", "x^", "+", "1**x"])
def test_polynomial_parse_rejects(bad):
    with pytest.raises(ValueError):
        Polynomial.parse(bad)


def test_polynomial_parse_caps_the_degree():
    assert Polynomial.parse(f"1-x^{MAX_DEGREE}").degree == MAX_DEGREE
    assert Polynomial.parse(",".join(["0"] * MAX_DEGREE + ["1"])).degree == MAX_DEGREE
    for text in (
        f"1-x^{MAX_DEGREE + 1}",
        "1-x+3x^5000",
        ",".join(["0"] * (MAX_DEGREE + 1) + ["1"]),
    ):
        with pytest.raises(ValueError, match=f"exceeds {MAX_DEGREE}"):
            Polynomial.parse(text)


def test_polynomial_str_round_trips():
    for text in ("1-4x+5x^2-3x^3", "1-2x", "1-x", "2+x^4", "-3+x"):
        p = Polynomial.parse(text)
        assert str(p) == text
        assert Polynomial.parse(str(p)) == p
    assert str(Polynomial(())) == "0"


def test_polynomial_arithmetic():
    one_minus_x = Polynomial.parse("1-x")
    assert (one_minus_x**3).coeffs == (1, -3, 3, -1)
    assert (one_minus_x * Polynomial.parse("1+x")).coeffs == (1, 0, -1)
    cubic = Polynomial.parse("1-4x+5x^2-3x^3")
    assert (one_minus_x * cubic).coeffs == (1, -5, 9, -8, 3)
    assert (cubic * one_minus_x).coeffs == (1, -5, 9, -8, 3)
    assert (one_minus_x - one_minus_x).is_zero
    assert Polynomial.from_coeffs([1, 2, 0, 0]).coeffs == (1, 2)
    assert Polynomial.parse("x") + Polynomial.parse("-x") == Polynomial(())


def test_rational_gf_normalization():
    f = RationalGF(Polynomial.parse("-1+2x"), Polynomial.parse("-1+x"))
    assert f.denominator.coeffs[0] == 1
    assert gf_coefficients(f, 3) == [1, -1, -1, -1]
    with pytest.raises(NonUnitDenominator):
        RationalGF(Polynomial.parse("1"), Polynomial.parse("0,1"))
    with pytest.raises(NonUnitDenominator):
        RationalGF(Polynomial.parse("1"), Polynomial.parse("2-x"))


def test_gf_coefficients_examples():
    f = RationalGF(Polynomial.parse("1-x") ** 3, Polynomial.parse("1-4x+5x^2-3x^3"))
    assert gf_coefficients(f, 8) == [1, 1, 2, 5, 13, 33, 82, 202, 497]
    geometric = RationalGF(Polynomial.parse("1"), Polynomial.parse("1-x"))
    assert gf_coefficients(geometric, 4) == [1, 1, 1, 1, 1]
    assert gf_coefficients(gf_registry()["P1,P3,P4"], 9) == [
        1, 1, 2, 5, 12, 26, 52, 99, 184, 340,
    ]


def test_gf_recurrence_soundness():
    # multiplying the expansion back by the denominator recovers the numerator
    order = 12
    for f in set(gf_registry().values()):
        coeffs = gf_coefficients(f, order)
        den = f.denominator.coeffs
        for n in range(order + 1):
            conv = sum(
                den[k] * coeffs[n - k] for k in range(min(n, len(den) - 1) + 1)
            )
            assert conv == f.numerator.coefficient(n)


def test_series_basics():
    x = PowerSeries.monomial(1, 1, 6)
    geometric = 1 / (1 - x)
    assert geometric.coeffs == tuple(Fraction(1) for _ in range(7))
    assert ((1 - x) * geometric) == PowerSeries.constant(1, 6)
    assert (x**2).coeffs[2] == 1
    assert (geometric - geometric) == PowerSeries.constant(0, 6)


def test_series_orders_take_the_minimum():
    a = PowerSeries.constant(1, 8)
    b = PowerSeries.constant(1, 3)
    assert (a + b).order == 3
    assert (a * b).order == 3
    assert (a / b).order == 3


def test_series_division_errors():
    x = PowerSeries.monomial(1, 1, 5)
    with pytest.raises(DivByNonUnit):
        1 / x
    with pytest.raises(DivByNonUnit):
        x.over_x(2)


def test_series_refuse_negative_sizes_and_shifts():
    x = PowerSeries.monomial(1, 1, 4)
    for bad in (
        lambda: PowerSeries.constant(1, -3),
        lambda: PowerSeries.monomial(1, -1, 4),
        lambda: PowerSeries.monomial(1, 0, -1),
        lambda: x.times_x(-1),
        lambda: x.over_x(-1),
    ):
        with pytest.raises(ValueError):
            bad()
    # a zero shift and a power past the order still work
    assert x.times_x(0) == x == x.over_x(0)
    assert PowerSeries.monomial(1, 5, 4) == PowerSeries.constant(0, 4)


def test_series_sqrt_example():
    s = 1 - PowerSeries.monomial(4, 1, 3)
    assert s.sqrt().coeffs == (1, -2, -2, -4)
    with pytest.raises(SqrtNonUnit):
        PowerSeries.constant(2, 3).sqrt()


small_fractions = st.integers(-4, 4).map(Fraction)


@settings(deadline=None)
@given(
    st.lists(small_fractions, min_size=1, max_size=6),
    st.lists(small_fractions, min_size=1, max_size=6),
)
def test_series_mul_commutes(a, b):
    sa, sb = PowerSeries(tuple(a)), PowerSeries(tuple(b))
    assert sa * sb == sb * sa


@settings(deadline=None)
@given(st.lists(small_fractions, min_size=1, max_size=8))
def test_series_sqrt_squares_back(tail):
    s = PowerSeries((Fraction(1), *tail))
    root = s.sqrt()
    assert root * root == s


def test_catalan_series_values():
    assert [int(c) for c in catalan_series(4).coeffs] == [1, 1, 2, 5, 14]
    assert catalan_series(0).coeffs == (Fraction(1),)
    assert [int(c) for c in catalan_series(8).coeffs] == [
        catalan_number(n) for n in range(9)
    ]


def test_catalan_defining_quadratic():
    order = 10
    c = catalan_series(order)
    lhs = (2 * c.times_x() - 1) ** 2
    assert lhs == 1 - PowerSeries.monomial(4, 1, order)


# Differential tests: the integer kernels against the frozen Fraction loops.

scalars = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=9),
)
coefficient_lists = st.lists(scalars, min_size=1, max_size=12)
nonzero_scalars = scalars.filter(lambda c: c != 0)


def exact_fractions(s: PowerSeries) -> bool:
    return type(s.coeffs) is tuple and all(type(c) is Fraction for c in s.coeffs)


@settings(deadline=None)
@given(coefficient_lists, coefficient_lists)
def test_mul_matches_reference(a, b):
    sa, sb = PowerSeries(tuple(a)), PowerSeries(tuple(b))
    product = sa * sb
    assert product == ref_mul(sa, sb)
    assert exact_fractions(product)


@settings(deadline=None)
@given(coefficient_lists, nonzero_scalars, coefficient_lists)
def test_truediv_matches_reference(a, b0, b_tail):
    # constant terms such as 2, -3 or 5/7 exercise the b0^(k+1) scaling
    sa, sb = PowerSeries(tuple(a)), PowerSeries((b0, *b_tail))
    quotient = sa / sb
    assert quotient == ref_truediv(sa, sb)
    assert exact_fractions(quotient)
    assert quotient * sb == sa.with_order(quotient.order)


@settings(deadline=None)
@given(st.lists(scalars, max_size=12))
def test_sqrt_matches_reference(tail):
    s = PowerSeries((1, *tail))
    root = s.sqrt()
    assert root == ref_sqrt(s)
    assert exact_fractions(root)


@settings(deadline=None)
@given(coefficient_lists, st.integers(0, 7))
def test_pow_matches_reference(a, k):
    s = PowerSeries(tuple(a))
    assert s**k == ref_pow(s, k)


@settings(deadline=None)
@given(coefficient_lists, nonzero_scalars)
def test_scalars_on_either_side_match_reference(a, c):
    s = PowerSeries(tuple(a))
    const = PowerSeries.constant(c, s.order)
    assert c * s == s * c == ref_mul(const, s)
    assert s / c == ref_truediv(s, const)
    if s.coeffs[0]:
        assert c / s == ref_truediv(const, s)


def test_kernels_keep_fraction_coefficients_and_reuse_them():
    values = (Fraction(1), Fraction(-3, 2), Fraction(0))
    assert PowerSeries(values).coeffs is values
    mixed = PowerSeries((1, Fraction(1, 2), 0))
    assert exact_fractions(mixed) and mixed.coeffs == (1, Fraction(1, 2), 0)
    x = PowerSeries.monomial(1, 1, 64)
    for series in (x * x, 1 / (2 - x), (1 - 4 * x).sqrt(), (1 - x) ** 5):
        assert exact_fractions(series)
