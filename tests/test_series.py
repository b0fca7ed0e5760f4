import math
from fractions import Fraction
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

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
    zero = Polynomial(())
    assert zero * cubic == cubic * zero == zero == zero**3
    assert zero**0 == Polynomial((1,)) == cubic**0
    for base in (zero, cubic, PowerSeries.constant(1, 3)):
        with pytest.raises(ValueError, match="negative power"):
            base**-1


int_polynomials = st.lists(st.integers(-6, 6), max_size=6).map(Polynomial.from_coeffs)


@settings(deadline=None)
@given(int_polynomials, int_polynomials, st.integers(0, 6))
@example(Polynomial(()), Polynomial((1, -1)), 0)
@example(Polynomial((1, -1)), Polynomial(()), 6)
def test_polynomial_kernels_match_reference(p, q, k):
    # degree <= 5, so every result fits in order 30 and nothing is truncated
    sp, sq = (PowerSeries.from_polynomial(r, 30) for r in (p, q))
    assert PowerSeries.from_polynomial(p + q, 30) == PowerSeries(tuple(map(add, sp.coeffs, sq.coeffs)))
    assert PowerSeries.from_polynomial(p - q, 30) == sp - sq
    assert PowerSeries.from_polynomial(p * q, 30) == ref_mul(sp, sq)
    assert PowerSeries.from_polynomial(p**k, 30) == ref_pow(sp, k) == sp**k


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
    assert gf_coefficients(f, 0) == [1]
    assert gf_coefficients(RationalGF(Polynomial(()), Polynomial.parse("1-x")), 3) == [0] * 4
    for bad in (lambda: gf_coefficients(f, -1), lambda: PowerSeries.from_gf(f, -1)):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            bad()


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


def test_series_operators_take_int_and_fraction_operands_only():
    x = PowerSeries.monomial(1, 1, 4)
    s = 1 - x
    for bad in (
        lambda: s + 0.5,
        lambda: 0.5 * s,
        lambda: s / "x",
        lambda: "1" - s,
        lambda: s - True,
        lambda: True / s,
        lambda: s * Polynomial((1,)),
    ):
        with pytest.raises(TypeError):
            bad()
    assert 2 - s == 1 + x
    assert 1 / s == PowerSeries((1,) * 5)
    assert Fraction(1, 2) * s == s / 2 == PowerSeries((Fraction(1, 2), Fraction(-1, 2), 0, 0, 0))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Polynomial((1, 0.5)),
        lambda: Polynomial((True,)),
        lambda: Polynomial.from_coeffs([1, 1.9]),
        lambda: Polynomial.from_coeffs([1, 0.5]),
        lambda: Polynomial.from_coeffs([1, 0.0]),
        lambda: PowerSeries((1, 0.1)),
        lambda: PowerSeries(("1/3", 1)),
        lambda: PowerSeries((True, 1)),
        lambda: PowerSeries.constant(0.1, 2),
        lambda: PowerSeries.constant("1/3", 2),
        lambda: PowerSeries.constant(True, 2),
        lambda: PowerSeries.monomial(0.5, 1, 2),
    ],
    ids=[
        "poly-float", "poly-bool", "from_coeffs-1.9", "from_coeffs-0.5", "from_coeffs-0.0",
        "series-float", "series-str", "series-bool", "constant-float", "constant-str",
        "constant-bool", "monomial-float",
    ],
)
def test_inexact_scalars_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


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


# Order-64 differential tests: the CLI's top order, with one operand a
# low-degree polynomial padded with zeros (the row loop of the convolution
# and the short division recurrence) or two long dense operands.

low_degree = st.lists(scalars, min_size=1, max_size=4)
long_lists = st.lists(scalars, min_size=33, max_size=65)
orders = st.integers(0, 64)


def padded(coeffs, order: int) -> PowerSeries:
    """The polynomial with these coefficients as a series to `order`."""
    return PowerSeries(tuple(coeffs[: order + 1]) + (0,) * (order + 1 - len(coeffs)))


@settings(deadline=None, max_examples=40)
@given(long_lists, low_degree, orders)
def test_mul_by_a_padded_polynomial_matches_reference(a, p, order):
    dense, poly = PowerSeries(tuple(a)), padded(p, order)
    assert dense * poly == poly * dense == ref_mul(dense, poly)


@settings(deadline=None, max_examples=20)
@given(long_lists, long_lists)
def test_mul_of_two_long_series_matches_reference(a, b):
    sa, sb = PowerSeries(tuple(a)), PowerSeries(tuple(b))
    assert sa * sb == ref_mul(sa, sb)


@settings(deadline=None, max_examples=40)
@given(long_lists, nonzero_scalars, low_degree, orders)
def test_truediv_by_a_padded_polynomial_matches_reference(a, b0, tail, order):
    dense, poly = PowerSeries(tuple(a)), padded([b0, *tail[:3]], order)
    assert dense / poly == ref_truediv(dense, poly)
    if dense.coeffs[0]:
        assert poly / dense == ref_truediv(poly, dense)


@settings(deadline=None, max_examples=40)
@given(low_degree, orders, st.integers(0, 7))
def test_pow_of_a_padded_polynomial_matches_reference(p, order, k):
    s = padded(p, order)
    assert s**k == ref_pow(s, k)


def test_one_series_has_one_canonical_form():
    x = PowerSeries.monomial(1, 1, 2)
    half = Fraction(1, 2)
    groups = [
        [
            PowerSeries((half,) * 3),
            half / (1 - x),
            PowerSeries.constant(half, 2) + x / 2 + half * x**2 + (x - x),
            PowerSeries((3, 3, 3)) / 6,
            (PowerSeries((1, 1, 1, 7)) * Fraction(3, 6)).with_order(2),
            PowerSeries((-1, -1, -1)) / -2,
        ],
        [PowerSeries((half, 0, 0)), PowerSeries.constant(half, 2) + (x - x), (1 + x).times_x(2) / 2 + half - x**2 / 2],
        [PowerSeries.constant(0, 2), x - x, (x / 3).times_x(2), PowerSeries((Fraction(0),) * 3)],
    ]
    for group in groups:
        assert len(set(group)) == 1
        assert len({hash(s) for s in group}) == 1
        for s in group:
            assert s == group[0] and s.order == 2
            assert s.den >= 1 and math.gcd(s.den, *s.nums) == 1
            assert not s.nums or s.nums[-1] != 0
    assert groups[0][0].den == 2 and groups[2][0].nums == () and groups[2][0].den == 1
    assert len({group[0] for group in groups}) == len(groups)


@settings(deadline=None)
@given(coefficient_lists, nonzero_scalars, coefficient_lists, st.integers(0, 4))
def test_every_kernel_result_reads_as_fractions(a, b0, b_tail, k):
    sa, sb = PowerSeries(tuple(a)), PowerSeries((b0, *b_tail))
    x = PowerSeries.monomial(1, 1, sa.order)
    results = [
        sa + sb, sa - sb, -sa, 2 - sa, sa * sb, sa / sb, Fraction(1, 3) / sb, sa**k,
        (1 + x * sa).sqrt(), sa.times_x(k), sa.times_x(k).over_x(min(k, sa.order)),
        sa.with_order(sa.order + k), PowerSeries.from_polynomial(Polynomial.parse("1-2x"), k),
    ]
    for s in results:
        assert exact_fractions(s)
        assert len(s.coeffs) == s.order + 1
        assert s == PowerSeries(s.coeffs)
