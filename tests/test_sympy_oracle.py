"""SymPy as an independent test-time oracle for the closed-form registry.

The package itself stays pure stdlib; this module is skipped when SymPy is
not installed.
"""

from fractions import Fraction

import pytest

from stoimenow import Polynomial, PowerSeries, gf_coefficients, gf_registry

sympy = pytest.importorskip("sympy")

ORDER = 64
x = sympy.symbols("x")


def as_expr(p: Polynomial):
    return sum(c * x**k for k, c in enumerate(p.coeffs))


def sympy_coefficients(f) -> list[int]:
    # sympy.series of 1/den, times the numerator, truncated: expanding each
    # quotient as a whole takes about three times as long
    inverse = sympy.series(1 / as_expr(f.denominator), x, 0, ORDER + 1).removeO()
    expansion = sympy.Poly(sympy.expand(inverse * as_expr(f.numerator)), x)
    return [int(expansion.coeff_monomial(x**k)) for k in range(ORDER + 1)]


def test_registry_expansions_match_sympy():
    forms = set(gf_registry().values())
    assert len(forms) == 12
    for f in forms:
        expected = sympy_coefficients(f)
        assert gf_coefficients(f, ORDER) == expected, str(f)
        quotient = PowerSeries.from_polynomial(f.numerator, ORDER) / PowerSeries.from_polynomial(
            f.denominator, ORDER
        )
        assert quotient == PowerSeries.from_gf(f, ORDER)
        assert quotient.coeffs == tuple(Fraction(c) for c in expected), str(f)
