"""Exact arithmetic kernels: integer polynomials, rational generating
functions, and truncated power series over Fraction coefficients.

No floating point anywhere; identity checks compare coefficients exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import mul
from typing import Iterable, Union

# Largest exponent Polynomial.parse accepts: the CLI orders stop at 64, and
# a larger cap still keeps parsing bounded (x^10^9 would be a 10^9-entry list).
MAX_DEGREE = 1000


class NonUnitDenominator(ValueError):
    """The denominator's constant term cannot be normalized to +1."""


class DivByNonUnit(ValueError):
    """Series division requires a divisor with nonzero constant term."""


class SqrtNonUnit(ValueError):
    """Series square root requires constant term 1."""


@dataclass(frozen=True)
class Polynomial:
    """Integer polynomial; coeffs[k] is the degree-k coefficient.

    Canonical form: no trailing zero coefficient; the zero polynomial is
    the empty tuple.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient; use Polynomial.from_coeffs")

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "Polynomial":
        values = list(coeffs)
        while values and values[-1] == 0:
            values.pop()
        return cls(tuple(int(v) for v in values))

    @classmethod
    def parse(cls, text: str) -> "Polynomial":
        """Parse ``c0,c1,c2,...`` or the human form ``1-4x+5x^2-3x^3``.

        In the human form every term after the first must carry an explicit
        sign; a bare ``x`` power has implicit coefficient 1.  Degrees above
        ``MAX_DEGREE`` raise ``ValueError``; in the human form each exponent
        is checked before the coefficient list is built.
        """
        s = re.sub(r"\s*([+,-])\s*", r"\1", text.strip())
        if not s:
            raise ValueError("empty polynomial")
        if re.search(r"\s", s):
            raise ValueError(f"unexpected whitespace in {text!r}")
        if re.fullmatch(r"[+-]?\d+(,[+-]?\d+)*", s):
            p = cls.from_coeffs(int(t) for t in s.split(","))
            if p.degree > MAX_DEGREE:
                raise ValueError(f"degree {p.degree} exceeds {MAX_DEGREE}")
            return p
        coeffs: dict[int, int] = {}
        pos = 0
        first = True
        for m in re.finditer(r"([+-]?)(?:(\d+)(x(?:\^(\d+))?)?|(x)(?:\^(\d+))?)", s):
            if m.start() != pos:
                raise ValueError(f"malformed polynomial {text!r}")
            sign_txt, digits, xpart_a, exp_a, xpart_b, exp_b = m.groups()
            if not first and not sign_txt:
                raise ValueError(f"missing sign between terms in {text!r}")
            sign = -1 if sign_txt == "-" else 1
            if digits is not None:
                coef = int(digits)
                exp = int(exp_a) if exp_a else (1 if xpart_a else 0)
            else:
                coef = 1
                exp = int(exp_b) if exp_b else 1
            if exp > MAX_DEGREE:
                raise ValueError(f"exponent {exp} exceeds {MAX_DEGREE}")
            coeffs[exp] = coeffs.get(exp, 0) + sign * coef
            pos = m.end()
            first = False
        if pos != len(s):
            raise ValueError(f"malformed polynomial {text!r}")
        top = max(coeffs) if coeffs else -1
        return cls.from_coeffs(coeffs.get(k, 0) for k in range(top + 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other: "Polynomial") -> "Polynomial":
        size = max(len(self.coeffs), len(other.coeffs))
        return Polynomial.from_coeffs(
            self.coefficient(k) + other.coefficient(k) for k in range(size)
        )

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial(())
        a, b = self.coeffs, other.coeffs
        return Polynomial(tuple(_convolve(a, b + (0,) * (len(a) - 1), len(a) + len(b) - 2)))

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial((1,))
        for _ in range(k):
            result = result * self
        return result

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xk = "x" if k == 1 else f"x^{k}"
                body = xk if mag == 1 else f"{mag}{xk}"
            parts.append(f"{sign}{body}")
        return "".join(parts)


@dataclass(frozen=True)
class RationalGF:
    """Quotient of integer polynomials, normalized to denominator constant +1."""

    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self):
        den = self.denominator
        if den.is_zero or den.coeffs[0] == 0:
            raise NonUnitDenominator("denominator must have a nonzero constant term")
        if den.coeffs[0] == -1:
            object.__setattr__(self, "numerator", -self.numerator)
            object.__setattr__(self, "denominator", -den)
        elif den.coeffs[0] != 1:
            raise NonUnitDenominator(
                f"cannot normalize denominator constant term {den.coeffs[0]} to 1"
            )

    def __str__(self) -> str:
        return f"({self.numerator})/({self.denominator})"


def gf_coefficients(f: RationalGF, order: int) -> list[int]:
    """Expand f to a_0..a_order via the linear recurrence read off the denominator."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    den = f.denominator.coeffs
    out: list[int] = []
    for n in range(order + 1):
        value = f.numerator.coefficient(n)
        for k in range(1, min(n, len(den) - 1) + 1):
            value -= den[k] * out[n - k]
        out.append(value)
    return out


Scalar = Union[int, Fraction]


def _over_common_denominator(coeffs: tuple[Fraction, ...], n: int) -> tuple[list[int], int]:
    """Integer numerators of coeffs[0..n] over their least common denominator."""
    head = coeffs[: n + 1]
    den = lcm(*(c.denominator for c in head))
    return [c.numerator * (den // c.denominator) for c in head], den


def _convolve(a: list[int], b: list[int], n: int) -> list[int]:
    """Coefficients 0..n of the product of two integer series."""
    rb = b[n::-1]  # rb[n - k:] is b_k, ..., b_0
    return [sum(map(mul, a[: k + 1], rb[n - k :])) for k in range(n + 1)]


def _ratios(nums: Iterable[int], dens: Iterable[int]) -> "PowerSeries":
    """The series with coefficients nums[k] / dens[k], one Fraction each."""
    return PowerSeries(tuple(map(Fraction, nums, dens)))


@dataclass(frozen=True)
class PowerSeries:
    """Truncated series with exact rational coefficients 0..order.

    Binary operations truncate to the smaller operand order.  Integer and
    Fraction scalars mix freely on either side.

    The kernels (``*``, ``/``, ``sqrt``, ``**``) write each operand once as
    integer numerators over one common denominator, run the convolution or
    recurrence on Python ints, and build a ``Fraction`` only per result
    coefficient: O(order) Fraction constructions instead of O(order^2)
    Fraction operations, and still no floating point.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a series carries at least its constant term")
        if type(self.coeffs) is not tuple or any(type(c) is not Fraction for c in self.coeffs):
            object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "PowerSeries":
        if order < 0:
            raise ValueError("order must be nonnegative")
        return cls((Fraction(value),) + (Fraction(0),) * order)

    @classmethod
    def monomial(cls, coeff: Scalar, power: int, order: int) -> "PowerSeries":
        return cls.constant(coeff, order).times_x(power)

    @classmethod
    def from_polynomial(cls, p: Polynomial, order: int) -> "PowerSeries":
        return cls(tuple(Fraction(p.coefficient(k)) for k in range(order + 1)))

    @classmethod
    def from_gf(cls, f: RationalGF, order: int) -> "PowerSeries":
        return cls(tuple(Fraction(c) for c in gf_coefficients(f, order)))

    def with_order(self, order: int) -> "PowerSeries":
        """Resize: truncate, or pad with zero coefficients (no assertion implied)."""
        if order <= self.order:
            return PowerSeries(self.coeffs[: order + 1])
        return PowerSeries(self.coeffs + (Fraction(0),) * (order - self.order))

    def times_x(self, k: int = 1) -> "PowerSeries":
        """Multiply by x^k at fixed order (the top k coefficients fall off)."""
        if k < 0:
            raise ValueError("the power of x must be nonnegative")
        return PowerSeries(((Fraction(0),) * k + self.coeffs)[: self.order + 1])

    def over_x(self, k: int = 1) -> "PowerSeries":
        """Divide by x^k; the first k coefficients must vanish.  Order drops by k."""
        if k < 0:
            raise ValueError("the power of x must be nonnegative")
        if any(self.coeffs[:k]):
            raise DivByNonUnit(f"series is not divisible by x^{k}")
        if self.order < k:
            raise ValueError("order too small to divide by x^k")
        return PowerSeries(self.coeffs[k:])

    def _coerce(self, other) -> "PowerSeries | None":
        if isinstance(other, PowerSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return PowerSeries.constant(other, self.order)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = min(self.order, rhs.order)
        return PowerSeries(tuple(self.coeffs[k] + rhs.coeffs[k] for k in range(n + 1)))

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = min(self.order, rhs.order)
        a, da = _over_common_denominator(self.coeffs, n)
        b, db = _over_common_denominator(rhs.coeffs, n)
        return _ratios(_convolve(a, b, n), repeat(da * db))

    __rmul__ = __mul__

    def __truediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if rhs.coeffs[0] == 0:
            raise DivByNonUnit("divisor has zero constant term")
        n = min(self.order, rhs.order)
        a, da = _over_common_denominator(self.coeffs, n)
        b, db = _over_common_denominator(rhs.coeffs, n)
        # self / rhs = (db / da) * (a / b).  With q = a / b, the integers
        # t_k = q_k * b0^(k+1) satisfy t_k = a_k b0^k - sum_j b_j b0^(j-1) t_{k-j}.
        b0 = b[0]
        powers = [1]
        for _ in range(n + 1):
            powers.append(powers[-1] * b0)
        scaled_b = [b[j] * powers[j - 1] for j in range(1, n + 1)]
        t: list[int] = []
        for k in range(n + 1):
            t.append(a[k] * powers[k] - sum(map(mul, scaled_b[:k], reversed(t))))
        return _ratios((db * v for v in t), (da * p for p in powers[1:]))

    def __rtruediv__(self, other):
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs / self

    def __pow__(self, k: int):
        """Square-and-multiply on the integer numerators."""
        if k < 0:
            raise ValueError("negative power")
        n = self.order
        base, d = _over_common_denominator(self.coeffs, n)
        result, rd = [1] + [0] * n, 1
        while k:
            if k & 1:
                result, rd = _convolve(result, base, n), rd * d
            k >>= 1
            if k:
                base, d = _convolve(base, base, n), d * d
        return _ratios(result, repeat(rd))

    def sqrt(self) -> "PowerSeries":
        """Square root with constant term 1, coefficient by coefficient.

        From s^2 = a: s_k = (a_k - sum_{0<i<k} s_i s_{k-i}) / 2.  With the
        coefficients a_k = A_k / d over one denominator, u_k = s_k (4d)^k
        is the k-th coefficient of sqrt(a(4dx)) = sqrt(1 + 4x G(x)) for an
        integer series G.  sqrt(1 + 4y) = 1 + 2y - 2y^2 + 4y^3 - ... has
        integer coefficients, so u_k is an integer and the recurrence runs
        on ints:
        u_k = (A_k 4^k d^(k-1) - sum_{0<i<k} u_i u_{k-i}) / 2, exactly.
        """
        if self.coeffs[0] != 1:
            raise SqrtNonUnit("series square root needs constant term 1")
        n = self.order
        a, d = _over_common_denominator(self.coeffs, n)
        scale = [1]  # scale[k] = (4d)^k
        for _ in range(n):
            scale.append(scale[-1] * 4 * d)
        u = [1]
        for k in range(1, n + 1):
            u.append((a[k] * scale[k] // d - sum(map(mul, u[1:k], u[k - 1 : 0 : -1]))) // 2)
        return _ratios(u, scale)
