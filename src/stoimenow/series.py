"""Exact arithmetic kernels: integer polynomials, rational generating
functions, and truncated power series with rational coefficients.

A truncated series is held as integer numerators over one denominator, so
its kernels run on Python ints; a factor of degree d, such as x, 1-2x or
(1-x)^5, costs O(order·d) in a product or a quotient.  No floating point
anywhere; identity checks compare coefficients exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Sequence, Union

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
        return Polynomial(tuple(_convolve(a, b, len(a) + len(b) - 2)))

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

# Operands of _convolve with at most this many terms take the row loop.  At
# order 64 a row costs about 1/38 of the dense sums, so 32 keeps a margin.
_DENSE = 32


def _convolve(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Coefficients 0..n of the product of two integer polynomials.

    The operands may have any length; the result stops at the product's
    degree when that is below n.  One row per term of the shorter operand
    costs O(n·d) for a factor of degree d; two long operands take one sum
    per result coefficient instead, which is faster at O(n^2).
    """
    if len(a) < len(b):
        a, b = b, a
    a, b = a[: n + 1], b[: n + 1]
    if not b:
        return []
    size = min(n + 1, len(a) + len(b) - 1)
    if len(b) > _DENSE:
        rb = [0] * (size - len(b)) + list(b[::-1])  # rb[size - 1 - k:] is b_k, ..., b_0
        return [sum(map(mul, a[: k + 1], rb[size - 1 - k :])) for k in range(size)]
    out = [0] * size
    for j, bj in enumerate(b):
        if bj:
            out[j : j + len(a)] = map(add, out[j : j + len(a)], map(mul, a, repeat(bj)))
    return out


def _series(nums: Sequence[int], den: int, order: int) -> "PowerSeries":
    """The series sum nums[k] x^k / den to `order`, in canonical form."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    size = min(len(nums), order + 1)
    while size and not nums[size - 1]:
        size -= 1
    nums = tuple(nums[:size])
    if den < 0:
        nums, den = tuple(-v for v in nums), -den
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums, den = tuple(v // g for v in nums), den // g
    s = object.__new__(PowerSeries)
    vars(s).update(nums=nums, den=den, order=order)  # frozen: bypass __setattr__
    return s


@dataclass(frozen=True, init=False)
class PowerSeries:
    """Truncated series with exact rational coefficients 0..order.

    Coefficient k is nums[k] / den, and is 0 past the end of nums.  The
    form is canonical: nums has no trailing zero, den >= 1 and
    gcd(den, *nums) == 1.  So equality and the hash compare the fields,
    and a polynomial such as x or (1-x)^5 stays a few terms long at any
    order.

    Binary operations truncate to the smaller operand order.  Integer and
    Fraction scalars mix freely on either side.  The kernels (``+``,
    ``*``, ``/``, ``sqrt``, ``**``) run on Python ints and end with one
    gcd; no floating point and no Fraction is involved.  A product or a
    quotient by a factor of degree d costs O(order·d).  ``coeffs`` builds
    the Fractions on first read.
    """

    nums: tuple[int, ...]
    den: int
    order: int

    def __init__(self, coeffs: Iterable[Scalar]):
        values = tuple(coeffs)
        if not values:
            raise ValueError("a series carries at least its constant term")
        if any(type(c) is not int and type(c) is not Fraction for c in values):
            values = tuple(map(Fraction, values))
        den = lcm(*(c.denominator for c in values))
        canonical = _series([c.numerator * (den // c.denominator) for c in values], den, len(values) - 1)
        vars(self).update(vars(canonical))
        if all(type(c) is Fraction for c in values):
            vars(self)["coeffs"] = values  # the cache of the `coeffs` property

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients 0..order, one Fraction each."""
        padding = (Fraction(0),) * (self.order + 1 - len(self.nums))
        return tuple(Fraction(v, self.den) for v in self.nums) + padding

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "PowerSeries":
        value = Fraction(value)
        return _series((value.numerator,), value.denominator, order)

    @classmethod
    def monomial(cls, coeff: Scalar, power: int, order: int) -> "PowerSeries":
        return cls.constant(coeff, order).times_x(power)

    @classmethod
    def from_polynomial(cls, p: Polynomial, order: int) -> "PowerSeries":
        return _series(p.coeffs, 1, order)

    @classmethod
    def from_gf(cls, f: RationalGF, order: int) -> "PowerSeries":
        return _series(gf_coefficients(f, order), 1, order)

    def with_order(self, order: int) -> "PowerSeries":
        """Resize: truncate, or pad with zero coefficients (no assertion implied)."""
        return _series(self.nums, self.den, order)

    def times_x(self, k: int = 1) -> "PowerSeries":
        """Multiply by x^k at fixed order (the top k coefficients fall off)."""
        if k < 0:
            raise ValueError("the power of x must be nonnegative")
        return _series((0,) * k + self.nums, self.den, self.order)

    def over_x(self, k: int = 1) -> "PowerSeries":
        """Divide by x^k; the first k coefficients must vanish.  Order drops by k."""
        if k < 0:
            raise ValueError("the power of x must be nonnegative")
        if any(self.nums[:k]):
            raise DivByNonUnit(f"series is not divisible by x^{k}")
        if self.order < k:
            raise ValueError("order too small to divide by x^k")
        return _series(self.nums[k:], self.den, self.order - k)

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
        den = lcm(self.den, rhs.den)
        a, b = self.nums[: n + 1], rhs.nums[: n + 1]
        if self.den != den:
            a = [v * (den // self.den) for v in a]
        if rhs.den != den:
            b = [v * (den // rhs.den) for v in b]
        if len(a) < len(b):
            a, b = b, a
        return _series([*map(add, a, b), *a[len(b) :]], den, n)

    __radd__ = __add__

    def __neg__(self):
        return _series([-v for v in self.nums], self.den, self.order)

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
        return _series(_convolve(self.nums, rhs.nums, n), self.den * rhs.den, n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if not rhs.nums or rhs.nums[0] == 0:
            raise DivByNonUnit("divisor has zero constant term")
        n = min(self.order, rhs.order)
        a, b = self.nums[: n + 1], rhs.nums[: n + 1]
        a += (0,) * (n + 1 - len(a))
        # self / rhs = (rhs.den / self.den) * (a / b).  With q = a / b and
        # p = b0^(n+1), the integers t_k = q_k * p satisfy
        # b0 t_k = a_k p - sum_{0<j<=k} b_j t_{k-j}, so // b0 is exact.
        b0, tail = b[0], b[1:]
        p = b0 ** (n + 1)
        t: list[int] = []
        for ak in a:
            t.append((ak * p - sum(map(mul, tail, reversed(t)))) // b0)
        return _series([rhs.den * v for v in t], self.den * p, n)

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
        base, d = self.nums, self.den
        result, rd = [1], 1
        while k:
            if k & 1:
                result, rd = _convolve(result, base, n), rd * d
            k >>= 1
            if k:
                base, d = _convolve(base, base, n), d * d
        return _series(result, rd, n)

    def sqrt(self) -> "PowerSeries":
        """Square root with constant term 1, coefficient by coefficient.

        From s^2 = a: s_k = (a_k - sum_{0<i<k} s_i s_{k-i}) / 2.  With
        a_k = A_k / d, u_k = s_k (4d)^k is the k-th coefficient of
        sqrt(a(4dx)) = sqrt(1 + 4x G(x)) for an integer series G.
        sqrt(1 + 4y) = 1 + 2y - 2y^2 + 4y^3 - ... has integer coefficients,
        so u_k is an integer and the recurrence runs on ints:
        u_k = (A_k 4^k d^(k-1) - sum_{0<i<k} u_i u_{k-i}) / 2, exactly.
        The result is u_k (4d)^(n-k) over (4d)^n.
        """
        if self.nums[:1] != (self.den,):
            raise SqrtNonUnit("series square root needs constant term 1")
        n, d = self.order, self.den
        a = self.nums + (0,) * (n + 1 - len(self.nums))
        scale = [1]  # scale[k] = (4d)^k
        for _ in range(n):
            scale.append(scale[-1] * 4 * d)
        u = [1]
        for k in range(1, n + 1):
            u.append((a[k] * scale[k] // d - sum(map(mul, u[1:k], u[k - 1 : 0 : -1]))) // 2)
        return _series([v * scale[n - k] for k, v in enumerate(u)], scale[n], n)
