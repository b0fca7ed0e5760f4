"""Exact arithmetic kernels: integer polynomials, rational generating
functions, and truncated power series with rational coefficients.

A truncated series is held as integer numerators over one denominator, so
its kernels run on Python ints; a factor of degree d, such as x, 1-2x or
(1-x)^5, costs O(order·d) in a product or a quotient.  Each operation has
one integer kernel, shared by ``Polynomial`` and ``PowerSeries``: ``_add``
sums, ``_convolve`` multiplies, ``_power`` raises to a power by
square-and-multiply, and the fraction-free recurrence of
``PowerSeries.__truediv__`` divides, which is also how ``gf_coefficients``
expands a closed form.  Scalars are exact: a polynomial coefficient is an
``int``, a series scalar an ``int`` or a ``Fraction``, and any other type
(``bool``, ``float`` and ``str`` included) raises ``TypeError``.  No
floating point anywhere; identity checks compare coefficients exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
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
    """Integer polynomial; coeffs[k] is the degree-k coefficient, an int.

    Canonical form: no trailing zero coefficient; the zero polynomial is
    the empty tuple.  A coefficient of any other type raises TypeError.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not all(type(c) is int for c in self.coeffs):
            raise TypeError(f"polynomial coefficients must be int: {self.coeffs!r}")
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient; use Polynomial.from_coeffs")

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "Polynomial":
        values = list(coeffs)
        # only int zeros are trimmed, so a trailing 0.0 reaches the type check
        while values and type(values[-1]) is int and values[-1] == 0:
            values.pop()
        return cls(tuple(values))

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
        return Polynomial.from_coeffs(_add(self.coeffs, other.coeffs))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        return Polynomial(tuple(_convolve(a, b, len(a) + len(b) - 2)))

    def __pow__(self, k: int) -> "Polynomial":
        # k·len(coeffs) bounds the degree; _convolve stops at the true one
        return Polynomial(tuple(_power(self.coeffs, k, k * len(self.coeffs))))

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
    """Expand f to a_0..a_order: the numerator divided by the denominator.

    The division is ``PowerSeries.__truediv__``'s fraction-free recurrence.
    It is exact on ints: the denominator's constant term is 1, so the
    recurrence's scale is 1 and its numerators are the coefficients.
    """
    nums = PowerSeries.from_gf(f, order).nums
    return [*nums, *repeat(0, order + 1 - len(nums))]


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


def _add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Termwise sum of two integer coefficient lists of any lengths."""
    if len(a) < len(b):
        a, b = b, a
    return [*map(add, a, b), *a[len(b) :]]


def _power(base: Sequence[int], k: int, n: int) -> Sequence[int]:
    """Coefficients 0..n of base^k, by square-and-multiply on _convolve."""
    if k < 0:
        raise ValueError("negative power")
    result: Sequence[int] = [1]
    while k:
        if k & 1:
            result = _convolve(result, base, n)
        k >>= 1
        if k:
            base = _convolve(base, base, n)
    return result


def _exact(value) -> bool:
    """A series scalar is an int or a Fraction; a bool is neither."""
    return type(value) is int or type(value) is Fraction


def _coerced(op):
    """The binary operator `op` with its other operand as a PowerSeries.

    An int or Fraction becomes a constant series of self's order; any
    other type gives NotImplemented, so Python raises TypeError.
    """

    @wraps(op)
    def method(self, other):
        if not isinstance(other, PowerSeries):
            if not _exact(other):
                return NotImplemented
            other = PowerSeries.constant(other, self.order)
        return op(self, other)

    return method


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

    Binary operations truncate to the smaller operand order.  Scalars,
    as coefficients or as operands on either side of ``+ - * /``, are
    int or Fraction; any other type raises TypeError.  The kernels run on
    Python ints and end with one gcd; no floating point and no Fraction
    is involved: ``+`` and ``-`` on ``_add``, ``*`` on ``_convolve``,
    ``**`` on ``_power``, ``/`` by a fraction-free recurrence (also
    ``from_gf``'s), ``sqrt`` by its own.  A product or a quotient by a
    factor of degree d costs O(order·d).  ``coeffs`` builds the Fractions
    on first read.
    """

    nums: tuple[int, ...]
    den: int
    order: int

    def __init__(self, coeffs: Iterable[Scalar]):
        values = tuple(coeffs)
        if not values:
            raise ValueError("a series carries at least its constant term")
        if not all(map(_exact, values)):
            raise TypeError(f"series coefficients must be int or Fraction: {values!r}")
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
        if not _exact(value):
            raise TypeError(f"a series scalar must be int or Fraction: {value!r}")
        return _series((value.numerator,), value.denominator, order)

    @classmethod
    def monomial(cls, coeff: Scalar, power: int, order: int) -> "PowerSeries":
        return cls.constant(coeff, order).times_x(power)

    @classmethod
    def from_polynomial(cls, p: Polynomial, order: int) -> "PowerSeries":
        return _series(p.coeffs, 1, order)

    @classmethod
    def from_gf(cls, f: RationalGF, order: int) -> "PowerSeries":
        return cls.from_polynomial(f.numerator, order) / cls.from_polynomial(f.denominator, order)

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

    @_coerced
    def __add__(self, rhs):
        n = min(self.order, rhs.order)
        den = lcm(self.den, rhs.den)
        a, b = self.nums[: n + 1], rhs.nums[: n + 1]
        if self.den != den:
            a = [v * (den // self.den) for v in a]
        if rhs.den != den:
            b = [v * (den // rhs.den) for v in b]
        return _series(_add(a, b), den, n)

    __radd__ = __add__

    def __neg__(self):
        return _series([-v for v in self.nums], self.den, self.order)

    @_coerced
    def __sub__(self, rhs):
        return self + (-rhs)

    @_coerced
    def __rsub__(self, lhs):
        return lhs + (-self)

    @_coerced
    def __mul__(self, rhs):
        n = min(self.order, rhs.order)
        return _series(_convolve(self.nums, rhs.nums, n), self.den * rhs.den, n)

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, rhs):
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

    @_coerced
    def __rtruediv__(self, lhs):
        return lhs / self

    def __pow__(self, k: int):
        return _series(_power(self.nums, k, self.order), self.den**k, self.order)

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
