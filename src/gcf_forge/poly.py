"""Exact univariate polynomial arithmetic over the rationals.

Dense representation, lowest degree first, canonical form (no trailing
zero coefficients; the zero polynomial has an empty coefficient tuple).
Includes the index shift p(n) -> p(n+k) and rational-root factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import ZeroPolynomial

RationalLike = int | Fraction


class Polynomial:
    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple | list = ()):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients: tuple[Fraction, ...] = tuple(coeffs)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def constant(cls, value: RationalLike) -> "Polynomial":
        return cls((value,))

    @classmethod
    def variable(cls) -> "Polynomial":
        """The polynomial n."""
        return cls((0, 1))

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return len(self.coefficients) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    @property
    def constant_term(self) -> Fraction:
        return self.coefficients[0] if self.coefficients else Fraction(0)

    def __call__(self, n: RationalLike) -> Fraction:
        """Exact Horner evaluation at an integer or rational point."""
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * n + c
        return acc

    def shift(self, k: int) -> "Polynomial":
        """The polynomial q with q(n) = p(n+k) identically."""
        if k == 0 or self.is_zero:
            return self
        # Horner in the polynomial ring: fold coefficients against (n + k)
        acc = Polynomial.zero()
        step = Polynomial((k, 1))
        for c in reversed(self.coefficients):
            acc = acc * step + c
        return acc

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return Polynomial(merged)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial(tuple(c * other for c in self.coefficients))
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            if scalar == 0:
                raise ZeroDivisionError("polynomial divided by zero scalar")
            return self * (Fraction(1) / Fraction(scalar))
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __repr__(self):
        return f"Polynomial({self.to_text()!r})"

    def __str__(self):
        return self.to_text()

    def to_text(self) -> str:
        """Canonical text, highest degree first; reparses to an equal value."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for deg in range(self.degree, -1, -1):
            coef = self.coefficients[deg]
            if coef == 0:
                continue
            mag = abs(coef)
            if deg == 0:
                body = str(mag)
            else:
                var = "n" if deg == 1 else f"n^{deg}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if coef > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coef > 0 else f"- {body}")
        return " ".join(parts)


@dataclass(frozen=True)
class FactoredPolynomial:
    """sign * content * prod(factor^multiplicity) * residual == original.

    All listed factors are monic; linear ones come from exact rational
    roots. The residual, when present, is monic of degree >= 2 with no
    rational roots. content is positive; the sign rides separately.
    """

    content: Fraction
    sign: int
    factors: tuple[tuple[Polynomial, int], ...]
    residual: Polynomial | None

    def rational_roots(self) -> list[tuple[Fraction, int]]:
        """(root, multiplicity) pairs, ascending by root."""
        return [(-f.coefficients[0], m) for f, m in self.factors if f.degree == 1]


def common_denominator(*polys: Polynomial) -> int:
    """The lcm of every coefficient denominator of the given polynomials."""
    return math.lcm(*(q.denominator for p in polys for q in p.coefficients))


def integer_values(p: Polynomial, scale: int) -> Callable[[int], int]:
    """n -> scale * p(n) in ints; scale must clear every coefficient denominator."""
    coefficients = [scale // q.denominator * q.numerator for q in reversed(p.coefficients)]

    def value(n: int) -> int:
        acc = 0
        for coefficient in coefficients:
            acc = acc * n + coefficient
        return acc

    return value


def _positive_divisors(m: int) -> list[int]:
    m = abs(m)
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def _integer_form(ints: list[int], num: int, den: int) -> int:
    """den^deg * p(num/den) for p with integer coefficients ints (lowest first)."""
    acc = ints[-1]
    scale = 1
    for c in reversed(ints[:-1]):
        scale *= den
        acc = acc * num + c * scale
    return acc


def _deflate(p: Polynomial, root: Fraction) -> Polynomial:
    # synthetic division by (n - root); caller guarantees p(root) == 0
    coeffs = p.coefficients
    out: list[Fraction] = [Fraction(0)] * (len(coeffs) - 1)
    carry = Fraction(0)
    for i in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[i] + carry * root
        out[i - 1] = carry
    return Polynomial(out)


def factor_rational(p: Polynomial) -> FactoredPolynomial:
    """Split off all rational roots; leave anything harder as a residual.

    content is |leading coefficient| and every listed factor is monic, so
    the reconstruction invariant holds exactly. Candidate roots come from
    the rational-root theorem applied to the primitive integer form.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    lc = p.leading_coefficient
    sign = 1 if lc > 0 else -1
    content = abs(lc)
    monic = p / lc

    factors: list[tuple[Polynomial, int]] = []

    # strip n^k
    zeros = 0
    while monic.coefficients[zeros] == 0:
        zeros += 1
    if zeros:
        factors.append((Polynomial.variable(), zeros))
        monic = Polynomial(monic.coefficients[zeros:])

    if monic.degree >= 1:
        # primitive integer form for rational-root candidates
        denom_lcm = common_denominator(monic)
        ints = [int(c * denom_lcm) for c in monic.coefficients]
        g = math.gcd(*ints)
        ints = [c // g for c in ints]
        # rational-root theorem: a root num/den in lowest terms has num | ints[0]
        # and den | ints[-1]; it lies within the Cauchy bound P/Q, and it
        # zeroes the integer form sum ints[i] num^i den^(deg-i)
        bound = cauchy_root_bound(monic)
        P, Q = bound.numerator, bound.denominator
        numerators = _positive_divisors(ints[0])
        candidates = sorted(
            Fraction(s * num, den)
            for den in _positive_divisors(ints[-1])
            for num in numerators
            if num * Q <= P * den and math.gcd(num, den) == 1
            for s in (1, -1)
            if _integer_form(ints, s * num, den) == 0
        )
        for r in candidates:
            mult = 0
            while monic.degree >= 1 and monic(r) == 0:
                monic = _deflate(monic, r)
                mult += 1
            if mult:
                factors.append((Polynomial((-r, 1)), mult))

    factors.sort(key=lambda fm: -fm[0].coefficients[0])
    residual = None if monic.degree < 1 else monic
    return FactoredPolynomial(content, sign, tuple(factors), residual)


def cauchy_root_bound(p: Polynomial) -> Fraction:
    """B with all complex roots of p inside |z| <= B (0 for constants)."""
    if p.is_zero:
        raise ZeroPolynomial("root bound of the zero polynomial")
    if p.degree == 0:
        return Fraction(0)
    lead = abs(p.leading_coefficient)
    return 1 + max(abs(c) for c in p.coefficients[:-1]) / lead


def integer_roots_from(p: Polynomial, start: int = 1) -> list[int]:
    """Integer roots of p that are >= start, ascending."""
    if p.is_zero:
        raise ZeroPolynomial("every integer is a root of the zero polynomial")
    roots = factor_rational(p).rational_roots()
    return [int(r) for r, _ in roots if r.denominator == 1 and r >= start]

