"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is stored as int numerators over one positive int denominator,
p(n) = sum(numerators[i] * n^i) / denominator, lowest degree first. The form
is canonical: no trailing zero numerator, gcd(denominator, *numerators) = 1,
and the zero polynomial is () over 1, so equality compares ints. The one
constructor takes that int form and canonicalizes it. The coupling check
needs only +, * and unary - between polynomials and ==; those, evaluation,
the index shift p(n) -> p(n+k), rational-root factorization and the text
form run on the ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat, zip_longest
from typing import Iterator

from .errors import ZeroPolynomial

RationalLike = int | Fraction


class Polynomial:
    __slots__ = ("numerators", "denominator")

    def __init__(self, numerators: list[int], denominator: int = 1):
        """The canonical form of numerators / denominator (any nonzero int); takes the list."""
        if not denominator:
            raise ZeroDivisionError("polynomial with zero denominator")
        numerators, self.denominator = _reduced(numerators, denominator)
        self.numerators = tuple(numerators)

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return len(self.numerators) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return Fraction(self.numerators[-1], self.denominator)

    def __call__(self, n: RationalLike) -> Fraction:
        """Exact evaluation at an integer or rational point, in ints."""
        if self.is_zero:
            return Fraction(0)
        value = _integer_form(self.numerators, n.numerator, n.denominator)
        return Fraction(value, self.denominator * n.denominator**self.degree)

    def shift(self, k: int) -> "Polynomial":
        """The polynomial q with q(n) = p(n+k) identically."""
        return Polynomial(_shift(self.numerators, k), self.denominator)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        da, db = self.denominator, other.denominator
        g = math.gcd(da, db)
        a = [c * (db // g) for c in self.numerators]
        b = [(da // g) * c for c in other.numerators]
        return Polynomial([x + y for x, y in zip_longest(a, b, fillvalue=0)], da // g * db)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.numerators], self.denominator)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        denominator = self.denominator * other.denominator
        return Polynomial(_product(self.numerators, other.numerators), denominator)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.numerators == other.numerators and self.denominator == other.denominator

    def __repr__(self):
        return f"Polynomial({self.to_text()!r})"

    def to_text(self) -> str:
        """Canonical text, highest degree first; reparses to an equal value."""
        parts: list[str] = []
        for deg in range(self.degree, -1, -1):
            if c := self.numerators[deg]:
                g = math.gcd(c, self.denominator)
                mag = f"{abs(c) // g}" + (f"/{self.denominator // g}" if self.denominator != g else "")
                var = "" if deg == 0 else "n" if deg == 1 else f"n^{deg}"
                body = mag if not var else var if mag == "1" else f"{mag}*{var}"
                parts.append((("+ " if c > 0 else "- ") if parts else "" if c > 0 else "-") + body)
        return " ".join(parts) or "0"


def _reduced(numerators: list[int], denominator: int) -> tuple[list[int], int]:
    """The canonical form of numerators / denominator (any nonzero int); takes the list."""
    while numerators and not numerators[-1]:
        numerators.pop()
    g = math.gcd(denominator, *numerators) * (-1 if denominator < 0 else 1)
    return ([c // g for c in numerators], denominator // g) if g != 1 else (numerators, denominator)


def _product(a, b) -> list[int]:
    """The coefficients of the product of two int coefficient sequences."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _shift(a, k: int) -> list[int]:
    """The coefficients of p(n+k) for p with int coefficients a (integer Taylor shift)."""
    out = list(a)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += k * out[j + 1]
    return out


def _power(a, exponent: int) -> list[int]:
    """The coefficients of the exponent-th power of an int coefficient sequence."""
    if a and not any(a[:-1]):  # a monomial, such as n
        return [0] * ((len(a) - 1) * exponent) + [a[-1] ** exponent]
    result = [1]
    while exponent:
        if exponent & 1:
            result = _product(result, a)
        exponent >>= 1
        if exponent:
            a = _product(a, a)
    return result


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

    def root_pairs(self) -> list[tuple[int, int, int]]:
        """(num, den, multiplicity) of each rational root num/den in lowest terms (den > 0),
        ascending by root; a linear factor n - num/den is stored as (-num + den n) / den."""
        return [(-f.numerators[0], f.denominator, m) for f, m in self.factors if f.degree == 1]

    def rational_roots(self) -> list[tuple[Fraction, int]]:
        """(root, multiplicity) pairs, ascending by root."""
        return [(Fraction(num, den), m) for num, den, m in self.root_pairs()]


def common_denominator(*polys: Polynomial) -> int:
    """The lcm of every coefficient denominator of the given polynomials."""
    return math.lcm(*(p.denominator for p in polys))


def integer_values(p: Polynomial, scale: int) -> Iterator[int]:
    """scale * p(n) for n = 1, 2, ... in ints; scale must clear every coefficient denominator.

    The stream adds forward differences: the values at n = 1..k+1 (k the degree)
    give Delta^0..Delta^k at n = 1, Delta^k is constant, and each nested
    accumulate adds one order, so every later value costs k int additions in C.
    """
    coefficients = [scale // p.denominator * c for c in reversed(p.numerators)]
    leading = []  # the values at n = 1..k+1, then in place Delta^i of them at n = 1
    for n in range(1, len(coefficients) + 1):
        value = 0
        for c in coefficients:
            value = value * n + c
        leading.append(value)
    for i in range(1, len(leading)):
        for j in range(len(leading) - 1, i - 1, -1):
            leading[j] -= leading[j - 1]
    values = repeat(leading.pop() if leading else 0)
    for start in reversed(leading):
        values = accumulate(values, initial=start)
    return values


def _positive_divisors(m: int) -> list[int]:
    m = abs(m)
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return small + [m // d for d in reversed(small) if d * d != m]


def _integer_form(ints, num: int, den: int) -> int:
    """den^deg * p(num/den) for p with integer coefficients ints (lowest first)."""
    acc = ints[-1]
    scale = 1
    for c in reversed(ints[:-1]):
        scale *= den
        acc = acc * num + c * scale
    return acc


def _deflate(ints: list[int], num: int, den: int) -> list[int]:
    # exact division by (den*n - num); the caller guarantees a root at num/den
    out = [0] * (len(ints) - 1)
    carry = 0
    for i in range(len(ints) - 1, 0, -1):
        carry = (ints[i] + num * carry) // den
        out[i - 1] = carry
    return out


def factor_rational(p: Polynomial) -> FactoredPolynomial:
    """Split off all rational roots; leave anything harder as a residual.

    content is |leading coefficient| and every listed factor is monic, so
    the reconstruction invariant holds exactly. Candidate roots come from
    the rational-root theorem applied to the primitive integer form, which
    is the stored numerators over their signed gcd; deflation stays in ints.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    ints = list(p.numerators)
    sign = 1 if ints[-1] > 0 else -1
    content = Fraction(abs(ints[-1]), p.denominator)

    factors: list[tuple[int, Polynomial, int]] = []  # (sort key of the root, factor, multiplicity)

    # strip n^k
    zeros = next(i for i, c in enumerate(ints) if c)
    if zeros:
        factors.append((0, Polynomial([0, 1]), zeros))
    g = sign * math.gcd(*ints)
    ints = [c // g for c in ints[zeros:]]  # primitive, positive leading coefficient

    if len(ints) > 1:
        # rational-root theorem: a root num/den in lowest terms has num | ints[0]
        # and den | ints[-1]; it lies within the Cauchy bound P/Q, and it
        # zeroes the integer form sum ints[i] num^i den^(deg-i)
        Q = ints[-1]
        P = Q + max(abs(c) for c in ints[:-1])
        numerators = _positive_divisors(ints[0])
        # every den divides Q, so num (Q // den) orders the roots num/den exactly
        candidates = sorted(
            (s * num * (Q // den), s * num, den)
            for den in _positive_divisors(ints[-1])
            for num in numerators
            if num * Q <= P * den and math.gcd(num, den) == 1
            for s in (1, -1)
            if _integer_form(ints, s * num, den) == 0
        )
        for key, num, den in candidates:
            mult = 0
            while len(ints) > 1 and _integer_form(ints, num, den) == 0:
                ints = _deflate(ints, num, den)
                mult += 1
            if mult:
                factors.append((key, Polynomial([-num, den], den), mult))

    factors.sort(key=lambda kfm: kfm[0])
    residual = None if len(ints) < 2 else Polynomial(ints, ints[-1])
    return FactoredPolynomial(content, sign, tuple((f, m) for _, f, m in factors), residual)


def root_bound_floor(ints) -> int:
    """floor(B) for the Cauchy bound B = 1 + max |a_i| / |a_deg| of p = sum a_i n^i.

    Every complex root of p lies in |z| <= B, so none reaches floor(B) + 1. ints
    are the int coefficients, lowest first, not all zero; trailing zeros are
    ignored. A nonzero constant has no root and gives 0.
    """
    deg = len(ints) - 1
    while not ints[deg]:
        deg -= 1
    return 1 + max(map(abs, ints[:deg])) // abs(ints[deg]) if deg else 0
