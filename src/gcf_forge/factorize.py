"""Search for polynomial couplings (c, d) that split a three-term recurrence.

A coupling must satisfy, as polynomial identities,

    c(n) + d(n+1) = b(n)        and        c(n) * d(n) = -a(n),

which turns the second-order recurrence into a first-order cascade. The
search factors -a over its rational roots and takes every monic divisor Q
of -a built from those factors (and an indivisible residual, if any), of a
degree that deg a and deg b allow, as the monic part of d. With d = v*Q, the
sum identity fixes c = b - v*Q(n+1), so the one unknown left is the scalar v:
a root of a monic quadratic, checked against the whole product identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import isqrt, lcm

from .errors import ZeroPartialNumerator
from .poly import FactoredPolynomial, Polynomial, _product, _shift, factor_rational


@dataclass(frozen=True)
class Coupling:
    c: Polynomial
    d: Polynomial

    def __str__(self):
        return f"c = {self.c.to_text()}; d = {self.d.to_text()}"


def verify_coupling(a: Polynomial, b: Polynomial, coupling: Coupling) -> bool:
    """Both defining identities, checked by canonical polynomial equality."""
    sum_ok = coupling.c + coupling.d.shift(1) == b
    product_ok = coupling.c * coupling.d == -a
    return sum_ok and product_ok


def _scales(b: Polynomial, kappa: Fraction, R: list[int], R_den: int, q: int) -> list[Fraction]:
    """The nonzero rational roots v of v^2 - b_q v + kappa R_q = 0 (R over R_den), in ints.

    With b_q = B/e and kappa R_q = K/f, M = B^2 f - 4 K e^2 is e^2 f times the
    discriminant: v is rational iff M f = s^2, and then v = (B f +- s) / (2 e f).
    """
    B, e = b.numerators[q] if q <= b.degree else 0, b.denominator
    K = kappa.numerator * (R[q] if q < len(R) else 0)
    f = kappa.denominator * R_den
    M = B * B * f - 4 * K * e * e
    s = isqrt(max(M * f, 0))
    if s * s != M * f:
        return []
    return [Fraction(w, 2 * e * f) for w in {B * f + s, B * f - s} if w]


def _divisors(items: list[tuple[Polynomial, int]]) -> list[tuple[list[int], int]]:
    """Every monic divisor of P = prod f^m as (int numerators, denominator), in the
    mixed-radix order of the multiplicities, so P over the i-th is the (N-1-i)-th."""
    divisors = [([1], 1)]
    for f, m in items:
        powers = [([1], 1)]
        for _ in range(m):
            powers.append((_product(powers[-1][0], f.numerators), powers[-1][1] * f.denominator))
        divisors = [(_product(Q, F), Q_den * F_den) for Q, Q_den in divisors for F, F_den in powers]
    return divisors


def find_couplings(
    a: Polynomial, b: Polynomial, minus_a: FactoredPolynomial | None = None
) -> list[Coupling]:
    """All couplings reachable through rational-root splits of -a.

    With -a = kappa*Q*R (Q, R monic, kappa the signed content), each monic Q
    built from the linear factors of -a and the whole residual, if any, gives
    d = v*Q and c = b - v*Q(n+1); c*d == -a then reads v*c == kappa*R. Its
    row at degree deg Q is v^2 - b_q*v + kappa*R_q = 0, and each nonzero
    rational root v is kept iff the whole identity holds. An empty result
    means no coupling exists *within this search space*; factorizations
    needing irrational or complex splits are out of reach by design.
    minus_a is factor_rational(-a) when the caller already holds it. The
    search runs on int lists; only results become Polynomials.
    """
    if a.is_zero:
        raise ZeroPartialNumerator("a(n) is identically zero")
    factored = factor_rational(-a) if minus_a is None else minus_a
    kappa = factored.content * factored.sign
    items = list(factored.factors)
    if factored.residual is not None:
        items.append((factored.residual, 1))
    divisors = _divisors(items)
    # deg d = deg Q and deg c = deg a - deg Q. b = c + d(n+1) has the larger of the two degrees
    # unless they tie and the leading terms cancel, so deg Q is deg b or deg a - deg b when
    # 2 deg b >= deg a, else deg a / 2 (b = 0 has degree -1)
    A, B = a.degree, b.degree
    degrees = {B, A - B} if 2 * B >= A else {A // 2} if A % 2 == 0 else ()
    e = b.denominator
    found: list[Coupling] = []
    for (Q, Q_den), (R, R_den) in zip(divisors, reversed(divisors)):
        if len(Q) - 1 not in degrees:
            continue
        for v in _scales(b, kappa, R, R_den, len(Q) - 1):
            # c = b - v Q(n+1) is C over e vd Q_den; v c == kappa R, cross-multiplied
            vn, vd = v.numerator, v.denominator
            shifted = zip_longest(b.numerators, _shift(Q, 1), fillvalue=0)
            C, C_den = [x * vd * Q_den - e * vn * y for x, y in shifted], e * vd * Q_den
            left, right = vn * kappa.denominator * R_den, kappa.numerator * vd * C_den
            if all(x * left == y * right for x, y in zip_longest(C, R, fillvalue=0)):
                d = Polynomial([vn * y for y in Q], vd * Q_den)
                found.append(Coupling(c=Polynomial(C, C_den), d=d))
    # by (deg c, coefficients of c, coefficients of d), as ints over one denominator L
    L = lcm(*(p.denominator for cp in found for p in (cp.c, cp.d)))
    return sorted(found, key=lambda cp: (cp.c.degree, *(
        [x * (L // p.denominator) for x in p.numerators] for p in (cp.c, cp.d))))
