"""Search for polynomial couplings (c, d) that split a three-term recurrence.

A coupling must satisfy, as polynomial identities,

    c(n) + d(n+1) = b(n)        and        c(n) * d(n) = -a(n),

which turns the second-order recurrence into a first-order cascade. The
search factors -a over its rational roots and takes every monic divisor Q
of -a built from those factors (and an indivisible residual, if any) as the
monic part of d. With d = v*Q, the sum identity fixes c = b - v*Q(n+1), so
the one unknown left is the scalar v: a root of a monic quadratic, checked
against the whole product identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import ZeroPartialNumerator
from .poly import FactoredPolynomial, Polynomial, factor_rational


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


def _scales(b: Polynomial, kappa: Fraction, R: Polynomial, q: int) -> list[Fraction]:
    """The nonzero rational roots v of v^2 - b_q v + kappa R_q = 0, found in ints.

    With b_q = B/e and kappa R_q = K/f, M = B^2 f - 4 K e^2 is e^2 f times the
    discriminant: v is rational iff M f = s^2, and then v = (B f +- s) / (2 e f).
    """
    B, e = b.numerators[q] if q <= b.degree else 0, b.denominator
    K = kappa.numerator * (R.numerators[q] if q <= R.degree else 0)
    f = kappa.denominator * R.denominator
    M = B * B * f - 4 * K * e * e
    s = isqrt(max(M * f, 0))
    if s * s != M * f:
        return []
    return [Fraction(w, 2 * e * f) for w in {B * f + s, B * f - s} if w]


def _divisors(items: list[tuple[Polynomial, int]]):
    """(Q, R) for every monic divisor Q of P = prod f^m, with Q*R == P."""
    one = Polynomial.constant(1)
    pairs = [(one, one)]
    for f, m in items:
        powers = [one]
        for _ in range(m):
            powers.append(powers[-1] * f)
        pairs = [(Q * powers[k], R * powers[m - k]) for Q, R in pairs for k in range(m + 1)]
    return pairs


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
    minus_a is factor_rational(-a) when the caller already holds it.
    """
    if a.is_zero:
        raise ZeroPartialNumerator("a(n) is identically zero")
    factored = factor_rational(-a) if minus_a is None else minus_a
    kappa = factored.content * factored.sign
    items = list(factored.factors)
    if factored.residual is not None:
        items.append((factored.residual, 1))
    found: list[Coupling] = []
    for Q, R in _divisors(items):
        for v in _scales(b, kappa, R, Q.degree):
            c = b - v * Q.shift(1)
            if v * c == kappa * R:
                found.append(Coupling(c=c, d=v * Q))
    return sorted(
        found,
        key=lambda cp: (cp.c.degree, cp.c.coefficients, cp.d.coefficients),
    )
