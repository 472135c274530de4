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
from .poly import Polynomial, factor_rational


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


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    num_root = isqrt(q.numerator)
    den_root = isqrt(q.denominator)
    if num_root * num_root == q.numerator and den_root * den_root == q.denominator:
        return Fraction(num_root, den_root)
    return None


def _coefficient(p: Polynomial, i: int) -> Fraction:
    return p.coefficients[i] if i <= p.degree else Fraction(0)


def _divisors(items: list[tuple[Polynomial, int]]):
    """(Q, Q(n+1), R) for every monic divisor Q of P = prod f^m, with Q*R == P."""
    one = Polynomial.constant(1)
    triples = [(one, one, one)]
    for f, m in items:
        shifted = f.shift(1)
        powers, shifted_powers = [one], [one]
        for _ in range(m):
            powers.append(powers[-1] * f)
            shifted_powers.append(shifted_powers[-1] * shifted)
        triples = [
            (Q * powers[k], Qs * shifted_powers[k], R * powers[m - k])
            for Q, Qs, R in triples
            for k in range(m + 1)
        ]
    return triples


def find_couplings(a: Polynomial, b: Polynomial) -> list[Coupling]:
    """All couplings reachable through rational-root splits of -a.

    With -a = kappa*Q*R (Q, R monic, kappa the signed content), each monic Q
    built from the linear factors of -a and the whole residual, if any, gives
    d = v*Q and c = b - v*Q(n+1); c*d == -a then reads v*c == kappa*R. Its
    row at degree deg Q is v^2 - b_q*v + kappa*R_q = 0, and each nonzero
    rational root v is kept iff the whole identity holds. An empty result
    means no coupling exists *within this search space*; factorizations
    needing irrational or complex splits are out of reach by design.
    """
    if a.is_zero:
        raise ZeroPartialNumerator("a(n) is identically zero")
    factored = factor_rational(-a)
    kappa = factored.content * factored.sign
    items = list(factored.factors)
    if factored.residual is not None:
        items.append((factored.residual, 1))
    found: list[Coupling] = []
    for Q, Qs, R in _divisors(items):
        b_q = _coefficient(b, Q.degree)
        root = _rational_sqrt(b_q * b_q - 4 * kappa * _coefficient(R, Q.degree))
        if root is None:
            continue
        for v in {(b_q + root) / 2, (b_q - root) / 2}:
            c = b - v * Qs
            if v and v * c == kappa * R:
                found.append(Coupling(c=c, d=v * Q))
    return sorted(
        found,
        key=lambda cp: (cp.c.degree, cp.c.coefficients, cp.d.coefficients),
    )
