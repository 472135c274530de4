"""Series induced by a coupling: exact terms, ratio certificate, summation.

The k-th term is t_k = prod_{j=1..k} c(j) / prod_{j=1..k+1} d(j). The
consecutive-term ratio is the exact rational function c(k+1)/d(k+2), whose
limit classifies convergence; when it converges, the series is summed in
exact rational arithmetic under a certified geometric tail bound and
converted to a binary float once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator

from .errors import NotConvergent, ZeroDenominatorFactor
from .factorize import Coupling
from .numerics import PrecisionReal, rational_to_real, working_precision
from .poly import Polynomial, cauchy_root_bound, integer_roots_from

CONVERGENT = "convergent"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"


class TermStream(Iterator[Fraction]):
    """Sequential exact term iterator; one multiply per product per step.

    Construction fails with ZeroDenominatorFactor if d has an integer root
    j >= 1, since t_k would divide by d(j) = 0 from k = j-1 on.
    """

    def __init__(self, coupling: Coupling):
        roots = integer_roots_from(coupling.d, start=1)
        if roots:
            raise ZeroDenominatorFactor(roots[0])
        self.coupling = coupling
        self.k = 0
        self.num = Fraction(1)  # prod_{j=1..k} c(j)
        self.den = coupling.d(1)  # prod_{j=1..k+1} d(j)

    def __iter__(self) -> "TermStream":
        return self

    def __next__(self) -> Fraction:
        term = self.num / self.den
        self.k += 1
        self.num *= self.coupling.c(self.k)
        self.den *= self.coupling.d(self.k + 1)
        return term


def terms(coupling: Coupling, count: int) -> list[Fraction]:
    """Exact t_0 .. t_{count-1}."""
    return list(islice(TermStream(coupling), count))


def partial_sums(coupling: Coupling, count: int) -> list[Fraction]:
    """Exact prefix sums S_n = t_0 + ... + t_n for n = 0..count-1."""
    out: list[Fraction] = []
    acc = Fraction(0)
    for term in islice(TermStream(coupling), count):
        acc += term
        out.append(acc)
    return out


@dataclass(frozen=True)
class RatioCertificate:
    """Exact consecutive-term ratio t_{k+1}/t_k and its limit.

    numerator/denominator form the rational function of k; rho is the
    exact limit (None encodes an infinite limit). The ratio identity is
    meaningful for k >= valid_from, past any integer pole of the
    denominator polynomial.
    """

    numerator: Polynomial  # c(k+1)
    denominator: Polynomial  # d(k+2)
    rho: Fraction | None
    classification: str
    valid_from: int = 0

    def at(self, k: int) -> Fraction:
        """Exact ratio value at integer k >= valid_from."""
        return self.numerator(k) / self.denominator(k)


def ratio_certificate(coupling: Coupling) -> RatioCertificate:
    """Classify convergence from the degrees and leading coefficients.

    rho = 0 when the numerator degree is lower, the leading-coefficient
    ratio when degrees tie, and infinite otherwise. Classification uses
    |rho|: below 1 convergent, above 1 (or infinite) divergent, exactly 1
    honestly inconclusive.
    """
    num = coupling.c.shift(1)
    den = coupling.d.shift(2)
    if num.degree < den.degree:
        rho: Fraction | None = Fraction(0)
    elif num.degree == den.degree:
        rho = num.leading_coefficient / den.leading_coefficient
    else:
        rho = None
    if rho is None:
        classification = DIVERGENT
    elif abs(rho) < 1:
        classification = CONVERGENT
    elif abs(rho) > 1:
        classification = DIVERGENT
    else:
        classification = INCONCLUSIVE
    poles = integer_roots_from(den, start=0) if not den.is_zero else []
    valid_from = max(poles) + 1 if poles else 0
    return RatioCertificate(num, den, rho, classification, valid_from)


def _geometric_onset(certificate: RatioCertificate, rho_bar: Fraction) -> int:
    """Smallest certified K with |ratio(k)| <= rho_bar for every k >= K.

    Past the Cauchy root bounds of D, rho_bar*D - N and rho_bar*D + N
    (D = |denominator|, N = numerator) none of them changes sign, so the
    inequality holds on the whole tail once it holds at one point there.
    """
    num = certificate.numerator
    den = certificate.denominator
    D = den if den.leading_coefficient > 0 else -den
    guards = [D, rho_bar * D - num, rho_bar * D + num]
    bound = max(cauchy_root_bound(g) for g in guards if not g.is_zero)
    K = max(math.floor(bound) + 1, certificate.valid_from)
    if not (D(K) > 0 and abs(num(K)) <= rho_bar * D(K)):
        raise NotConvergent(f"no geometric onset certified at k = {K}")
    return K


def sum_to_precision(coupling: Coupling, digits: int) -> tuple[PrecisionReal, int]:
    """Sum the series to within 10^(-digits); returns (value, terms used).

    Terms are accumulated exactly; the tail after index k >= K is bounded
    by |t_k| * rho_bar / (1 - rho_bar) with rho_bar = (|rho|+1)/2, where K
    is certified by :func:`_geometric_onset`. Conversion to binary floats
    happens once, after the bound drops below half the error budget.
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    certificate = ratio_certificate(coupling)
    if certificate.classification != CONVERGENT:
        raise NotConvergent(
            f"series is {certificate.classification}; cannot certify a sum"
        )
    rho_bar = (abs(certificate.rho) + 1) / 2
    onset = _geometric_onset(certificate, rho_bar)
    tail_factor = rho_bar / (1 - rho_bar)
    threshold = Fraction(1, 2 * 10**digits)

    total = Fraction(0)
    used = 0
    for k, term in enumerate(TermStream(coupling)):
        total += term
        used = k + 1
        if k >= onset and abs(term) * tail_factor <= threshold:
            break
    return rational_to_real(total, working_precision(digits)), used
