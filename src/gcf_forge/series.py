"""Series induced by a coupling: the integer cascade, ratio certificate, summation.

The k-th term is t_k = prod_{j=1..k} c(j) / prod_{j=1..k+1} d(j). The
consecutive-term ratio is the exact rational function c(k+1)/d(k+2), whose
limit classifies convergence. Terms and partial sums come from one
first-order cascade in plain ints. A convergent series is summed under a
certified geometric tail bound in fixed point, where ints of about F bits
enclose the exact prefix sum in [s - E, s + E] 2^-F; the exact cascade runs
only when that enclosure cannot decide the stop or the rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import NotConvergent, ZeroDenominatorFactor
from .factorize import Coupling
from .numerics import PrecisionReal, enclosure_to_real, rational_to_real, working_precision
from .poly import Polynomial, cauchy_root_bound, common_denominator, integer_values

CONVERGENT = "convergent"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"

#: fraction bits the fixed-point sum carries past the working precision
FIXED_POINT_GUARD_BITS = 64


def cascade(coupling: Coupling) -> Iterator[tuple[int, int, int]]:
    """(C_k, D_k, T_k) for k = 0, 1, ... in ints: t_k = C_k/D_k, S_k = T_k/D_k.

    With L the lcm of every coefficient denominator of c and d,
    C_k = L prod_{j<=k} L c(j), D_k = prod_{j<=k+1} L d(j) and
    T_k = (L d(k+1)) T_{k-1} + C_k, so no step reduces a fraction. Raises
    ZeroDenominatorFactor(j) when the next term needs d(j) = 0.
    """
    scale = common_denominator(coupling.c, coupling.d)
    c = integer_values(coupling.c, scale)
    d = integer_values(coupling.d, scale)
    C, D, T = scale, 1, 0
    for j, cj, dj in zip(itertools.count(1), c, d):
        if dj == 0:
            raise ZeroDenominatorFactor(j)
        D *= dj
        T = dj * T + C
        yield C, D, T
        C *= cj


def partial_sums(coupling: Coupling, count: int) -> list[Fraction]:
    """Exact prefix sums S_n = t_0 + ... + t_n for n = 0..count-1."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return [Fraction(T, D) for _, D, T in itertools.islice(cascade(coupling), count)]


@dataclass(frozen=True)
class RatioCertificate:
    """Exact consecutive-term ratio t_{k+1}/t_k of a coupling's series, and its limit.

    numerator/denominator form the rational function of k; rho is the
    exact limit (None encodes an infinite limit).
    """

    coupling: Coupling
    numerator: Polynomial  # c(k+1)
    denominator: Polynomial  # d(k+2)
    rho: Fraction | None
    classification: str


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
    return RatioCertificate(coupling, num, den, rho, classification)


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
    # K exceeds the Cauchy bound of D, hence every pole of the ratio
    K = math.floor(bound) + 1
    if not (D(K) > 0 and abs(num(K)) <= rho_bar * D(K)):
        raise NotConvergent(f"no geometric onset certified at k = {K}")
    return K


def sum_to_precision(certificate: RatioCertificate, digits: int) -> tuple[PrecisionReal, int]:
    """Sum the certified series to within 10^(-digits); returns (value, terms used).

    The tail after index k >= K (:func:`_geometric_onset`) is at most |t_k| p/q, where
    p/q = rho_bar / (1 - rho_bar) and rho_bar = (|rho|+1)/2. The sum stops at the first
    k >= K with 2 10^digits p |C_k| <= q |D_k|, decided by :func:`_fixed_point_sum` or,
    when that cannot, by the exact cascade below, which then rounds T_k/D_k once.
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    if certificate.classification != CONVERGENT:
        raise NotConvergent(
            f"series is {certificate.classification}; cannot certify a sum"
        )
    rho_bar = (abs(certificate.rho) + 1) / 2
    onset = _geometric_onset(certificate, rho_bar)
    tail_factor = rho_bar / (1 - rho_bar)
    budget = 2 * 10**digits * tail_factor.numerator
    q = tail_factor.denominator
    bits = working_precision(digits)
    if found := _fixed_point_sum(certificate.coupling, onset, budget, q, bits):
        return found
    for k, (C, D, T) in enumerate(cascade(certificate.coupling)):
        # a nonzero budget |C| has at least budget.bit_length() + C.bit_length() - 1
        # bits, so bit lengths rule the stop out without forming the large products
        near = budget.bit_length() + C.bit_length() <= q.bit_length() + D.bit_length() + 1
        if k >= onset and (near or C == 0) and budget * abs(C) <= q * abs(D):
            break
    return rational_to_real(Fraction(T, D), bits), k + 1


def _fixed_point_sum(coupling: Coupling, onset: int, budget: int, q: int, bits: int):
    """:func:`sum_to_precision`'s (value, terms) from F-bit fixed point, or None.

    With c' = L c and d' = L d, u_k = floor(u_{k-1} c'(k) / d'(k+1)) is within
    e_k = ceil(e_{k-1} |c'(k) / d'(k+1)|) + 1 of t_k 2^F. The stop |t_k| <= q/budget holds
    if |u_k| + e_k <= thr = floor(q 2^F / budget) and fails if |u_k| - e_k > thr. None when
    neither is certain, or when [s - E, s + E] 2^-F (s, E: sums of u, e) rounds two ways.
    """
    scale = common_denominator(coupling.c, coupling.d)
    c, d = (integer_values(p, scale) for p in (coupling.c, coupling.d))
    d1 = int(scale * coupling.d(1))  # d'(1); scale clears its denominator
    F = bits + FIXED_POINT_GUARD_BITS + max(0, abs(d1).bit_length() - scale.bit_length())
    thr = (q << F) // budget
    u, e, s, E = scale << F, 0, 0, 0  # u_{-1} = L 2^F exactly
    # c'(0) = 1 pairs with d'(1), then c'(k) with d'(k+1)
    for k, ck, dk in zip(itertools.count(), itertools.chain((1,), c), d):
        if not dk:
            raise ZeroDenominatorFactor(k + 1)
        u = u * ck // dk
        e = -(-e * abs(ck) // abs(dk)) + 1
        s, E = s + u, E + e
        if k >= onset and abs(u) - e <= thr:
            value = enclosure_to_real(s - E, s + E, F, bits) if abs(u) + e <= thr else None
            return None if value is None else (value, k + 1)
