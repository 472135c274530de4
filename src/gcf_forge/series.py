"""Series induced by a coupling: the integer cascade, ratio certificate, summation.

The k-th term is t_k = prod_{j=1..k} c(j) / prod_{j=1..k+1} d(j). The
consecutive-term ratio is the exact rational function c(k+1)/d(k+2), whose
limit classifies convergence. Terms and partial sums come from one
first-order cascade in plain ints. A convergent series is summed under a
certified geometric tail bound in fixed point, where ints of about F bits
enclose the exact prefix sum in [s - E, s + E] 2^-F; the exact cascade runs
only when that enclosure cannot decide the stop or the rounding. The pass
only sums: a coupled problem's convergents are x_n = 1/S_n exactly, so a
certified sum S != 0 proves that they converge to 1/S, in the extended plane
where finitely many undefined x_n (S_n = 0) change no limit, and the sum
takes no depth. Only a coupling without a convergent series walks its
convergents to the depth, skipping an undefined one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import NotConvergent, OnsetPastBudget, ZeroDenominatorFactor
from .factorize import Coupling
from .numerics import (
    agreement_digits,
    enclosure_to_real,
    rational_to_real,
    working_precision,
)
from .poly import Polynomial, common_denominator, integer_values, root_bound_floor

CONVERGENT = "convergent"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"

#: fraction bits the fixed-point sum carries past the working precision
FIXED_POINT_GUARD_BITS = 64

#: the largest geometric onset either pass sums to; a farther one is refused unsummed
ONSET_BUDGET = 10**6


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
    """Classify convergence from the degrees and leading coefficients, in ints.

    rho = 0 when the numerator degree is lower, the leading-coefficient
    ratio when degrees tie, and infinite otherwise. Classification uses
    |rho|: below 1 convergent, above 1 (or infinite) divergent, exactly 1
    honestly inconclusive.
    """
    num, den = coupling.c.shift(1), coupling.d.shift(2)
    if num.degree > den.degree:
        return RatioCertificate(coupling, num, den, None, DIVERGENT)
    # rho = top / bottom, the leading numerators over each other's denominator
    top = num.numerators[-1] * den.denominator if num.degree == den.degree else 0
    bottom = den.numerators[-1] * num.denominator
    m, n = abs(top), abs(bottom)
    classification = CONVERGENT if m < n else DIVERGENT if m > n else INCONCLUSIVE
    return RatioCertificate(coupling, num, den, Fraction(top, bottom), classification)


def _geometric_onset(certificate: RatioCertificate, p: int, r: int) -> int:
    """Smallest certified K with |ratio(k)| <= rho_bar = p/r (p, r > 0) for every k >= K.

    Past the Cauchy root bounds of D, rho_bar*D - N and rho_bar*D + N
    (D = |denominator|, N = numerator) none of them changes sign, so the
    inequality holds on the whole tail once it holds at one point there. The
    guards are int lists, each scaled by a positive constant that moves no root.
    """
    num, den = certificate.numerator, certificate.denominator
    n_d, d_d = num.denominator, den.denominator
    # d_d D, then r n_d d_d (rho_bar D -+ N)
    D = den.numerators if den.numerators[-1] > 0 else [-x for x in den.numerators]
    pD, rN = [p * n_d * x for x in D], [r * d_d * x for x in num.numerators]
    guards = [D] + [
        [x + s * y for x, y in itertools.zip_longest(pD, rN, fillvalue=0)] for s in (-1, 1)
    ]
    # K exceeds the Cauchy bound of D, hence every pole of the ratio
    K = max(root_bound_floor(g) for g in guards if any(g)) + 1
    DK, NK = (sum(x * K**i for i, x in enumerate(g)) for g in (D, num.numerators))
    if not (DK > 0 and r * d_d * abs(NK) <= p * n_d * DK):
        raise NotConvergent(f"no geometric onset certified at k = {K}")
    return K


def _stop_rule(certificate: RatioCertificate, digits: int) -> tuple[int, int, int, int]:
    """(onset, budget, q, slack): stop at the first k >= onset with budget |t_k| <= q.

    With |rho| = a/b, rho_bar = (a + b) / 2b bounds the ratio from :func:`_geometric_onset` on,
    so the tail after k is at most |t_k| p/q with p/q = rho_bar / (1 - rho_bar) = (a + b) / (b - a)
    in lowest terms, and budget = 2 10^digits p. slack = ceil(2 / (1 - rho_bar)) is at least
    rho_bar slack + 2. No Fraction is formed. Raises OnsetPastBudget when the onset exceeds
    ONSET_BUDGET, before either pass forms a term.
    """
    a, b = abs(certificate.rho.numerator), certificate.rho.denominator
    onset = _geometric_onset(certificate, a + b, 2 * b)
    if onset > ONSET_BUDGET:
        raise OnsetPastBudget(onset, ONSET_BUDGET)
    g = math.gcd(a + b, b - a)
    p, q = (a + b) // g, (b - a) // g
    slack = -(-4 * b // (b - a))  # 2 / (1 - rho_bar) = 4b / (b - a), rounded up
    return onset, 2 * 10**digits * p, q, slack


def sum_to_precision(certificate: RatioCertificate, digits: int):
    """(value, terms): a convergent certificate's sum within 10^(-digits), and the terms it used.

    value is rounded to working_precision(digits) bits, and terms is the count at which
    :func:`_stop_rule` stops. No partial sum is read as a convergent, so a vanishing S_n
    refuses nothing. :func:`_exact_sum` runs whenever :func:`_fixed_point_pass` cannot
    decide, so the result is the same either way. Raises NotConvergent for any other
    certificate, and OnsetPastBudget for a geometric onset past ONSET_BUDGET, before either
    pass forms a term.
    """
    if certificate.classification != CONVERGENT:
        raise NotConvergent(f"a {certificate.classification} series has no certified sum")
    stop = _stop_rule(certificate, digits)
    bits = working_precision(digits)
    if found := _fixed_point_pass(certificate.coupling, *stop, bits):
        return found
    terms, total = _exact_sum(certificate.coupling, *stop[:3])
    return rational_to_real(total, bits), terms


def _fixed_point_pass(coupling: Coupling, onset: int, budget: int, q: int, slack: int, bits: int):
    """:func:`sum_to_precision`'s (value, terms) in fixed point, or None if it cannot decide.

    With c' = L c and d' = L d, u_k = floor(u_{k-1} c'(k) / d'(k+1)) is within
    e_k = ceil(e_{k-1} |c'(k) / d'(k+1)|) + 1 of t_k 2^F, so with s and E the sums of u and e,
    [s - E, s + E] 2^-F encloses S_k. The stop |t_k| <= q/budget holds if
    |u_k| + e_k <= thr = floor(q 2^F / budget) and fails if |u_k| - e_k > thr. None when
    neither is certain, or when the stop's enclosure rounds two ways (as one that straddles
    0 does).

    The per-term loop ends at the stop or at the switch, the first k > onset. Past the onset
    |c'(k) / d'(k+1)| <= rho_bar and d'(k+1) != 0, so e_j < rho_bar e_{j-1} + 2 <=
    B = max(e_k, slack) for j > k (:func:`_stop_rule`): a lean loop runs on to the stop,
    tests u against thr +- B alone and takes E_k + (j - k) B for E_j.
    """
    scale = common_denominator(coupling.c, coupling.d)
    c, d = (integer_values(f, scale) for f in (coupling.c, coupling.d))
    d1 = int(scale * coupling.d(1))  # d'(1); scale clears its denominator
    F = bits + FIXED_POINT_GUARD_BITS + max(0, abs(d1).bit_length() - scale.bit_length())
    thr = (q << F) // budget
    u, e, s, E = scale << F, 0, 0, 0  # u_{-1} = L 2^F exactly
    # c'(0) = 1 pairs with d'(1), then c'(k) with d'(k+1)
    steps = zip(itertools.count(), itertools.chain((1,), c), d)
    for k, ck, dk in steps:
        if not dk:
            raise ZeroDenominatorFactor(k + 1)
        u = u * ck // dk
        e = -(-e * abs(ck) // abs(dk)) + 1
        s, E = s + u, E + e
        if k >= onset and abs(u) - e <= thr:
            if abs(u) + e > thr:
                return None  # the stop is uncertain
            break
        if k > onset:
            # |u| <= thr - B stops for certain, |u| > thr + B goes on, and between is undecided
            switch, B = k, max(e, slack)
            high = thr + B
            for k, ck, dk in steps:
                u = u * ck // dk
                s += u
                if -high <= u <= high:
                    break
            E += (k - switch) * B
            if abs(u) > thr - B:
                return None  # the stop is uncertain
            break
    value = enclosure_to_real(s - E, s + E, F, bits)
    return None if value is None else (value, k + 1)


def _exact_sum(coupling: Coupling, onset: int, budget: int, q: int):
    """(k + 1, (T_k, D_k)) on :func:`cascade` at the first k >= onset with budget |C_k| <= q |D_k|.

    That is :func:`_stop_rule`'s stop, and (T_k, D_k) is S_k unreduced.
    """
    for k, (C, D, T) in enumerate(cascade(coupling)):
        if k >= onset:
            # a nonzero budget |C| has at least budget.bit_length() + C.bit_length() - 1
            # bits, so bit lengths rule the stop out without forming the large products
            near = budget.bit_length() + C.bit_length() <= q.bit_length() + D.bit_length() + 1
            if (near or C == 0) and budget * abs(C) <= q * abs(D):
                return k + 1, (T, D)


def coupled_walk(coupling: Coupling, depth: int, cap: int) -> tuple[bool, int, tuple[int, int]]:
    """Walk a coupled problem's convergents x_n = 1/S_n = D_n/T_n to depth, on :func:`cascade`.

    Returns (monotone, cauchy digits, last) as :func:`~gcf_forge.gcf.structural_walk` does,
    with last = (D_n, T_n), and skips an undefined x_n (T_n = 0) the same way. x_0 = d(1) is
    defined, and x_{n-1} > x_n iff t_n = C_n/D_n and S_{n-1} S_n share a sign:
    x_{n-1} - x_n = t_n / (S_{n-1} S_n).
    """
    monotone, negative, half = True, False, (depth + 1) // 2
    for k, (C, D, T) in enumerate(cascade(coupling)):
        if T:
            last = D, T
        else:
            monotone = False
        # signs by comparison: ^ on big ints would allocate a new int
        was_negative, negative = negative, (T < 0) != (D < 0)  # S_k < 0; S_{-1} = 0
        if ((C < 0) != (D < 0)) != (was_negative != negative):  # x_{k-1} <= x_k
            monotone = False
        if k == half:
            at_half = D, T
        if k == depth:
            cauchy = agreement_digits(at_half, (D, T), cap) if at_half[1] and T else 0
            return monotone, cauchy, last
