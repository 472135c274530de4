"""Series induced by a coupling: the integer cascade, ratio certificate, summation.

The k-th term is t_k = prod_{j=1..k} c(j) / prod_{j=1..k+1} d(j). The
consecutive-term ratio is the exact rational function c(k+1)/d(k+2), whose
limit classifies convergence. Terms and partial sums come from one
first-order cascade in plain ints. A convergent series is summed under a
certified geometric tail bound in fixed point, where ints of about F bits
enclose the exact prefix sum in [s - E, s + E] 2^-F; the exact cascade runs
only when that enclosure cannot decide the stop or the rounding. The same
pass reads a coupled problem's convergents x_n = 1/S_n to the walk's depth,
so each coupled job steps its cascade once. Past the stop, and past the index
where the partial sums settle their sign, the tail bound that certifies the
sum pins every later convergent, so a convergent walk ends there: its cost
follows the term count, not the depth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import NotConvergent, OnsetPastBudget, ZeroDenominatorConvergent, ZeroDenominatorFactor
from .factorize import Coupling
from .numerics import (
    agreement_digits,
    enclosure_to_real,
    ratio_digits,
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


def _stop_rule(certificate: RatioCertificate, digits: int) -> tuple[int, int, int, int, int]:
    """(onset, budget, q, slack, p): stop at the first k >= onset with budget |t_k| <= q.

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
    return onset, 2 * 10**digits * p, q, slack, p


def sum_and_walk(certificate: RatioCertificate, digits: int, depth: int, cap: int):
    """Walk a coupled problem's convergents to depth and sum its series in one pass.

    Returns (value, terms, monotone, cauchy digits, last): whether x_0 > x_1 > ... > x_depth,
    and agreement_digits(x_h, x_depth, cap) with h = (depth + 1) // 2. A convergent
    certificate gives value = the sum within 10^(-digits), rounded to working_precision(digits)
    bits, terms = the count it used (:func:`_stop_rule`) and last = None; any other gives
    value = terms = None and last = x_depth as the unreduced int pair
    (D_depth, T_depth). The coupling passed :func:`~gcf_forge.gcf.check_coupling` for a
    problem, so x_n = 1/S_n and c(n) != 0 for n >= 1 (a(n) = -c(n) d(n) != 0).
    :func:`_exact_pass` walks whenever :func:`_fixed_point_pass` cannot decide, so the
    result is the same either way. A geometric onset past ONSET_BUDGET raises
    OnsetPastBudget before either pass forms a term.
    """
    coupling, stop = certificate.coupling, None
    if certificate.classification == CONVERGENT:
        stop = _stop_rule(certificate, digits)
        bits = working_precision(digits)
        if found := _fixed_point_pass(coupling, *stop, bits, depth, cap):
            return (*found, None)
    summed, monotone, at_half, at_depth = _exact_pass(coupling, depth, stop)
    cauchy = agreement_digits(at_half, at_depth, cap)
    if summed is None:
        return None, None, monotone, cauchy, at_depth
    terms, total = summed
    return rational_to_real(total, bits), terms, monotone, cauchy, None


def _cauchy_digits(at_half, at_depth, F: int, cap: int, tail: int) -> int | None:
    """agreement_digits(1/S_h, 1/S_N, cap) from enclosures, or None if they leave it open.

    That is :func:`~gcf_forge.numerics.ratio_digits` of max(|S_N|, 1) |S_h| / |S_N - S_h|,
    taken at both ends of its bracket. at_half = (s_h, E_h) and at_depth = (s_N, E_N)
    enclose S_h and S_N as in :func:`_fixed_point_pass`, and S_N - S_h lies within
    max(E_N - E_h, tail) 2^-F of (s_N - s_h) 2^-F, tail when both are read off one tail
    bound. None also when the enclosure of S_h holds 0.
    """
    (s_h, E_h), (s_N, E_N) = at_half, at_depth
    low_h, high_h = abs(s_h) - E_h, abs(s_h) + E_h
    low_N, high_N = max(abs(s_N) - E_N, 1 << F), max(abs(s_N) + E_N, 1 << F)
    gap, spread = abs(s_N - s_h), max(E_N - E_h, tail)
    least = ratio_digits(low_N * low_h, (gap + spread) << F, cap) if low_h > 0 else None
    most = ratio_digits(high_N * high_h, max(gap - spread, 0) << F, cap)
    return least if least == most else None


def _fixed_point_pass(
    coupling: Coupling, onset: int, budget: int, q: int, slack: int, p: int, bits: int,
    depth: int, cap: int,
):
    """:func:`sum_and_walk`'s (value, terms, monotone, cauchy digits) in fixed point, or None.

    With c' = L c and d' = L d, u_k = floor(u_{k-1} c'(k) / d'(k+1)) is within
    e_k = ceil(e_{k-1} |c'(k) / d'(k+1)|) + 1 of t_k 2^F. The stop |t_k| <= q/budget holds
    if |u_k| + e_k <= thr = floor(q 2^F / budget) and fails if |u_k| - e_k > thr. None when
    neither is certain, or when [s - E, s + E] 2^-F (s, E: sums of u, e) rounds two ways.

    For k <= depth the sign of S_k must be certain, |s_k| > E_k, and so must
    :func:`_cauchy_digits` at h = (depth + 1) // 2 and depth, or the result is None.
    x_{k-1} - x_k is t_k / (S_{k-1} S_k), and t_k < 0 iff an odd number of c(1..k),
    d(1..k+1) are.

    The per-term loop records (s, E) at h and the depth, and (k, s, E) at the stop once it
    is certain. It ends at the depth once it has the stop, or else at the switch: the first
    k > onset at the depth or, from settle = max(onset, root bounds of c and d) + 1 on, with
    q (|s_k| - E_k) > p (|u_k| + e_k), p/q = rho_bar / (1 - rho_bar). Past the onset
    |c'(k) / d'(k+1)| <= rho_bar and d'(k+1) != 0, so e_j < rho_bar e_{j-1} + 2 <= B =
    max(e_k, slack) for j > k (:func:`_stop_rule`): a lean loop runs on to the stop, tests u
    against thr +- B alone and takes E_k + (j - k) B for E_j. Past a switch below the depth,
    |S_j - S_k| <= |t_k| p/q < |S_k|: every S_j keeps the sign of S_k, c'(j) / d'(j+1) keeps
    one sign, and the walk stays monotone iff it was and the terms do not alternate. It ends
    at m, the later of the switch and the stop, and reads S_h and S_depth past m as s_m within
    T = ceil((|u_m| + B) p/q) + 1: O(max(stop, settle)) terms at any depth.
    """
    scale = common_denominator(coupling.c, coupling.d)
    c, d = (integer_values(f, scale) for f in (coupling.c, coupling.d))
    d1 = int(scale * coupling.d(1))  # d'(1); scale clears its denominator
    F = bits + FIXED_POINT_GUARD_BITS + max(0, abs(d1).bit_length() - scale.bit_length())
    thr = (q << F) // budget
    u, e, s, E = scale << F, 0, 0, 0  # u_{-1} = L 2^F exactly
    stop, monotone, negative, half = None, True, False, (depth + 1) // 2
    settle = max(onset, *(root_bound_floor(f.numerators) for f in (coupling.c, coupling.d))) + 1
    # c'(0) = 1 pairs with d'(1), then c'(k) with d'(k+1)
    steps = zip(itertools.count(), itertools.chain((1,), c), d)
    for k, ck, dk in steps:
        if not dk:
            raise ZeroDenominatorFactor(k + 1)
        u = u * ck // dk
        e = -(-e * abs(ck) // abs(dk)) + 1
        s_prev, s, E = s, s + u, E + e
        if k <= depth:
            negative ^= (ck ^ dk) < 0  # t_k < 0
            if ((s < 0) != (s_prev < 0)) != negative:  # x_{k-1} <= x_k (never at k = 0)
                monotone = False
            if abs(s) <= E:
                return None  # the sign of S_k, hence of B_k, is uncertain
            if k == half:
                at_half = s, E
            if k == depth:
                at_depth = s, E
        if stop is None and k >= onset and abs(u) - e <= thr:
            if abs(u) + e > thr:
                return None  # the stop is uncertain
            stop = k, s, E
        settled = k >= settle and q * (abs(s) - E) > p * (abs(u) + e)
        if settled or k >= depth and (stop or k > onset):  # the lean loop needs k > onset
            break
    B = max(e, slack)
    if k < depth:  # switched: |S_k| > |t_k|, so a monotone walk so far has t_k > 0, and
        # alternating terms make t_(k+1) < 0. A guard: t_(k-1) < 0 would need a sign change
        # of S at k - 1, which |t_(k-1)| <= rho_bar |t_(k-2)| and monotone steps rule out
        monotone = monotone and (ck ^ dk) >= 0
    if stop is None:
        # |u| <= thr - B stops for certain, |u| > thr + B goes on, and between is undecided
        switch, high, neg_high = k, thr + B, -thr - B
        # on to the stop, in runs that end at h and the depth (no per-term index test)
        for end in [*(j for j in (half, depth) if j > switch), None]:
            for k, ck, dk in itertools.islice(steps, end and end - k):
                u = u * ck // dk
                s += u
                if neg_high <= u <= high:
                    break
            if k == half:
                at_half = s, E + (k - switch) * B
            if k == depth:
                at_depth = s, E + (k - switch) * B
            if neg_high <= u <= high:
                break
        E += (k - switch) * B
        if abs(u) > thr - B:
            return None  # the stop is uncertain
        stop = k, s, E
    # a walk that ends before the depth reads every later S_j as s within (E + T) 2^-F
    T = -(-(abs(u) + B) * p // q) + 1 if k < depth else 0
    if half > k:
        at_half = s, E + T
    if depth > k:
        at_depth = s, E + T
    k, s, E = stop
    value = enclosure_to_real(s - E, s + E, F, bits)
    cauchy = _cauchy_digits(at_half, at_depth, F, cap, T)
    if value is None or cauchy is None:
        return None
    return value, k + 1, monotone, cauchy


def _exact_pass(coupling: Coupling, depth: int, stop: tuple[int, ...] | None):
    """Step :func:`cascade` once, to max(depth, the stop), for the walk and the exact sum.

    stop = (onset, budget, q, ...) from :func:`_stop_rule` ends the sum at the first k >= onset with
    budget |C_k| <= q |D_k|, and None sums nothing. Returns ((k + 1, (T_k, D_k)) at the stop or
    None without one, monotone, (D_h, T_h), (D_N, T_N)) with h = (depth + 1) // 2 and N = depth,
    all unreduced.
    x_n = D_n/T_n, so T_n = 0 raises ZeroDenominatorConvergent(n) for n <= depth, and
    x_{n-1} > x_n iff t_n = C_n/D_n and S_{n-1} S_n share a sign:
    x_{n-1} - x_n = t_n / (S_{n-1} S_n), S_n = T_n/D_n.
    """
    onset, budget, q, *_ = stop or (math.inf, 0, 0)
    summed, monotone, negative, half = None, True, False, (depth + 1) // 2
    for k, (C, D, T) in enumerate(cascade(coupling)):
        if k <= depth:
            if T == 0:
                raise ZeroDenominatorConvergent(k)
            # signs by comparison: ^ on big ints would allocate a new int
            was_negative, negative = negative, (T < 0) != (D < 0)  # S_k < 0; S_{-1} = 0
            if ((C < 0) != (D < 0)) != (was_negative != negative):  # x_{k-1} <= x_k
                monotone = False
            if k == half:
                at_half = D, T
            if k == depth:
                at_depth = D, T
        if summed is None and k >= onset:
            # a nonzero budget |C| has at least budget.bit_length() + C.bit_length() - 1
            # bits, so bit lengths rule the stop out without forming the large products
            near = budget.bit_length() + C.bit_length() <= q.bit_length() + D.bit_length() + 1
            if (near or C == 0) and budget * abs(C) <= q * abs(D):
                summed = k + 1, (T, D)
        if k >= depth and (summed is not None or stop is None):
            return summed, monotone, at_half, at_depth
