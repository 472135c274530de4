"""Exact and arbitrary-precision number support shared by every stage.

Integers are plain Python ints (unbounded). An exact rational enters as
an int pair (p, q) with q != 0, of any signs and not necessarily reduced,
so no walk reduces its last frame. Approximate reals are mpmath binary
floats tagged with the mantissa width they were rounded to, by mpmath's libmp
at that explicit width, so no global mpmath setting is read or changed;
:func:`working_precision` sets that width from the requested digit count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp
from mpmath.libmp import (
    fone, from_man_exp, from_rational, mpf_div, mpf_shift, round_nearest, to_rational, to_str,
)

from .errors import DivisionByZero, InsufficientPrecision

#: bits of mantissa budgeted per requested decimal digit (a digit needs ~3.33)
BITS_PER_DIGIT = 4
GUARD_BITS = 64


def working_precision(digits: int) -> int:
    """Mantissa bits used when a result must be good to `digits` decimals: digits * 4 + 64."""
    return digits * BITS_PER_DIGIT + GUARD_BITS


def decimal_digits_for_bits(bits: int) -> int:
    """Decimal digits that round-trip a binary float of `bits` mantissa."""
    return int(math.ceil(bits * math.log10(2))) + 3


@dataclass(frozen=True)
class PrecisionReal:
    """A binary floating value plus the mantissa width it carries.

    The wrapped mpf is a dyadic rational, so :func:`matched_digits` compares
    two of them exactly.
    """

    value: mp.mpf
    precision_bits: int

    def to_decimal(self, digits: int | None = None) -> str:
        """Decimal text; defaults to enough digits to round-trip exactly."""
        if digits is None:
            digits = decimal_digits_for_bits(self.precision_bits)
        return to_str(self.value._mpf_, digits)


def _round_ratio(p: int, q: int, precision_bits: int) -> tuple:
    # the raw mpf of p/q (q != 0, any signs, unreduced) correctly rounded to precision_bits;
    # trailing zero bits move into an exact shift, as mpmath on ints strips them bytewise
    zp, zq = ((n & -n).bit_length() - 1 if n else 0 for n in (p, q))
    return mpf_shift(from_rational(p >> zp, q >> zq, precision_bits, round_nearest), zp - zq)


def rational_to_real(x: tuple[int, int], precision_bits: int) -> PrecisionReal:
    """Round x = p/q, an int pair as in :func:`agreement_digits`, to `precision_bits` bits.

    Single correct rounding, ties to even: |result - x| <= 2^(1-precision_bits) * |x|.
    """
    if precision_bits < 8:
        raise ValueError("precision_bits must be at least 8")
    return PrecisionReal(mp.make_mpf(_round_ratio(*x, precision_bits)), precision_bits)


def enclosure_to_real(low: int, high: int, shift: int, precision_bits: int) -> PrecisionReal | None:
    """:func:`rational_to_real` of all of [low, high] 2^-shift (a monotone map: the ends decide).

    None when the ends round apart.
    """
    ends = [from_man_exp(end, -shift, precision_bits, round_nearest) for end in (low, high)]
    return PrecisionReal(mp.make_mpf(ends[0]), precision_bits) if ends[0] == ends[1] else None


def real_reciprocal(x: PrecisionReal) -> PrecisionReal:
    """1/x at the precision x carries."""
    if not x.value:
        raise DivisionByZero("reciprocal of zero")
    value = mpf_div(fone, x.value._mpf_, x.precision_bits, round_nearest)
    return PrecisionReal(mp.make_mpf(value), x.precision_bits)


def agreement_digits(x: tuple[int, int], y: tuple[int, int], cap: int) -> int:
    """Largest D in 0..cap with |x - y| <= 10^-D * max(1, |y|), exactly.

    x = p/q and y = r/s are int pairs with q, s != 0, of any signs and not
    necessarily reduced. That is :func:`ratio_digits` of
    max(1, |y|) / |x - y| = max(|r|, |s|) |q| / |p s - r q|.
    """
    (p, q), (r, s) = x, y
    return ratio_digits(max(abs(r), abs(s)) * abs(q), abs(p * s - r * q), cap)


def ratio_digits(num: int, den: int, cap: int) -> int:
    """Largest D in 0..cap with 10^D <= r = num/den (num > 0, den >= 0; den = 0 is r = infinity).

    The one rule for how many digits agree. 10^D <= r iff 10^D <= floor(r); D = cap when
    den = 0, and the count never falls as r grows.
    """
    if cap <= 0 or not den:
        return max(cap, 0)
    whole = max(1, min(num // den, 10**cap))
    digits = int(math.log10(whole))  # within one of the exact value; correct it
    return digits - (10**digits > whole) + (10 ** (digits + 1) <= whole)


def matched_digits(x: PrecisionReal, y: PrecisionReal, digits: int) -> int:
    """:func:`agreement_digits` of two binary floats, capped at `digits`.

    Raises InsufficientPrecision unless both operands carry ceil(digits * log2(10))
    bits, below which two binary floats cannot tell whether they agree to `digits`
    decimals. :func:`working_precision`, at 4 bits per digit, clears that bound.
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    need = math.ceil(digits * math.log2(10))
    if x.precision_bits < need or y.precision_bits < need:
        raise InsufficientPrecision(
            f"comparing to {digits} digits needs {need} bits; "
            f"operands carry {x.precision_bits} and {y.precision_bits}"
        )
    return agreement_digits(to_rational(x.value._mpf_), to_rational(y.value._mpf_), digits)
