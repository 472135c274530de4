from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gcf_forge import DivisionByZero, InsufficientPrecision, rational_to_real, working_precision
from gcf_forge.numerics import (
    agreement_digits,
    enclosure_to_real,
    matched_digits,
    real_reciprocal,
)

from oracles import (
    agreement_digits_loop,
    eight_over_pi_squared,
    exact_value,
    fraction_decimal,
    real_from_decimal,
    reference_enclosure_to_real,
    reference_rational_to_real,
    reference_real_reciprocal,
    round_to_bits,
)


def agree_to_digits(x, y, digits: int) -> bool:
    """True iff |x - y| <= 10^(-digits) * max(1, |y|), by matched_digits."""
    return matched_digits(x, y, digits) == digits


rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**6
)


def real(q: Fraction, bits: int):
    """rational_to_real of a Fraction, as its reduced int pair."""
    return rational_to_real(q.as_integer_ratio(), bits)


nonzero = st.integers(-(2**64), 2**64).filter(bool)


class TestRationalToReal:
    def test_dyadic_is_exact(self):
        v = rational_to_real((1, 2), 64)
        assert exact_value(v) == Fraction(1, 2)
        assert v.precision_bits == 64

    def test_six_sevenths_within_bound(self):
        q = Fraction(6, 7)
        v = real(q, 64)
        assert abs(exact_value(v) - q) <= Fraction(1, 2**63) * q
        # long-division oracle for the decimal expansion
        assert v.to_decimal(18).startswith(fraction_decimal(q, 12))

    def test_zero(self):
        assert exact_value(rational_to_real((0, -5), 64)) == 0

    def test_rejects_tiny_precision(self):
        with pytest.raises(ValueError):
            rational_to_real((1, 3), 7)

    @given(q=rationals, bits=st.integers(min_value=8, max_value=128))
    def test_relative_error_bound(self, q, bits):
        v = real(q, bits)
        assert abs(exact_value(v) - q) <= Fraction(1, 2 ** (bits - 1)) * abs(q)

    @given(x=rationals, y=rationals, bits=st.integers(min_value=16, max_value=96))
    def test_subtraction_consistent_with_exact(self, x, y, bits):
        xr = exact_value(real(x, bits))
        yr = exact_value(real(y, bits))
        combined = Fraction(1, 2 ** (bits - 1)) * (abs(x) + abs(y))
        assert abs((xr - yr) - (x - y)) <= combined

    @given(q=rationals, bits=st.integers(min_value=8, max_value=200))
    def test_decimal_round_trip_is_exact(self, q, bits):
        v = real(q, bits)
        again = real_from_decimal(v.to_decimal(), bits)
        assert exact_value(again) == exact_value(v)

    @given(
        p=st.integers(-(2**400), 2**400),
        q=st.integers(-(2**400), 2**400).filter(bool),
        k=nonzero,
        bits=st.integers(min_value=8, max_value=300),
    )
    def test_unreduced_pair_rounds_once(self, p, q, k, bits):
        # any nonzero multiple of (p, q), negative denominators included,
        # rounds to what exact round-to-nearest-even gives for p/q
        assert exact_value(rational_to_real((k * p, k * q), bits)) == round_to_bits(p, q, bits)

    @given(
        p=st.integers(-(2**200), 2**200),
        q=st.integers(-(2**200), 2**200).filter(bool),
        zp=st.integers(0, 400),
        zq=st.integers(0, 400),
        bits=st.integers(min_value=8, max_value=300),
    )
    @example(p=3, q=1, zp=19995, zq=59990, bits=184)  # the shape of a deep cascade pair
    def test_trailing_zero_bits_round_exactly(self, p, q, zp, zq, bits):
        # independent powers of two on p and q, which the rounding shifts out first
        x = (p << zp, q << zq)
        assert exact_value(rational_to_real(x, bits)) == round_to_bits(*x, bits)

    @given(
        bits=st.integers(min_value=8, max_value=300),
        low=st.integers(0, 2**300),
        exponent=st.integers(-300, 300),
        k=nonzero,
    )
    @example(bits=8, low=0, exponent=-7, k=1)  # 257/256, halfway between 1 and 1 + 2^-7
    @example(bits=8, low=1, exponent=-7, k=-3)  # -777/-768 = 259/256 goes up to 130/128
    def test_planted_ties_go_to_even(self, bits, low, exponent, k):
        # (2m + 1) 2^(e-1), m of exactly `bits` bits, lies halfway between two floats
        odd = 2 * ((1 << (bits - 1)) + low % (1 << (bits - 1))) + 1
        p, q = odd << max(exponent - 1, 0), 1 << max(1 - exponent, 0)
        rounded = round_to_bits(p, q, bits)
        mantissa = rounded / Fraction(2) ** exponent
        assert mantissa.denominator == 1 and mantissa.numerator % 2 == 0
        assert abs(rounded - Fraction(p, q)) == Fraction(2) ** (exponent - 1)
        assert exact_value(rational_to_real((k * p, k * q), bits)) == rounded


class TestEnclosureToReal:
    def test_straddled_midpoint_is_undecided(self):
        # 257/256 lies halfway between the 8-bit floats 1 and 1 + 1/128
        assert enclosure_to_real(257, 257, 8, 8) == rational_to_real((257, 256), 8)
        assert enclosure_to_real(256, 258, 8, 8) is None

    @given(
        middle=st.integers(-(2**80), 2**80),
        radius=st.integers(0, 2**20),
        shift=st.integers(0, 100),
        bits=st.integers(min_value=8, max_value=64),
    )
    def test_agrees_with_rounding_every_point(self, middle, radius, shift, bits):
        value = enclosure_to_real(middle - radius, middle + radius, shift, bits)
        if radius == 0:
            assert value is not None
        if value is not None:
            for end in (middle - radius, middle, middle + radius):
                assert value == rational_to_real((end, 2**shift), bits)


def raw(outcome):
    """A rounding's raw mpf, None, or the type and text of the error it raised."""
    try:
        value = outcome()
    except DivisionByZero as exc:
        return type(exc), str(exc)
    return None if value is None else (value.value._mpf_, value.precision_bits)


class TestMatchesContextReference:
    """libmp at an explicit precision rounds bit for bit as mpf operators in a workprec
    context did, at 8 to 2000 bits."""

    @given(
        p=st.integers(-(2**2100), 2**2100),
        q=st.integers(-(2**300), 2**300).filter(bool),
        zeros=st.integers(0, 300),
        bits=st.integers(min_value=8, max_value=2000),
    )
    def test_rational_to_real_and_reciprocal(self, p, q, zeros, bits):
        x = (p << zeros, q)
        ours = raw(lambda: rational_to_real(x, bits))
        assert ours == raw(lambda: reference_rational_to_real(x, bits))
        value = rational_to_real(x, bits)
        assert raw(lambda: real_reciprocal(value)) == raw(lambda: reference_real_reciprocal(value))

    @given(
        middle=st.integers(-(2**2100), 2**2100),
        radius=st.integers(0, 2**40),
        shift=st.integers(-100, 2200),
        bits=st.integers(min_value=8, max_value=2000),
    )
    def test_enclosure_to_real(self, middle, radius, shift, bits):
        low, high = middle - radius, middle + radius
        ours = raw(lambda: enclosure_to_real(low, high, shift, bits))
        assert ours == raw(lambda: reference_enclosure_to_real(low, high, shift, bits))


class TestAgreeToDigits:
    def test_against_pi_reference(self):
        lhs = real_from_decimal("0.8105694691", 80)
        rhs = real(eight_over_pi_squared(40), 80)
        assert agree_to_digits(lhs, rhs, 9)

    def test_reflexive(self):
        x = rational_to_real((355, 113), 64)
        assert agree_to_digits(x, x, 15)

    def test_gap_beyond_tolerance(self):
        x = real_from_decimal("0.5", 64)
        y = real_from_decimal("0.6", 64)
        assert not agree_to_digits(x, y, 2)

    def test_insufficient_precision(self):
        x = rational_to_real((1, 3), 32)
        y = rational_to_real((1, 3), 80)
        with pytest.raises(InsufficientPrecision):
            agree_to_digits(x, y, 15)  # 15 digits need 50 bits, x has 32

    def test_information_bound_is_the_cutoff(self):
        # 70 digits need 233 bits; 256-bit operands are enough
        x = rational_to_real((1, 3), 256)
        assert agree_to_digits(x, x, 70)

    def test_rejects_nonpositive_digits(self):
        x = rational_to_real((1, 1), 64)
        with pytest.raises(ValueError):
            agree_to_digits(x, x, 0)


class TestAgreementDigits:
    @given(
        y=rationals,
        gap=st.one_of(
            rationals,
            st.integers(-40, 40).map(lambda e: Fraction(10) ** e),  # |x - y| a power of ten
        ),
        relative=st.booleans(),
        cap=st.integers(-2, 45),
        scales=st.tuples(*[st.integers(-99, 99).filter(bool)] * 2),
    )
    def test_matches_digit_loop(self, y, gap, relative, cap, scales):
        # a relative gap times max(1, |y|) lands exactly on the 10^-D boundaries;
        # each pair is scaled by a nonzero int, so it is unreduced and its
        # denominator may be negative
        x = y + gap * max(1, abs(y)) if relative else y + gap
        pairs = [(k * v.numerator, k * v.denominator) for k, v in zip(scales, (x, y))]
        assert agreement_digits(*pairs, cap) == agreement_digits_loop(x, y, cap)

    def test_deep_agreement_beyond_decimal_text_limit(self):
        # 10^-5000 apart: more digits than int's default decimal-text limit
        x = Fraction(1, 3) + Fraction(1, 10**5000)
        assert agreement_digits((x.numerator, x.denominator), (1, 3), 6000) == 5000


def test_working_precision_policy():
    assert working_precision(50) == 50 * 4 + 64


def test_reciprocal_round_trips():
    x = rational_to_real((8, 11), 128)
    inv = real_reciprocal(x)
    product = exact_value(x) * exact_value(inv)
    assert abs(product - 1) <= Fraction(1, 2**126)
