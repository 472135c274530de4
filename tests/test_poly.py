import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcf_forge import Polynomial, ZeroPolynomial, factor_rational, parse_polynomial
from gcf_forge.poly import integer_values, root_bound_floor

from oracles import (
    integer_roots,
    poly_add,
    poly_eval,
    poly_mul,
    poly_power,
    poly_scale,
    poly_shift,
    poly_trim,
    reconstruct,
    sympy_factor_rational,
)

N = Polynomial.variable()

coefficients = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
polynomials = st.lists(coefficients, min_size=0, max_size=5).map(Polynomial)
nonzero_polynomials = polynomials.filter(lambda p: not p.is_zero)
coefficient_lists = st.lists(st.one_of(coefficients, st.integers(-(10**12), 10**12)), max_size=5)
scalars = st.one_of(st.integers(-30, 30), coefficients)


def assert_canonical(p: Polynomial) -> None:
    """int numerators over a positive int denominator, no trailing zero, gcd 1."""
    assert type(p.denominator) is int and p.denominator > 0
    assert all(type(c) is int for c in p.numerators)
    assert not p.numerators or p.numerators[-1] != 0
    # for the zero polynomial this reads denominator == 1
    assert math.gcd(p.denominator, *p.numerators) == 1


class TestEvaluate:
    def test_quadratic_denominator_at_two(self):
        b = 3 * N**2 + 3 * N + 1
        assert b(2) == 19

    def test_quartic_numerator_at_three(self):
        a = -(2 * N**4 - N**3)
        assert a(3) == -135

    def test_zero_polynomial(self):
        assert Polynomial()(12345) == 0

    def test_rational_point(self):
        p = 2 * N**2 - N
        assert p(Fraction(1, 2)) == 0


class TestShift:
    def test_shift_of_product(self):
        d = N * (2 * N - 1)
        assert d.shift(1) == 2 * N**2 + 3 * N + 1

    def test_identity_shift(self):
        p = 3 * N**2 + 3 * N + 1
        assert p.shift(0) == p

    def test_square(self):
        assert (N**2).shift(1) == N**2 + 2 * N + 1

    @given(p=polynomials, a=st.integers(-8, 8), b=st.integers(-8, 8))
    def test_composition(self, p, a, b):
        assert p.shift(a).shift(b) == p.shift(a + b)

    @given(p=polynomials, k=st.integers(-8, 8), n=st.integers(-20, 20))
    def test_commutes_with_evaluation(self, p, k, n):
        assert p.shift(k)(n) == p(n + k)


class TestArithmetic:
    def test_coupling_sum_recovers_denominator(self):
        c = N**2
        d = N * (2 * N - 1)
        assert c + d.shift(1) == 3 * N**2 + 3 * N + 1

    def test_coupling_product_recovers_numerator(self):
        assert N**2 * (N * (2 * N - 1)) == 2 * N**4 - N**3

    def test_cancellation(self):
        p = 7 * N**3 - N + Fraction(1, 2)
        assert (p - p).is_zero

    def test_canonical_no_trailing_zeros(self):
        p = Polynomial((1, 2, 0, 0))
        assert p.coefficients == (Fraction(1), Fraction(2))
        assert p.degree == 1

    @pytest.mark.parametrize("k", range(7))
    def test_power_is_repeated_product(self, k):
        p = Polynomial((3, -1, Fraction(1, 2)))
        expected = Polynomial.constant(1)
        for _ in range(k):
            expected = expected * p
        assert p**k == expected


class TestFractionReference:
    """Each operation against the Fraction coefficient lists of tests/oracles.py."""

    def check(self, result: Polynomial, expected: tuple) -> None:
        assert_canonical(result)
        assert result.coefficients == expected

    @given(P=coefficient_lists)
    def test_constructor(self, P):
        self.check(Polynomial(P), poly_trim(P))

    @given(P=coefficient_lists, Q=coefficient_lists)
    def test_ring_operations(self, P, Q):
        p, q = Polynomial(P), Polynomial(Q)
        self.check(p + q, poly_add(P, Q))
        self.check(p - q, poly_add(P, poly_scale(Q, -1)))
        self.check(p * q, poly_mul(P, Q))
        self.check(-p, poly_scale(P, -1))

    @given(P=coefficient_lists, s=scalars)
    def test_scalar_operations(self, P, s):
        p = Polynomial(P)
        self.check(p * s, poly_scale(P, s))
        self.check(s * p, poly_scale(P, s))
        self.check(p + s, poly_add(P, [s]))
        self.check(s - p, poly_add([s], poly_scale(P, -1)))
        if s:
            self.check(p / s, poly_scale(P, 1 / Fraction(s)))
        else:
            with pytest.raises(ZeroDivisionError):
                p / s

    @given(P=coefficient_lists, k=st.integers(-3, 3))
    def test_shift(self, P, k):
        self.check(Polynomial(P).shift(k), poly_shift(P, k))

    @given(P=st.lists(coefficients, max_size=4), e=st.integers(0, 4))
    def test_power(self, P, e):
        self.check(Polynomial(P) ** e, poly_power(P, e))

    @given(
        P=coefficient_lists,
        x=st.one_of(st.integers(-20, 20), st.fractions(-5, 5, max_denominator=7)),
    )
    def test_evaluation(self, P, x):
        value = Polynomial(P)(x)
        assert type(value) is Fraction
        assert value == poly_eval(P, x)

    @given(P=coefficient_lists, multiple=st.integers(-3, 3).filter(bool))
    def test_integer_values(self, P, multiple):
        # the forward-difference stream against plain evaluation, n = 1..30
        scale = Polynomial(P).denominator * multiple
        values = list(itertools.islice(integer_values(Polynomial(P), scale), 30))
        assert all(type(v) is int for v in values)
        assert values == [scale * poly_eval(P, n) for n in range(1, 31)]

    @given(P=coefficient_lists)
    def test_text_round_trip(self, P):
        back = parse_polynomial(Polynomial(P).to_text())
        self.check(back, poly_trim(P))


class TestHashContract:
    @pytest.mark.parametrize("value", [0, 3, -7, Fraction(1, 2), Fraction(-9, 4)])
    def test_constant_hashes_like_its_value(self, value):
        p = Polynomial.constant(value)
        assert p == value
        assert hash(p) == hash(value)
        assert len({p, value}) == 1

    def test_zero_polynomial_and_zero_are_one_set_element(self):
        assert len({Polynomial(), 0, Fraction(0)}) == 1

    @given(P=coefficient_lists, Q=coefficient_lists)
    def test_equal_polynomials_hash_equal(self, P, Q):
        p, q = Polynomial(P), Polynomial(Q)
        assert (p + q) - q == p
        assert hash((p + q) - q) == hash(p)


class TestToText:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (3 * N**2 + 3 * N + 1, "3*n^2 + 3*n + 1"),
            (-(2 * N**4 - N**3), "-2*n^4 + n^3"),
            (2 * N**2 - N, "2*n^2 - n"),
            (Polynomial(), "0"),
            (Polynomial.constant(Fraction(-3, 2)), "-3/2"),
        ],
    )
    def test_examples(self, p, expected):
        assert p.to_text() == expected


class TestFactorRational:
    def test_quartic_with_half_root(self):
        f = factor_rational(2 * N**4 - N**3)
        assert f.content == 2
        assert f.sign == 1
        assert f.factors == ((N, 3), (N - Fraction(1, 2), 1))
        assert f.residual is None

    def test_negative_leading_sign(self):
        f = factor_rational(-(2 * N**4 - N**3))
        assert (f.content, f.sign) == (2, -1)
        assert f.factors == ((N, 3), (N - Fraction(1, 2), 1))

    def test_irreducible_quadratic_is_residual(self):
        f = factor_rational(N**2 + 1)
        assert f.content == 1
        assert f.factors == ()
        assert f.residual == N**2 + 1

    def test_monomial(self):
        f = factor_rational(6 * N)
        assert f.content == 6
        assert f.factors == ((N, 1),)
        assert f.residual is None

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            factor_rational(Polynomial())

    def test_rational_roots_listing(self):
        f = factor_rational(2 * N**4 - N**3)
        assert f.rational_roots() == [(Fraction(0), 3), (Fraction(1, 2), 1)]

    @given(p=nonzero_polynomials)
    def test_reconstruction_invariant(self, p):
        assert reconstruct(factor_rational(p)) == p

    @given(
        roots=st.lists(st.integers(-6, 6), min_size=1, max_size=4),
        scale=st.fractions(
            min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4
        ).filter(lambda q: q != 0),
    )
    def test_recovers_planted_integer_roots(self, roots, scale):
        p = Polynomial.constant(scale)
        for r in roots:
            p = p * (N - r)
        f = factor_rational(p)
        found = {root: mult for root, mult in f.rational_roots()}
        for r in set(roots):
            assert found[Fraction(r)] == roots.count(r)
        assert f.residual is None


@st.composite
def planted_root_polynomials(draw):
    """A rational multiple of rational-rooted linear factors, times an optional
    irreducible quadratic, times an arbitrary polynomial."""
    p = Polynomial.constant(draw(st.fractions(1, 9, max_denominator=5)))
    for root in draw(st.lists(st.fractions(-5, 5, max_denominator=4), max_size=4)):
        p = p * (N - root)
    if draw(st.booleans()):
        p = p * (N**2 + draw(st.integers(-2, 2)) * N + 3)  # p^2 < 12: no real root
    return p * draw(nonzero_polynomials.filter(lambda q: q.degree <= 2))


class TestSympyOracle:
    @settings(max_examples=30, deadline=None)
    @given(p=planted_root_polynomials())
    def test_factor_rational_matches_sympy(self, p):
        pytest.importorskip("sympy")
        lead, roots, residual = sympy_factor_rational(p.coefficients)
        f = factor_rational(p)
        assert f.content * f.sign == lead
        assert f.rational_roots() == roots
        assert (None if f.residual is None else f.residual.coefficients) == residual


class TestRootAnalysis:
    def test_cauchy_bound_contains_roots(self):
        p = (N - 3) * (N + 5) * (2 * N - 1)
        above = root_bound_floor(p.numerators) + 1
        assert all(abs(r) < above for r, _ in factor_rational(p).rational_roots())

    def test_integer_roots_from(self):
        p = (N - 3) * (N - Fraction(1, 2)) * N
        assert integer_roots(factor_rational(p), start=1) == [3]
        assert integer_roots(factor_rational(p), start=4) == []
