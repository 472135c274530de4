import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcf_forge import DivisionByZero, Polynomial, ZeroPolynomial, factor_rational
from gcf_forge import parse_polynomial as P
from gcf_forge.poly import integer_values, root_bound_floor

from oracles import (
    integer_roots,
    poly_add,
    poly_eval,
    poly_mul,
    poly_of,
    poly_power,
    poly_scale,
    poly_shift,
    poly_trim,
    polynomial,
    reconstruct,
    sympy_factor_rational,
)

coefficients = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
polynomials = st.lists(coefficients, min_size=0, max_size=5).map(polynomial)
nonzero_polynomials = polynomials.filter(lambda p: not p.is_zero)
coefficient_lists = st.lists(st.one_of(coefficients, st.integers(-(10**12), 10**12)), max_size=5)
scalars = st.one_of(st.integers(-30, 30), coefficients)
# small ints share factors often, so the constructor has a gcd to take out
ints = st.one_of(st.integers(-12, 12), st.integers(-(10**12), 10**12))


def assert_canonical(p: Polynomial) -> None:
    """int numerators over a positive int denominator, no trailing zero, gcd 1."""
    assert type(p.denominator) is int and p.denominator > 0
    assert all(type(c) is int for c in p.numerators)
    assert not p.numerators or p.numerators[-1] != 0
    # for the zero polynomial this reads denominator == 1
    assert math.gcd(p.denominator, *p.numerators) == 1


class TestEvaluate:
    def test_quadratic_denominator_at_two(self):
        assert P("3*n^2 + 3*n + 1")(2) == 19

    def test_quartic_numerator_at_three(self):
        assert P("-(2*n^4 - n^3)")(3) == -135

    def test_zero_polynomial(self):
        assert Polynomial([])(12345) == 0

    def test_rational_point(self):
        assert P("2*n^2 - n")(Fraction(1, 2)) == 0


class TestShift:
    def test_shift_of_product(self):
        d = P("n") * P("2*n - 1")
        assert d.shift(1) == P("2*n^2 + 3*n + 1")

    def test_identity_shift(self):
        p = P("3*n^2 + 3*n + 1")
        assert p.shift(0) == p

    def test_square(self):
        assert P("n^2").shift(1) == P("n^2 + 2*n + 1")

    @given(p=polynomials, a=st.integers(-8, 8), b=st.integers(-8, 8))
    def test_composition(self, p, a, b):
        assert p.shift(a).shift(b) == p.shift(a + b)

    @given(p=polynomials, k=st.integers(-8, 8), n=st.integers(-20, 20))
    def test_commutes_with_evaluation(self, p, k, n):
        assert p.shift(k)(n) == p(n + k)


class TestArithmetic:
    def test_coupling_sum_recovers_denominator(self):
        c, d = P("n^2"), P("n") * P("2*n - 1")
        assert c + d.shift(1) == P("3*n^2 + 3*n + 1")

    def test_coupling_product_recovers_numerator(self):
        assert P("n^2") * (P("n") * P("2*n - 1")) == P("2*n^4 - n^3")

    def test_cancellation(self):
        p = P("7*n^3 - n + 1/2")
        assert (p + -p).is_zero

    def test_canonical_no_trailing_zeros(self):
        p = Polynomial([1, 2, 0, 0])
        assert (p.numerators, p.denominator) == ((1, 2), 1)
        assert p.degree == 1

    def test_zero_denominator_refused(self):
        with pytest.raises(ZeroDivisionError):
            Polynomial([1, 2], 0)

    @pytest.mark.parametrize("k", range(7))
    def test_power_is_repeated_product(self, k):
        # the parser's power against the polynomial product
        text = "3 - n + 1/2*n^2"
        expected = P("1")
        for _ in range(k):
            expected = expected * P(text)
        assert P(f"({text})^{k}") == expected


class TestFractionReference:
    """Each operation against the Fraction coefficient lists of tests/oracles.py."""

    def check(self, result: Polynomial, expected: tuple) -> None:
        assert_canonical(result)
        assert poly_of(result) == expected

    @given(numerators=st.lists(ints, max_size=5), denominator=ints.filter(bool))
    def test_constructor(self, numerators, denominator):
        expected = poly_trim([Fraction(c, denominator) for c in numerators])
        self.check(Polynomial(numerators, denominator), expected)

    @given(xs=coefficient_lists, ys=coefficient_lists)
    def test_ring_operations(self, xs, ys):
        p, q = polynomial(xs), polynomial(ys)
        self.check(p + q, poly_add(xs, ys))
        self.check(p * q, poly_mul(xs, ys))
        self.check(-p, poly_scale(xs, -1))
        assert (p == q) == (poly_trim(xs) == poly_trim(ys))

    @given(xs=coefficient_lists, s=scalars)
    def test_scalar_operations(self, xs, s):
        # scalar * and / reach the ints only through the parser
        text = polynomial(xs).to_text()
        self.check(P(f"({text}) * ({s})"), poly_scale(xs, s))
        if s:
            self.check(P(f"({text}) / ({s})"), poly_scale(xs, 1 / Fraction(s)))
        else:
            with pytest.raises(DivisionByZero):
                P(f"({text}) / ({s})")

    @given(xs=coefficient_lists, k=st.integers(-3, 3))
    def test_shift(self, xs, k):
        self.check(polynomial(xs).shift(k), poly_shift(xs, k))

    @given(xs=st.lists(coefficients, max_size=4), e=st.integers(0, 4))
    def test_power(self, xs, e):
        # poly._power reaches the ints only through the parser
        self.check(P(f"({polynomial(xs).to_text()})^{e}"), poly_power(xs, e))

    @given(
        xs=coefficient_lists,
        x=st.one_of(st.integers(-20, 20), st.fractions(-5, 5, max_denominator=7)),
    )
    def test_evaluation(self, xs, x):
        value = polynomial(xs)(x)
        assert type(value) is Fraction
        assert value == poly_eval(xs, x)

    @given(xs=coefficient_lists, multiple=st.integers(-3, 3).filter(bool))
    def test_integer_values(self, xs, multiple):
        # the forward-difference stream against plain evaluation, n = 1..30
        p = polynomial(xs)
        scale = p.denominator * multiple
        values = list(itertools.islice(integer_values(p, scale), 30))
        assert all(type(v) is int for v in values)
        assert values == [scale * poly_eval(xs, n) for n in range(1, 31)]

    @given(xs=coefficient_lists)
    def test_text_round_trip(self, xs):
        self.check(P(polynomial(xs).to_text()), poly_trim(xs))


class TestToText:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (P("3*n^2+3*n+1"), "3*n^2 + 3*n + 1"),
            (P("-(2*n^4 - n^3)"), "-2*n^4 + n^3"),
            (P("n*(2*n - 1)"), "2*n^2 - n"),
            (Polynomial([]), "0"),
            (Polynomial([-3], 2), "-3/2"),
        ],
    )
    def test_examples(self, p, expected):
        assert p.to_text() == expected


class TestFactorRational:
    def test_quartic_with_half_root(self):
        f = factor_rational(P("2*n^4 - n^3"))
        assert f.content == 2
        assert f.sign == 1
        assert f.factors == ((P("n"), 3), (P("n - 1/2"), 1))
        assert f.residual is None

    def test_negative_leading_sign(self):
        f = factor_rational(P("-(2*n^4 - n^3)"))
        assert (f.content, f.sign) == (2, -1)
        assert f.factors == ((P("n"), 3), (P("n - 1/2"), 1))

    def test_irreducible_quadratic_is_residual(self):
        f = factor_rational(P("n^2 + 1"))
        assert f.content == 1
        assert f.factors == ()
        assert f.residual == P("n^2 + 1")

    def test_monomial(self):
        f = factor_rational(P("6*n"))
        assert f.content == 6
        assert f.factors == ((P("n"), 1),)
        assert f.residual is None

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            factor_rational(Polynomial([]))

    def test_rational_roots_listing(self):
        f = factor_rational(P("2*n^4 - n^3"))
        assert f.rational_roots() == [(Fraction(0), 3), (Fraction(1, 2), 1)]

    @given(p=nonzero_polynomials)
    def test_reconstruction_invariant(self, p):
        assert reconstruct(factor_rational(p)) == poly_of(p)

    @given(
        roots=st.lists(st.integers(-6, 6), min_size=1, max_size=4),
        scale=st.fractions(
            min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4
        ).filter(lambda q: q != 0),
    )
    def test_recovers_planted_integer_roots(self, roots, scale):
        xs = (scale,)
        for r in roots:
            xs = poly_mul(xs, (-r, 1))
        f = factor_rational(polynomial(xs))
        found = {root: mult for root, mult in f.rational_roots()}
        for r in set(roots):
            assert found[Fraction(r)] == roots.count(r)
        assert f.residual is None


@st.composite
def planted_root_polynomials(draw) -> tuple:
    """The Fraction coefficients of a rational multiple of rational-rooted linear
    factors, times an optional irreducible quadratic, times an arbitrary polynomial."""
    xs = (draw(st.fractions(1, 9, max_denominator=5)),)
    for root in draw(st.lists(st.fractions(-5, 5, max_denominator=4), max_size=4)):
        xs = poly_mul(xs, (-root, 1))
    if draw(st.booleans()):
        xs = poly_mul(xs, (3, draw(st.integers(-2, 2)), 1))  # p^2 < 12: no real root
    return poly_mul(xs, draw(st.lists(coefficients, max_size=3).map(poly_trim).filter(bool)))


class TestSympyOracle:
    @settings(max_examples=30, deadline=None)
    @given(xs=planted_root_polynomials())
    def test_factor_rational_matches_sympy(self, xs):
        pytest.importorskip("sympy")
        lead, roots, residual = sympy_factor_rational(xs)
        f = factor_rational(polynomial(xs))
        assert f.content * f.sign == lead
        assert f.rational_roots() == roots
        assert (None if f.residual is None else poly_of(f.residual)) == residual


class TestRootAnalysis:
    def test_cauchy_bound_contains_roots(self):
        p = P("(n - 3) * (n + 5) * (2*n - 1)")
        above = root_bound_floor(p.numerators) + 1
        assert all(abs(r) < above for r, _ in factor_rational(p).rational_roots())

    def test_integer_roots_from(self):
        p = P("(n - 3) * (n - 1/2) * n")
        assert integer_roots(factor_rational(p), start=1) == [3]
        assert integer_roots(factor_rational(p), start=4) == []
