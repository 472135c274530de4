import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcf_forge import (
    Coupling,
    Polynomial,
    ZeroPartialNumerator,
    find_couplings,
    verify_coupling,
)
from gcf_forge import parse_polynomial as P

from oracles import (
    poly_add,
    poly_of,
    poly_trim,
    polynomial,
    reference_find_couplings,
    sympy_couplings,
)


class TestQuarticCase:
    def test_unique_coupling_recovered(self, quartic_a, quartic_b):
        found = find_couplings(quartic_a, quartic_b)
        assert found == [Coupling(c=P("n^2"), d=P("2*n^2 - n"))]

    def test_recovered_coupling_verifies(self, quartic_a, quartic_b, quartic_coupling):
        assert verify_coupling(quartic_a, quartic_b, quartic_coupling)

    def test_product_mismatch_rejected(self, quartic_a, quartic_b):
        assert not verify_coupling(
            quartic_a, quartic_b, Coupling(c=P("n^2"), d=P("n^2"))
        )

    def test_swapped_coupling_rejected(self, quartic_a, quartic_b):
        # the sum constraint breaks: 2n^2-n + (n+1)^2 = 3n^2 + n + 1 != b
        swapped = Coupling(c=P("2*n^2 - n"), d=P("n^2"))
        assert not verify_coupling(quartic_a, quartic_b, swapped)


class TestSearchSpace:
    def test_symmetric_split(self):
        a, b = P("-n^2"), P("2*n + 1")
        found = find_couplings(a, b)
        assert Coupling(c=P("n"), d=P("n")) in found
        assert all(verify_coupling(a, b, cp) for cp in found)

    def test_no_rational_scalar_pair(self):
        # d = v, c = 1 - v and c*d = 1 give v^2 - v + 1 = 0: negative discriminant
        assert find_couplings(P("-1"), P("1")) == []

    def test_constant_pair_with_two_solutions(self):
        # v^2 - 3v + 2 = 0 has the roots 1 and 2: both orderings are couplings
        found = find_couplings(P("-2"), P("3"))
        assert found == [
            Coupling(c=P("1"), d=P("2")),
            Coupling(c=P("2"), d=P("1")),
        ]

    def test_residual_assigned_whole(self):
        # -a = n^2 + 1 cannot be split; it must ride on one side entirely
        found = find_couplings(P("-n^2 - 1"), P("n^2 + 2"))
        assert found == [Coupling(c=P("n^2 + 1"), d=P("1"))]

    def test_geometric_family(self):
        # -a = 2n^2, b = 3n + 2 admits exactly c = n, d = 2n
        found = find_couplings(P("-2*n^2"), P("3*n + 2"))
        assert found == [Coupling(c=P("n"), d=P("2*n"))]

    def test_zero_numerator_rejected(self):
        with pytest.raises(ZeroPartialNumerator):
            find_couplings(Polynomial([]), P("n"))


roots = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def coupling_instances(draw):
    """Plant a coupling whose product splits over rational roots.

    c and d are rational multiples of products of rational-rooted linear
    factors, and at most one of them also carries an irreducible quadratic,
    so the planted pair lies inside the search space: rational-root splits
    plus one indivisible residual.
    """

    def linear_product() -> Polynomial:
        p = polynomial([draw(st.fractions(1, 4, max_denominator=3))])
        for root in draw(st.lists(roots, min_size=0, max_size=2)):
            p = p * polynomial([-root, 1])
        return p

    c = linear_product()
    d = linear_product()
    if draw(st.booleans()):
        c = -c
    side = draw(st.sampled_from(["none", "c", "d"]))
    if side != "none":
        # n^2 + p*n + q with p^2 < 4q has no real root
        p = draw(st.integers(-3, 3))
        quadratic = Polynomial([draw(st.integers(p * p // 4 + 1, p * p // 4 + 4)), p, 1])
        c, d = (c * quadratic, d) if side == "c" else (c, d * quadratic)
    return -(c * d), c + d.shift(1), Coupling(c=c, d=d)


@st.composite
def cancelling_instances(draw):
    """Plant a coupling whose leading terms cancel in b: deg c = deg d, lc(c) = -lc(d).

    So deg b < deg a / 2, and b = 0 when c = -d(n+1). d splits over rational roots,
    so the monic part of d lies inside the search space whatever c is.
    """
    d = polynomial([draw(st.fractions(1, 4, max_denominator=3))])
    for root in draw(st.lists(roots, min_size=1, max_size=3)):
        d = d * polynomial([-root, 1])
    if draw(st.booleans()):
        c = -d.shift(1)
    else:
        lower = draw(st.lists(st.fractions(-4, 4, max_denominator=3), max_size=d.degree))
        c = polynomial(lower) + polynomial([0] * d.degree + [-d.leading_coefficient])
    return -(c * d), c + d.shift(1), Coupling(c=c, d=d)


class TestProperties:
    @pytest.mark.parametrize(
        "c,d",
        [
            ("-2*n^2 + 3*n", "2*n^2 - n"),  # b = 5n + 1
            ("1 - n", "n + 2"),  # b = 4
            ("-(n + 1)", "n"),  # b = 0
            ("-2*n^2 - 5", "2*n^2 - n"),  # b = 3n - 4; c is the residual of -a
        ],
        ids=["quadratic", "linear", "zero-b", "residual"],
    )
    def test_cancelling_leading_terms(self, c, d):
        c, d = P(c), P(d)
        a, b = -(c * d), c + d.shift(1)
        assert b.degree < a.degree / 2
        found = find_couplings(a, b)
        assert Coupling(c=c, d=d) in found
        assert found == reference_find_couplings(a, b)

    @settings(max_examples=60, deadline=None)
    @given(case=cancelling_instances())
    def test_planted_cancelling_coupling_is_found(self, case):
        a, b, planted = case
        found = find_couplings(a, b)
        assert planted in found
        assert found == reference_find_couplings(a, b)

    @settings(max_examples=60, deadline=None)
    @given(case=coupling_instances())
    def test_planted_coupling_is_found(self, case):
        a, b, planted = case
        found = find_couplings(a, b)
        assert planted in found

    @settings(max_examples=60, deadline=None)
    @given(case=coupling_instances())
    def test_every_result_verifies_and_samples_hold(self, case):
        a, b, _ = case
        for coupling in find_couplings(a, b):
            assert verify_coupling(a, b, coupling)
            for n in range(1, 51):
                assert coupling.c(n) + coupling.d(n + 1) == b(n)
                assert coupling.c(n) * coupling.d(n) == -a(n)

    @settings(max_examples=40, deadline=None)
    @given(case=coupling_instances())
    def test_deterministic_order(self, case):
        a, b, _ = case
        first = find_couplings(a, b)
        second = find_couplings(a, b)
        assert first == second
        keys = [(cp.c.degree, poly_of(cp.c), poly_of(cp.d)) for cp in first]
        assert keys == sorted(keys)


class TestSympyOracle:
    """find_couplings against sympy.factor_list and sympy.solve, which share
    neither the rational-root search nor the quadratic in v."""

    @settings(max_examples=30, deadline=None)
    @given(case=coupling_instances(), shift=st.sampled_from([0, 0, 1, Fraction(-1, 2)]))
    def test_same_couplings_as_sympy(self, case, shift):
        pytest.importorskip("sympy")
        a, b, _ = case
        b = poly_add(poly_of(b), poly_trim([shift]))  # a shifted b is, in general, not in Euler form
        expected = sympy_couplings(poly_of(a), b)
        found = find_couplings(a, polynomial(b))
        assert {(poly_of(cp.c), poly_of(cp.d)) for cp in found} == expected
        assert len(found) == len(expected)


# --- parity with the previous search ---------------------------------------------

_ROOTS = [Fraction(k) for k in range(-3, 4)] + [Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)]
_IRREDUCIBLE = [P("n^2 + 1"), P("n^2 + n + 1"), P("n^2 - 2*n + 5"), P("n^3 + n + 1"), P("n^2 - 2")]


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 1, 2, 3, 4]))


def _planted_side(rng: random.Random) -> Polynomial:
    """lead * prod (n - r), roots possibly repeated, sometimes with an irreducible factor."""
    p = polynomial([_rational(rng) or Fraction(1)])
    roots = [rng.choice(_ROOTS) for _ in range(rng.randint(0, 3))]
    if roots and rng.random() < 0.3:
        roots.append(roots[0])  # a repeated root
    for r in roots:
        p = p * polynomial([-r, 1])
    if rng.random() < 0.2:
        p = p * rng.choice(_IRREDUCIBLE)
    return p


def parity_cases(seed: int, count: int):
    """Seeded (a, b) pairs: random ones, and planted couplings, some with b perturbed."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 3 == 0:
            a = polynomial([_rational(rng) for _ in range(rng.randint(1, 5))])
            b = polynomial([_rational(rng) for _ in range(rng.randint(0, 4))])
            if a.is_zero:
                a = P("1")
        else:
            c, d = _planted_side(rng), _planted_side(rng)
            a, b = -(c * d), c + d.shift(1)
            if i % 3 == 2:
                scale, degree = rng.choice([0, 1, Fraction(-1, 2)]), rng.randint(0, 2)
                b = b + polynomial([0] * degree + [scale])
        yield a, b


def test_search_matches_previous_search():
    counts = Counter()
    for a, b in parity_cases(seed=20, count=2400):
        found = find_couplings(a, b)
        assert found == reference_find_couplings(a, b), (a, b)
        counts[min(len(found), 2)] += 1
    # the cases reach empty, single and multiple results
    assert min(counts[0], counts[1], counts[2]) >= 50, counts
