import math
from fractions import Fraction
from itertools import islice
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gcf_forge import (
    Coupling,
    NotConvergent,
    OnsetPastBudget,
    Polynomial,
    ZeroDenominatorFactor,
    ratio_certificate,
    rational_to_real,
)
from gcf_forge import parse_polynomial as P
from gcf_forge import series
from gcf_forge.poly import common_denominator, factor_rational

from oracles import (
    cascade_frames,
    central_binomial_sum,
    certified_sum,
    close_to,
    exact_value,
    fraction_decimal,
    fraction_series_sum,
    integer_roots,
    ln2_fraction,
    pi_squared_over_8,
    pi_squared_over_18,
    poly_add,
    polynomial,
    terms,
)

GEOMETRIC = Coupling(c=P("n"), d=P("2*n"))  # terms 1/(2^(k+1) (k+1)), summing to ln 2


def closed_form_term(k: int) -> Fraction:
    """Independent reduction 2^(k+1) (k!)^2 / (2k+2)! via factorials."""
    return Fraction(2 ** (k + 1) * math.factorial(k) ** 2, math.factorial(2 * k + 2))


class TestTerms:
    def test_first_terms(self, quartic_coupling):
        assert terms(quartic_coupling, 3) == [
            Fraction(1),
            Fraction(1, 6),
            Fraction(2, 45),
        ]

    def test_closed_form_to_100(self, quartic_coupling):
        frames = cascade_frames(quartic_coupling, 101)
        sums = [Fraction(T, D) for _, D, T in frames]
        for k, t in enumerate(terms(quartic_coupling, 101)):
            assert t == closed_form_term(k)
            assert Fraction(*frames[k][:2]) == sums[k] - (sums[k - 1] if k else 0) == t

    def test_partial_sums(self, quartic_coupling):
        assert [Fraction(T, D) for _, D, T in cascade_frames(quartic_coupling, 3)] == [
            Fraction(1),
            Fraction(7, 6),
            Fraction(109, 90),
        ]

    def test_positive_terms_increasing_sums(self, quartic_coupling):
        frames = cascade_frames(quartic_coupling, 200)
        assert all(t > 0 for t in terms(quartic_coupling, 200))
        assert all(C > 0 and D > 0 for C, D, _ in frames)
        # S_k = T_k/D_k < S_(k+1), and both D are positive
        steps = zip(frames, frames[1:])
        assert all(T * D_next < T_next * D for (_, D, T), (_, D_next, T_next) in steps)

    def test_vanishing_denominator_factor(self):
        # t_2 is the last term that does not divide by d(3) = 0
        coupling = Coupling(c=P("n"), d=P("n - 3"))
        with pytest.raises(ZeroDenominatorFactor) as err:
            cascade_frames(coupling, 3)
        assert err.value.index == 3
        assert [Fraction(T, D) for _, D, T in cascade_frames(coupling, 2)] == [Fraction(-1, 2), 0]

    def test_stream_state_tracks_products(self):
        c, d = P("1/2*n^2"), P("2*n^2 - 1/3*n")
        L = common_denominator(c, d)
        assert L == 6
        C, D, _ = next(islice(series.cascade(Coupling(c=c, d=d)), 5, None))
        assert C == L * math.prod(L * c(j) for j in range(1, 6))
        assert D == math.prod(L * d(j) for j in range(1, 7))


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def signed_couplings(draw) -> Coupling:
    """c, d of degree <= 2 with rational coefficients; d has no root in 1, 2, ..."""

    def side():
        return polynomial(draw(st.lists(rationals, max_size=2)) + [draw(rationals.filter(bool))])

    coupling = Coupling(c=side(), d=side())
    assume(not integer_roots(factor_rational(coupling.d), start=1))
    return coupling


class TestCascade:
    @settings(max_examples=40, deadline=None)
    @given(coupling=signed_couplings())
    def test_matches_fraction_products_and_sums(self, coupling):
        # signed_couplings draws rational coefficients, so L > 1 is common
        scale = common_denominator(coupling.c, coupling.d)
        c, d = coupling.c, coupling.d
        numerator, denominator, total = Fraction(1), d(1), Fraction(0)
        for k, (C, D, T) in enumerate(islice(series.cascade(coupling), 41)):
            assert all(isinstance(v, int) for v in (C, D, T))
            assert C == scale ** (k + 1) * numerator
            assert D == scale ** (k + 1) * denominator
            total += numerator / denominator
            assert Fraction(T, D) == total
            numerator *= c(k + 1)
            denominator *= d(k + 2)


class TestRatioCertificate:
    def test_quartic_certificate(self, quartic_coupling):
        cert = ratio_certificate(quartic_coupling)
        assert cert.numerator == P("n^2 + 2*n + 1")  # (k+1)^2
        assert cert.denominator == P("2*n^2 + 7*n + 6")  # (k+2)(2k+3)
        assert cert.rho == Fraction(1, 2)
        assert cert.classification == "convergent"

    def test_ratio_matches_consecutive_terms(self, quartic_coupling):
        cert = ratio_certificate(quartic_coupling)
        ts = terms(quartic_coupling, 102)
        for k in range(101):
            assert ts[k + 1] / ts[k] == cert.numerator(k) / cert.denominator(k)

    def test_equal_degrees_inconclusive(self):
        cert = ratio_certificate(Coupling(c=P("n"), d=P("n")))
        assert cert.numerator == P("n + 1")
        assert cert.denominator == P("n + 2")
        assert cert.rho == 1
        assert cert.classification == "inconclusive"

    def test_degree_dominance_divergent(self):
        cert = ratio_certificate(Coupling(c=P("n^2"), d=P("n")))
        assert cert.rho is None
        assert cert.classification == "divergent"

    def test_negative_rho_uses_magnitude(self):
        shrinking = ratio_certificate(Coupling(c=P("-n"), d=P("2*n")))
        assert shrinking.rho == Fraction(-1, 2)
        assert shrinking.classification == "convergent"
        growing = ratio_certificate(Coupling(c=P("-3*n"), d=P("n")))
        assert growing.rho == -3
        assert growing.classification == "divergent"

    def test_pole_pushes_validity_start(self):
        # d(k+2) = 2k - 6 vanishes at k = 3, so the onset must lie past it
        cert = ratio_certificate(Coupling(c=P("n"), d=P("2*n - 10")))
        assert cert.denominator(3) == 0
        assert series._geometric_onset(cert, *((abs(cert.rho) + 1) / 2).as_integer_ratio()) > 3


def fraction_reference(certificate, digits: int):
    """certified_sum's (value, terms used) by the reduced-fraction loop."""
    rho_bar = (abs(certificate.rho) + 1) / 2
    onset = series._geometric_onset(certificate, *rho_bar.as_integer_ratio())
    coupling = certificate.coupling
    total, used = fraction_series_sum(
        coupling.c, coupling.d, digits, onset, rho_bar / (1 - rho_bar)
    )
    # read through series, so a test that narrows its precision narrows this too
    return rational_to_real(total.as_integer_ratio(), series.working_precision(digits)), used


def exact_sum_runs(monkeypatch) -> list:
    """Record each run of the sum's exact pass, its one reader of cascade."""
    runs = []
    cascade = series.cascade

    def spy(coupling):
        runs.append(coupling)
        return cascade(coupling)

    monkeypatch.setattr(series, "cascade", spy)
    return runs


# the arcsin^2 family c = (z/2) n^2, d = 2n^2 - n and the arcsin family
# c = z n, d = 2n - 1, at the z that give closed forms
CLOSED_FORMS = [Coupling(c=P(f"{z}/2*n^2"), d=P("2*n^2 - n")) for z in (1, 2, 3)] + [
    Coupling(c=P(f"{z}*n"), d=P("2*n - 1")) for z in ("1/2", "1", "3/2")
]
CLOSED_FORM_IDS = ["asin2-z1", "asin2-z2", "asin2-z3", "asin-z1_2", "asin-z1", "asin-z3_2"]


@st.composite
def convergent_couplings(draw) -> Coupling:
    """Convergent c, d in the shapes that stress the stop rule and the rounding."""
    nonzero = rationals.filter(bool)
    shape = draw(st.sampled_from(["signed", "terminating", "wide", "negative", "growing"]))
    if shape == "signed":  # rational coefficients; rho < 0 alternates the terms
        d = polynomial(draw(st.lists(rationals, max_size=2)) + [draw(nonzero)])
        rho = draw(st.sampled_from([0, 1, -1, 2, -2])) / Fraction(4)
        lower = draw(st.lists(rationals, max_size=d.degree))
        c = polynomial(poly_add(lower, [0] * d.degree + [rho * d.leading_coefficient]))
        assume(not c.is_zero and not integer_roots(factor_rational(d), start=1))
    elif shape == "terminating":  # c(m) = 0, so every term from t_m on is 0
        scale, root = draw(nonzero), draw(st.integers(1, 8))
        c = polynomial([-scale * root, scale])
        d = P(f"{draw(st.integers(1, 6))}*n^2 + {draw(st.integers(1, 9))}")
    elif shape == "wide":  # the Cauchy bound puts the onset past 2q
        c = polynomial([draw(nonzero)])
        d = P(f"n*(n + {draw(st.integers(10, 300))})")
    elif shape == "negative":  # d(j) < 0 for every j <= m
        c = polynomial([0, 0, draw(st.sampled_from([1, -1, Fraction(1, 2), Fraction(-1, 2)]))])
        d = P(f"n*(2*n - {2 * draw(st.integers(1, 12)) + 1})")
    else:  # the terms rise for a while before they decay
        c = Polynomial([0, draw(st.integers(10, 60))])
        d = P("n^2 + 1")
    return Coupling(c=c, d=d)


class TestSumToPrecision:
    def test_quartic_sum_50_digits(self, quartic_coupling):
        value, used = certified_sum(ratio_certificate(quartic_coupling), 50)
        assert close_to(exact_value(value), pi_squared_over_8(60), 50)
        assert used <= 400

    def test_quartic_sum_10_digit_preview(self, quartic_coupling):
        value, _ = certified_sum(ratio_certificate(quartic_coupling), 10)
        assert value.to_decimal(11).startswith("1.2337005501")

    def test_geometric_family_sums_to_ln2(self):
        value, _ = certified_sum(ratio_certificate(GEOMETRIC), 30)
        assert close_to(exact_value(value), ln2_fraction(35), 30)

    def test_matches_brute_force_partial_sums(self):
        value, _ = certified_sum(ratio_certificate(GEOMETRIC), 30)
        brute = sum(terms(GEOMETRIC, 150), Fraction(0))
        assert abs(exact_value(value) - brute) <= 2 * Fraction(1, 10**30)

    def test_alternating_terms(self):
        # c = -n keeps |ratio| = 1/2 but alternates term signs
        alternating = Coupling(c=P("-n"), d=P("2*n"))
        value, _ = certified_sum(ratio_certificate(alternating), 25)
        brute = sum(terms(alternating, 120), Fraction(0))
        assert abs(exact_value(value) - brute) <= 2 * Fraction(1, 10**25)

    def test_not_convergent_rejected(self):
        # rho = 1: no certified tail, so no sum and no term count
        with pytest.raises(NotConvergent):
            certified_sum(ratio_certificate(Coupling(c=P("n"), d=P("n"))), 10)

    def test_uncertified_onset_raises(self, monkeypatch):
        # a root bound that is too small must not slip past an onset check
        # that `python -O` would strip
        monkeypatch.setattr(series, "root_bound_floor", lambda ints: 0)
        with pytest.raises(NotConvergent):
            certified_sum(ratio_certificate(Coupling(c=P("n^2 + 100"), d=P("2*n^2 - n"))), 10)

    def test_onset_budget_is_inclusive(self, monkeypatch):
        # c = 3, d = n (n + 40): the Cauchy bounds put the onset at 92
        certificate = ratio_certificate(Coupling(c=P("3"), d=P("n*(n + 40)")))
        onset = series._stop_rule(certificate, 10)[0]
        monkeypatch.setattr(series, "ONSET_BUDGET", onset)
        assert certified_sum(certificate, 10) == fraction_reference(certificate, 10)
        monkeypatch.setattr(series, "ONSET_BUDGET", onset - 1)
        with pytest.raises(OnsetPastBudget) as err:
            certified_sum(certificate, 10)
        assert err.value.onset == onset

    @pytest.mark.parametrize("digits", [5, 20, 60, 160])
    @pytest.mark.parametrize(
        "coupling",
        [
            Coupling(c=P("n^2"), d=P("2*n^2 - n")),
            GEOMETRIC,
            Coupling(c=P("-n"), d=P("2*n")),
            Coupling(c=P("1/3*n + 1/2"), d=P("3/2*n^2 + 1")),
            Coupling(c=P("3"), d=P("n*(n + 40)")),
            Coupling(c=P("n - 3"), d=P("2*n")),
        ],
        ids=["quartic", "geometric", "alternating", "rational", "wide-onset", "terminating"],
    )
    def test_matches_fraction_reference(self, coupling, digits):
        certificate = ratio_certificate(coupling)
        assert certified_sum(certificate, digits) == fraction_reference(certificate, digits)

    @settings(max_examples=40, deadline=None)
    @given(coupling=convergent_couplings(), digits=st.integers(1, 300))
    def test_matches_fraction_reference_on_random_couplings(self, coupling, digits):
        certificate = ratio_certificate(coupling)
        assert certificate.classification == "convergent"
        assert certified_sum(certificate, digits) == fraction_reference(certificate, digits)

    def test_rounding_midpoint_falls_back_to_exact_sum(self, monkeypatch):
        # the terms 1, 1/256, 0, ... sum to 257/256, halfway between two 8-bit
        # floats: the fixed-point enclosure straddles it, and only the exact
        # sum rounds it (half to even, down to 1)
        monkeypatch.setattr(series, "working_precision", lambda digits: 8)
        runs = exact_sum_runs(monkeypatch)
        certificate = ratio_certificate(Coupling(c=P("2 - n"), d=P("255*n - 254")))
        value, used = certified_sum(certificate, 1)
        assert runs
        assert (value, used) == fraction_reference(certificate, 1)
        assert (exact_value(value), used) == (1, 4)

    def test_undecidable_stop_falls_back_to_exact_sum(self, quartic_coupling, monkeypatch):
        # F = 8 + 64 fraction bits cannot resolve a stop threshold near 10^-30
        monkeypatch.setattr(series, "working_precision", lambda digits: 8)
        runs = exact_sum_runs(monkeypatch)
        certificate = ratio_certificate(quartic_coupling)
        assert certified_sum(certificate, 30) == fraction_reference(certificate, 30)
        assert runs

    @pytest.mark.parametrize("coupling", CLOSED_FORMS, ids=CLOSED_FORM_IDS)
    def test_closed_forms_stay_in_fixed_point(self, coupling, monkeypatch):
        runs = exact_sum_runs(monkeypatch)
        certified_sum(ratio_certificate(coupling), 160)
        assert runs == []

    @pytest.mark.parametrize("digits,depth", [(160, 16), (40, 250)])
    @pytest.mark.parametrize("coupling", CLOSED_FORMS, ids=CLOSED_FORM_IDS)
    def test_closed_form_walks_stay_in_fixed_point(self, coupling, digits, depth, monkeypatch):
        # the depth moves the switch to the lean tail, whose looser enclosure still decides
        # the benchmark's jobs alone at their (digits, depth)
        runs = exact_sum_runs(monkeypatch)
        series.sum_to_precision(ratio_certificate(coupling), digits, depth)
        assert runs == []

    @settings(max_examples=40, deadline=None)
    @given(coupling=convergent_couplings(), digits=st.integers(1, 200), guard=st.integers(4, 10))
    @example(coupling=CLOSED_FORMS[2], digits=8, guard=8)
    @example(coupling=GEOMETRIC, digits=11, guard=6)
    @example(coupling=Coupling(c=P("-n"), d=P("2*n")), digits=22, guard=6)
    def test_matches_fraction_reference_with_few_guard_bits(self, coupling, digits, guard):
        # with F a few bits past the working precision, the floor errors of a long tail
        # reach the rounding, so an enclosure that undercounts them rounds some sums wrongly
        certificate = ratio_certificate(coupling)
        with patch.object(series, "FIXED_POINT_GUARD_BITS", guard):
            summed = certified_sum(certificate, digits)
        assert summed == fraction_reference(certificate, digits)

    def test_error_budget_is_met(self, quartic_coupling):
        # against a much finer run of the same series, exact to 10^-40
        coarse, _ = certified_sum(ratio_certificate(quartic_coupling), 12)
        fine = sum(terms(quartic_coupling, 250), Fraction(0))
        assert abs(exact_value(coarse) - fine) <= Fraction(1, 10**12)


@settings(max_examples=60, deadline=None)
@given(coupling=convergent_couplings(), depth=st.integers(0, 300))
# the ratio climbs from about 1/4 at the onset towards 9/10, so e_k climbs past e_k0
@example(coupling=Coupling(c=P("9/10*n"), d=P("n + 100")), depth=0)
def test_error_bound_past_the_onset_stays_below_the_lean_constant(coupling, depth):
    # the fixed-point pass's e_k, replayed from k = 0 in Fractions: past a switch k0 > onset
    # every e_k is at most B = max(e_k0, slack), the constant the lean loop adds to E for
    # each term. k0 = max(depth, onset + 1) is the switch of a pass whose enclosure has not
    # kept S_k away from 0 below the depth
    onset, _, _, slack, _ = series._stop_rule(ratio_certificate(coupling), 10)
    k0 = max(depth, onset + 1)
    c, d = coupling.c, coupling.d
    e = 1  # e_0: u_0 = floor(L 2^F / d'(1)) and u_{-1} is exact
    for k in range(1, k0 + 301):
        assume(d(k + 1) != 0)  # the pass raises ZeroDenominatorFactor before the onset
        e = math.ceil(e * abs(c(k) / d(k + 1))) + 1
        if k == k0:
            bound = max(e, slack)
        elif k > k0:
            assert e <= bound, k


@pytest.mark.parametrize(
    "rho",
    [0, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(9, 10)],
    ids=["0", "1_2", "-1_2", "2_3", "3_4", "9_10"],
)
def test_lean_constant_covers_the_worst_error_the_ratio_bound_allows(rho):
    # past the onset the certificate allows any ratio up to rho_bar, so the worst
    # error sequence is e_k = ceil(rho_bar e_{k-1}) + 1; it settles at
    # ceil(1 / (1 - rho_bar)), which the lean tail's slack must cover
    coupling = Coupling(c=polynomial([0, 2 * rho] if rho else [1]), d=P("2*n - 1"))
    certificate = ratio_certificate(coupling)
    assert certificate.rho == rho
    _, _, _, slack, _ = series._stop_rule(certificate, 10)
    rho_bar = (abs(certificate.rho) + 1) / 2
    e = 1
    for k in range(500):
        e = math.ceil(rho_bar * e) + 1
        assert e <= slack, k


def handed_radii(coupling, digits: int, depth: int):
    """Run the fixed-point pass and record every enclosure it hands to enclosure_to_real.
    (result, calls)."""
    calls = []
    enclosure_to_real = series.enclosure_to_real

    def spy(*args):
        calls.append(args)
        return enclosure_to_real(*args)

    stop = series._stop_rule(ratio_certificate(coupling), digits)
    bits = series.working_precision(digits)
    with patch.object(series, "enclosure_to_real", spy):
        result = series._fixed_point_pass(coupling, *stop, bits, depth)
    return result, calls


@settings(max_examples=80, deadline=None)
@given(coupling=convergent_couplings(), digits=st.integers(1, 80), depth=st.integers(0, 300))
@example(coupling=Coupling(c=P("n^2"), d=P("2*n^2 - n")), digits=40, depth=250)
@example(coupling=Coupling(c=P("n^2"), d=P("2*n^2 - n")), digits=40, depth=100)
@example(coupling=Coupling(c=P("-n"), d=P("2*n")), digits=30, depth=12)  # a lean sum
def test_radii_cover_the_error_bound_replayed_in_fractions(coupling, digits, depth):
    # the radius the pass hands on covers the bound replayed here in Fractions: e_k per
    # term up to the switch, then B = max(e_k, slack) per term in the lean loop
    certificate = ratio_certificate(coupling)
    onset, _, q, slack, p = series._stop_rule(certificate, digits)
    try:
        result, calls = handed_radii(coupling, digits, depth)
    except ZeroDenominatorFactor:
        assume(False)
    assume(result is not None)
    [(low, high, F, _)] = calls
    c, d = coupling.c, coupling.d
    u, e, s, E, lean = Fraction(1 << F), 0, 0, 0, False  # u_{-1} = 2^F over d(1)
    for k in range(result[1]):
        ratio = (c(k) if k else 1) / d(k + 1)
        u = math.floor(u * ratio)
        if not lean:
            e = math.ceil(e * abs(ratio)) + 1
        s, E = s + u, E + (B if lean else e)
        if not lean and k > onset and (k >= depth or q * (abs(s) - E) > p * (abs(u) + e)):
            lean, B = True, max(e, slack)
    assert (low + high) // 2 == s and (high - low) // 2 >= E


class TestCentralBinomialSum:
    """The test-only central-binomial route to pi^2/8 and pi^2/18."""

    def test_z2_matches_pi_squared_over_8(self):
        assert close_to(central_binomial_sum(2, 50), pi_squared_over_8(60), 50)

    def test_z0_is_zero(self):
        assert central_binomial_sum(0, 10) == 0

    def test_z1_matches_pi_squared_over_18(self):
        assert close_to(central_binomial_sum(1, 30), pi_squared_over_18(40), 30)

    @pytest.mark.parametrize("z", [4, 5, -1, Fraction(-1, 2)])
    def test_domain(self, z):
        with pytest.raises(ValueError):
            central_binomial_sum(z, 10)

    def test_two_code_paths_one_constant(self, quartic_coupling):
        via_coupling, _ = certified_sum(ratio_certificate(quartic_coupling), 40)
        via_binomials = central_binomial_sum(2, 40)
        assert abs(exact_value(via_coupling) - via_binomials) <= 2 * Fraction(1, 10**40)

    def test_decimal_prefix(self):
        assert fraction_decimal(central_binomial_sum(2, 30), 20) == fraction_decimal(
            pi_squared_over_8(35), 20
        )
