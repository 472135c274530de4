import operator
from fractions import Fraction
from itertools import accumulate
from unittest.mock import patch

import mpmath
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from gcf_forge import (
    BoundaryRuleViolation,
    Coupling,
    GcfForgeError,
    GcfProblem,
    InvalidProblem,
    OnsetPastBudget,
    VerificationReport,
    check_boundary_selection,
    parse_const_expr,
    verify_conjecture,
)
from gcf_forge import factorize, gcf, poly, series, verify
from gcf_forge import parse_polynomial as P
from gcf_forge.verify import INCONCLUSIVE, REFUTED_AT_DEPTH, VERIFIED

from oracles import (
    agreement_digits_loop,
    close_to,
    convergent_frames,
    eight_over_pi_squared,
    exact_value,
    reference_convergents,
    terms,
)
from test_gcf import exact_coupled_walk
from test_series import convergent_couplings


def perturbed(problem: GcfProblem, b0) -> GcfProblem:
    return GcfProblem(b0=Fraction(b0), a=problem.a, b=problem.b)


def auxiliary_trace(problem, coupling, frame, depth) -> list[Fraction]:
    """w_k = y_k - d(k+1) y_{k-1}, k = 0..depth, on one frame's Fraction convergent rows."""
    rows = reference_convergents(problem, depth)
    if frame == "numerator":
        ys = [Fraction(1)] + [t.A for t in rows]
    else:
        ys = [Fraction(0)] + [t.B for t in rows]
    return [ys[k + 1] - coupling.d(k + 1) * ys[k] for k in range(depth + 1)]


def walk_calls(monkeypatch) -> dict[str, list]:
    """Record each walk verify runs: uncoupled walks, exact cascades and fixed-point passes."""
    calls = {"walks": [], "cascades": [], "passes": []}

    def counted(name, fn):
        def spy(*args):
            calls[name].append(args)
            return fn(*args)

        return spy

    monkeypatch.setattr(verify, "structural_walk", counted("walks", verify.structural_walk))
    monkeypatch.setattr(series, "cascade", counted("cascades", series.cascade))
    monkeypatch.setattr(series, "_fixed_point_pass", counted("passes", series._fixed_point_pass))
    return calls


def counts(calls: dict[str, list]) -> tuple[int, int, int]:
    return len(calls["walks"]), len(calls["cascades"]), len(calls["passes"])


def outcome(problem: GcfProblem, digits: int, depth: int):
    """The report, or the type and message of the error verify raised."""
    try:
        return verify_conjecture(problem, digits=digits, depth=depth)
    except GcfForgeError as exc:
        return type(exc), str(exc)


class TestAuxiliaryTrace:
    def test_numerator_trace_vanishes(self, quartic_problem, quartic_coupling):
        trace = auxiliary_trace(quartic_problem, quartic_coupling, "numerator", 50)
        assert all(value == 0 for value in trace)
        report = verify_conjecture(quartic_problem, digits=10, depth=50)
        assert report.numerator_product_depth == 50

    def test_denominator_trace_first_values(self, quartic_problem, quartic_coupling):
        trace = auxiliary_trace(quartic_problem, quartic_coupling, "denominator", 2)
        assert trace == [Fraction(1), Fraction(1), Fraction(4)]

    def test_denominator_trace_propagation(self, quartic_problem, quartic_coupling):
        # w_k = prod c(j) is the cascade behind B_n = S_n prod d(j)
        trace = auxiliary_trace(quartic_problem, quartic_coupling, "denominator", 50)
        c = quartic_coupling.c
        for k in range(1, 51):
            assert trace[k] == c(k) * trace[k - 1]
        report = verify_conjecture(quartic_problem, digits=10, depth=50)
        assert report.exact_identity_depth == 50

    def test_perturbed_frame_breaks_kernel(self, quartic_problem, quartic_coupling):
        shifted = perturbed(quartic_problem, quartic_coupling.d(1) + 1)
        assert auxiliary_trace(shifted, quartic_coupling, "numerator", 3)[0] == 1
        with pytest.raises(BoundaryRuleViolation):
            exact_coupled_walk(shifted, quartic_coupling, 3)


class TestBoundaryAndCollapse:
    def test_boundary_rule_holds(self, quartic_problem, quartic_coupling):
        assert check_boundary_selection(quartic_problem, quartic_coupling)

    def test_boundary_rule_fails_when_perturbed(self, quartic_problem, quartic_coupling):
        assert not check_boundary_selection(
            perturbed(quartic_problem, 2), quartic_coupling
        )

    def test_boundary_rule_symmetric_case(self):
        problem = GcfProblem(b0=Fraction(1), a=P("-n^2"), b=P("2*n + 1"))
        assert check_boundary_selection(problem, Coupling(c=P("n"), d=P("n")))

    def test_numerator_product_full_depth(self, quartic_problem, quartic_coupling):
        products = accumulate((quartic_coupling.d(j) for j in range(1, 52)), operator.mul)
        assert [t.A for t in reference_convergents(quartic_problem, 50)] == list(products)
        report = verify_conjecture(quartic_problem, digits=10, depth=50)
        assert report.numerator_product_depth == 50

    def test_numerator_product_small_values(self, quartic_problem, quartic_coupling):
        d = quartic_coupling.d
        _, (A, _) = convergent_frames(quartic_problem, 1)  # L = 1, so A'_1 = A_1
        assert A == d(1) * d(2) == 6

    def test_numerator_product_perturbed_sentinel(
        self, quartic_problem, quartic_coupling
    ):
        # the product law fails already at n = 0, and the walk refuses the frame
        shifted = perturbed(quartic_problem, 2)
        [(A, _)] = convergent_frames(shifted, 0)  # L = 1, so A'_0 = A_0
        assert A != quartic_coupling.d(1)
        with pytest.raises(BoundaryRuleViolation):
            exact_coupled_walk(shifted, quartic_coupling, 10)

    def test_reciprocal_identity_full_depth(self, quartic_problem, quartic_coupling):
        sums = accumulate(terms(quartic_coupling, 101))
        rows = reference_convergents(quartic_problem, 100)
        assert all(t.x * s == 1 for t, s in zip(rows, sums))
        report = verify_conjecture(quartic_problem, digits=10, depth=100)
        assert report.exact_identity_depth == 100

    def test_reciprocal_identity_requires_boundary(
        self, quartic_problem, quartic_coupling
    ):
        with pytest.raises(BoundaryRuleViolation):
            exact_coupled_walk(perturbed(quartic_problem, 2), quartic_coupling, 10)

    def test_casoratian_recursion_depth(self, quartic_problem):
        assert verify_conjecture(quartic_problem, digits=10, depth=100).casoratian_depth == 100

    def test_trace_and_product_agree(self, quartic_problem, quartic_coupling):
        # two views of the same collapse: zero trace iff product law holds
        trace = auxiliary_trace(quartic_problem, quartic_coupling, "numerator", 40)
        products = accumulate((quartic_coupling.d(j) for j in range(1, 42)), operator.mul)
        collapsed = [t.A for t in reference_convergents(quartic_problem, 40)] == list(products)
        assert all(value == 0 for value in trace) == collapsed


class TestPincherleEvidence:
    def test_monotone_decreasing(self, quartic_problem, quartic_coupling):
        monotone, cauchy, _ = exact_coupled_walk(quartic_problem, quartic_coupling, 64)
        assert monotone
        assert cauchy >= 5

    def test_first_step_decreases(self, quartic_problem):
        (A_0, B_0), (A_1, B_1) = convergent_frames(quartic_problem, 1)
        assert Fraction(A_0, B_0) == 1 > Fraction(A_1, B_1) == Fraction(6, 7)

    def test_requires_convergent_certificate(self):
        # c = d = n gives rho = 1: no certified series, so no verdict either way
        problem = GcfProblem(
            b0=Fraction(1), a=P("-n^2"), b=P("2*n + 1"), target=parse_const_expr("1")
        )
        report = verify_conjecture(problem, digits=10, depth=16)
        assert report.coupling == Coupling(c=P("n"), d=P("n"))
        assert report.classification == "inconclusive"
        assert report.series_value is None
        assert report.verdict == INCONCLUSIVE
        x_depth = reference_convergents(problem, 16)[-1].x
        assert close_to(exact_value(report.gcf_value), x_depth, 30)


class TestVerifyConjecture:
    def test_verified(self, quartic_a, quartic_b):
        problem = GcfProblem(
            b0=Fraction(1),
            a=quartic_a,
            b=quartic_b,
            target=parse_const_expr("8/pi^2"),
        )
        report = verify_conjecture(problem, digits=30, depth=64)
        assert report.verdict == VERIFIED
        assert report.digits_matched == 30
        assert report.rho == Fraction(1, 2)
        assert report.classification == "convergent"
        assert report.boundary_rule_holds
        assert report.exact_identity_depth == 64
        assert report.numerator_product_depth == 64
        assert report.casoratian_depth == 64
        # the certified sum proves the limit, so no convergent is walked
        assert (report.monotone_convergents, report.cauchy_digits) == (None, None)
        assert report.other_couplings == ()

    def test_wrong_target_refuted_at_depth(self, quartic_a, quartic_b):
        problem = GcfProblem(
            b0=Fraction(1),
            a=quartic_a,
            b=quartic_b,
            target=parse_const_expr("pi^2/8"),
        )
        report = verify_conjecture(problem, digits=30, depth=64)
        assert report.verdict == REFUTED_AT_DEPTH
        assert report.digits_matched == 0

    def test_no_coupling_inconclusive(self):
        problem = GcfProblem(
            b0=Fraction(1), a=P("-1"), b=P("1")
        )
        report = verify_conjecture(problem, digits=10, depth=12)
        assert report.verdict == INCONCLUSIVE
        assert report.coupling is None
        assert report.series_value is None

    def test_no_target_inconclusive_with_value(self, quartic_problem):
        report = verify_conjecture(quartic_problem, digits=20, depth=32)
        assert report.verdict == INCONCLUSIVE
        assert report.digits_matched is None
        assert report.series_value is not None
        assert close_to(
            exact_value(report.gcf_value), eight_over_pi_squared(30), 20
        )

    def test_reciprocal_invariant(self, quartic_problem):
        report = verify_conjecture(quartic_problem, digits=20, depth=32)
        product = exact_value(report.gcf_value) * exact_value(report.series_value)
        assert abs(product - 1) <= Fraction(1, 2**100)

    def test_gcf_value_tracks_last_convergent(self, quartic_problem):
        depth = 64
        report = verify_conjecture(quartic_problem, digits=25, depth=depth)
        xs = [row.x for row in reference_convergents(quartic_problem, depth)]
        x_depth, cauchy = xs[-1], agreement_digits_loop(xs[(depth + 1) // 2], xs[-1], 25)
        gap = abs(exact_value(report.gcf_value) - x_depth)
        tolerance = Fraction(1, 10**cauchy) * max(1, abs(x_depth))
        assert gap <= tolerance

    def test_one_walk_per_call(self, quartic_problem, monkeypatch):
        # each job steps one recurrence once: a convergent job in the fixed-point
        # pass, an uncoupled one in the exact three-term walk, a rho = 1 one in
        # the exact cascade, and a pass that gives up (8 working bits) in one
        # pass and then one cascade
        calls = walk_calls(monkeypatch)
        uncoupled = GcfProblem(b0=Fraction(1), a=P("-1"), b=P("1"))
        rho_one = GcfProblem(b0=Fraction(1), a=P("-n^2"), b=P("2*n + 1"))
        for problem, expected in [
            (quartic_problem, (0, 0, 1)),
            (uncoupled, (1, 0, 0)),
            (rho_one, (0, 1, 0)),
        ]:
            for found in calls.values():
                found.clear()
            verify_conjecture(problem, digits=10, depth=16)
            assert counts(calls) == expected
        for found in calls.values():
            found.clear()
        monkeypatch.setattr(series, "working_precision", lambda digits: 8)
        verify_conjecture(quartic_problem, digits=10, depth=32)
        assert counts(calls) == (0, 1, 1)

    def test_last_frame_is_never_reduced(self, monkeypatch):
        # with no sum, the deepest convergent is the reported value: at depth
        # 4000 its frame has tens of thousands of bits, and it reaches the
        # rounding as an unreduced int pair, not as a Fraction built from it
        built = []
        new = Fraction.__new__

        def spy(cls, numerator=0, denominator=None, **kwargs):
            built.extend(
                x.bit_length() for x in (numerator, denominator)
                if isinstance(x, int) and x.bit_length() > 10_000
            )
            return new(cls, numerator, denominator, **kwargs)

        uncoupled = GcfProblem(b0=Fraction(2), a=P("-(n^2 + 2)"), b=P("3*n + 1"))
        rho_one = GcfProblem(b0=Fraction(1), a=P("-2*n^2*(2*n^2 - n)"), b=P("4*n^2 + 3*n + 1"))
        monkeypatch.setattr(Fraction, "__new__", staticmethod(spy))
        for problem in (uncoupled, rho_one):
            report = verify_conjecture(problem, digits=30, depth=4000)
            assert report.series_value is None and report.gcf_value is not None
        assert built == []

    def test_one_factorization_per_call(self, quartic_a, quartic_b, monkeypatch):
        # building the problem factors -a; the coupling search reads that result
        calls = []
        factor_rational = poly.factor_rational

        def counted(p):
            calls.append(p)
            return factor_rational(p)

        for module in (gcf, factorize, poly):
            monkeypatch.setattr(module, "factor_rational", counted)
        problem = GcfProblem(b0=Fraction(1), a=quartic_a, b=quartic_b)
        report = verify_conjecture(problem, digits=10, depth=16)
        assert report.terms_used is not None
        assert calls == [-problem.a]

    def test_one_certificate_per_call(self, quartic_problem, monkeypatch):
        # the summation reads the certificate verify built; it builds none itself
        calls = []
        ratio_certificate = series.ratio_certificate

        def counted(coupling):
            calls.append(coupling)
            return ratio_certificate(coupling)

        monkeypatch.setattr(verify, "ratio_certificate", counted)
        monkeypatch.setattr(series, "ratio_certificate", counted)
        report = verify_conjecture(quartic_problem, digits=10, depth=16)
        assert report.terms_used is not None
        assert calls == [report.coupling]

    # gcf_value is the reciprocal of a prefix sum stopped at a tail of
    # 1/2 10^-40, which puts it about 9.5e-42 above 8/pi^2; a target within
    # that distance of a digit boundary is counted on the wrong side of it
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    @pytest.mark.parametrize(
        "target,verdict,digits",
        [
            ("8/pi^2 + 1/10^30 + 1/10^42", REFUTED_AT_DEPTH, 29),
            ("8/pi^2 - 1/10^30 + 1/10^42", VERIFIED, 30),
        ],
        ids=["above", "below"],
    )
    def test_verdict_near_digit_boundary(self, quartic_a, quartic_b, target, verdict, digits):
        problem = GcfProblem(
            b0=Fraction(1), a=quartic_a, b=quartic_b, target=parse_const_expr(target)
        )
        report = verify_conjecture(problem, digits=30, depth=256)
        assert (report.verdict, report.digits_matched) == (verdict, digits)

    def test_uncertain_pass_falls_back_to_exact_walk(self, quartic_problem, monkeypatch):
        # 8 working bits cannot decide a stop near 10^-20, so the pass gives up
        # and one exact pass walks and sums, with the same report as with no pass at all
        monkeypatch.setattr(series, "working_precision", lambda digits: 8)
        calls = walk_calls(monkeypatch)
        report = verify_conjecture(quartic_problem, digits=10, depth=32)
        assert calls["passes"] and calls["cascades"]
        monkeypatch.setattr(series, "_fixed_point_pass", lambda *args: None)
        assert verify_conjecture(quartic_problem, digits=10, depth=32) == report

    @pytest.mark.parametrize(
        "c,d,scale",
        [(P("-8"), P("2*n^2"), 8), (P("-2"), P("n^2/2"), 2)],
        ids=["vanishing", "scaled_vanishing"],
    )
    def test_vanishing_partial_sum_against_a_bessel_oracle(self, c, d, scale):
        # c = -8, d = 2n^2 gives t_k = (-4)^k / (2 ((k+1)!)^2), so S_1 = 1/2 - 1/2 = 0 and
        # S = -(J_0(4) - 1)/8 from J_0(x) = sum (-x^2/4)^m / (m!)^2; c = -2, d = n^2/2 gives
        # 4 t_k. The GCF is scale/(1 - J_0(4)) whatever S_1, checked against mpmath's
        # Bessel function, which shares nothing with the cascade, at twice the precision
        problem = GcfProblem(b0=d(1), a=-(c * d), b=c + d.shift(1))
        report = verify_conjecture(problem, digits=30, depth=16)
        assert (report.coupling, report.classification) == (Coupling(c=c, d=d), "convergent")
        with mpmath.workprec(2 * report.gcf_value.precision_bits):
            expected = scale / (1 - mpmath.besselj(0, 4))
            assert abs(report.gcf_value.value - expected) <= expected * mpmath.mpf(10) ** -30
        if scale == 8:
            assert report.gcf_value.to_decimal(30).startswith("5.72594287564595679876")

    def test_far_onset_refused_before_any_term(self, monkeypatch):
        # c = n + 10^9, d = 2n: rho = 1/2, but the terms grow for about 10^9 indices and
        # the certified onset is about 2 10^9, so the job is refused before either pass
        # forms a term
        problem = GcfProblem(
            b0=Fraction(2), a=P("-2*n*(n + 1000000000)"), b=P("3*n + 1000000002")
        )

        def barred(*args):
            raise AssertionError("a term was formed")

        monkeypatch.setattr(series, "integer_values", barred)
        monkeypatch.setattr(series, "cascade", barred)
        with pytest.raises(OnsetPastBudget) as err:
            verify_conjecture(problem, digits=20, depth=256)
        assert err.value.onset == 1999999998 > series.ONSET_BUDGET

    def test_parameter_preconditions(self, quartic_problem):
        with pytest.raises(ValueError):
            verify_conjecture(quartic_problem, digits=0, depth=32)
        with pytest.raises(ValueError):
            verify_conjecture(quartic_problem, digits=10, depth=3)


@settings(max_examples=60, deadline=None)
@given(coupling=convergent_couplings(), depth=st.integers(4, 300), digits=st.integers(1, 100))
@example(Coupling(c=P("-8"), d=P("2*n^2")), 16, 10)  # B_1 = 0
@example(Coupling(c=P("-n"), d=P("2*n")), 40, 30)  # alternating terms: not monotone
def test_pass_matches_exact_walk(coupling, depth, digits):
    # the Euler problem of a convergent coupling; verify may pick another coupling
    c, d = coupling.c, coupling.d
    try:
        problem = GcfProblem(b0=d(1), a=-(c * d), b=c + d.shift(1))
    except InvalidProblem:
        reject()
    report = outcome(problem, digits, depth)
    with patch.object(series, "_fixed_point_pass", lambda *args: None):
        assert outcome(problem, digits, depth) == report
    if isinstance(report, VerificationReport) and report.classification == "convergent":
        assert (report.monotone_convergents, report.cauchy_digits) == (None, None)
    elif isinstance(report, VerificationReport):  # verify picked a coupling without a sum
        xs = [row.x for row in reference_convergents(problem, depth)]
        monotone = None not in xs and all(x > y for x, y in zip(xs, xs[1:]))
        halfway, last = xs[(depth + 1) // 2], xs[depth]
        cauchy = 0 if None in (halfway, last) else agreement_digits_loop(halfway, last, digits)
        assert (report.monotone_convergents, report.cauchy_digits) == (monotone, cauchy)
