import operator
from fractions import Fraction
from itertools import accumulate

import pytest

from gcf_forge import (
    BoundaryRuleViolation,
    Coupling,
    GcfProblem,
    Polynomial,
    check_boundary_selection,
    convergents,
    parse_const_expr,
    structural_walk,
    verify_conjecture,
)
from gcf_forge import factorize, gcf, poly, series, verify
from gcf_forge.numerics import agreement_digits
from gcf_forge.verify import INCONCLUSIVE, REFUTED_AT_DEPTH, VERIFIED

from oracles import close_to, eight_over_pi_squared, reference_convergents, terms

N = Polynomial.variable()


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
            structural_walk(shifted, 3, quartic_coupling)


class TestBoundaryAndCollapse:
    def test_boundary_rule_holds(self, quartic_problem, quartic_coupling):
        assert check_boundary_selection(quartic_problem, quartic_coupling)

    def test_boundary_rule_fails_when_perturbed(self, quartic_problem, quartic_coupling):
        assert not check_boundary_selection(
            perturbed(quartic_problem, 2), quartic_coupling
        )

    def test_boundary_rule_symmetric_case(self):
        problem = GcfProblem(b0=Fraction(1), a=-(N**2), b=2 * N + 1)
        assert check_boundary_selection(problem, Coupling(c=N, d=N))

    def test_numerator_product_full_depth(self, quartic_problem, quartic_coupling):
        products = accumulate((quartic_coupling.d(j) for j in range(1, 52)), operator.mul)
        assert [t.A for t in reference_convergents(quartic_problem, 50)] == list(products)
        report = verify_conjecture(quartic_problem, digits=10, depth=50)
        assert report.numerator_product_depth == 50

    def test_numerator_product_small_values(self, quartic_problem, quartic_coupling):
        d = quartic_coupling.d
        rows = convergents(quartic_problem, 1)
        assert rows[1].A == d(1) * d(2) == 6

    def test_numerator_product_perturbed_sentinel(
        self, quartic_problem, quartic_coupling
    ):
        # the product law fails already at n = 0, and the walk refuses the frame
        shifted = perturbed(quartic_problem, 2)
        assert convergents(shifted, 0)[0].A != quartic_coupling.d(1)
        with pytest.raises(BoundaryRuleViolation):
            structural_walk(shifted, 10, quartic_coupling)

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
            structural_walk(perturbed(quartic_problem, 2), 10, quartic_coupling)

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
        walk = structural_walk(quartic_problem, 64, quartic_coupling)
        assert walk.monotone
        assert agreement_digits(walk.halfway, walk.last, 30) >= 5

    def test_first_step_decreases(self, quartic_problem):
        rows = convergents(quartic_problem, 1)
        assert rows[0].x == 1 > rows[1].x == Fraction(6, 7)

    def test_requires_convergent_certificate(self):
        # c = d = n gives rho = 1: no certified series, so no verdict either way
        problem = GcfProblem(
            b0=Fraction(1), a=-(N**2), b=2 * N + 1, target=parse_const_expr("1")
        )
        report = verify_conjecture(problem, digits=10, depth=16)
        assert report.coupling == Coupling(c=N, d=N)
        assert report.classification == "inconclusive"
        assert report.series_value is None
        assert report.verdict == INCONCLUSIVE
        x_depth = reference_convergents(problem, 16)[-1].x
        assert close_to(report.gcf_value.to_fraction(), x_depth, 30)


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
        assert report.monotone_convergents
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
            b0=Fraction(1), a=Polynomial.constant(-1), b=Polynomial.constant(1)
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
            report.gcf_value.to_fraction(), eight_over_pi_squared(30), 20
        )

    def test_reciprocal_invariant(self, quartic_problem):
        report = verify_conjecture(quartic_problem, digits=20, depth=32)
        product = report.gcf_value.to_fraction() * report.series_value.to_fraction()
        assert abs(product - 1) <= Fraction(1, 2**100)

    def test_gcf_value_tracks_last_convergent(self, quartic_problem):
        depth = 64
        report = verify_conjecture(quartic_problem, digits=25, depth=depth)
        x_depth = reference_convergents(quartic_problem, depth)[-1].x
        gap = abs(report.gcf_value.to_fraction() - x_depth)
        tolerance = Fraction(1, 10**report.cauchy_digits) * max(1, abs(x_depth))
        assert gap <= tolerance

    def test_one_walk_per_call(self, quartic_problem, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return structural_walk(*args)

        monkeypatch.setattr(verify, "structural_walk", counted)
        verify_conjecture(quartic_problem, digits=10, depth=16)
        assert len(calls) == 1

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

    def test_parameter_preconditions(self, quartic_problem):
        with pytest.raises(ValueError):
            verify_conjecture(quartic_problem, digits=0, depth=32)
        with pytest.raises(ValueError):
            verify_conjecture(quartic_problem, digits=10, depth=3)
