import operator
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gcf_forge import (
    BoundaryRuleViolation,
    Coupling,
    GcfProblem,
    InvalidProblem,
    Polynomial,
    ZeroDenominatorConvergent,
    ratio_certificate,
    structural_walk,
    verify_conjecture,
)
from gcf_forge import parse_polynomial as P
from gcf_forge import series
from gcf_forge.gcf import _scale, check_coupling

from oracles import (
    ConvergentTriple,
    agreement_digits_loop,
    certified_sum,
    convergent_frames,
    polynomial,
    reference_convergents,
    reference_partial_sums,
)
from test_series import convergent_couplings


def cross_products(frames: list[tuple]) -> list:
    """W_n = A_n B_{n-1} - A_{n-1} B_n for n = 0..len(frames)-1 from (A_n, B_n), by definition."""
    frames = [(1, 0), *frames]
    return [A * B_prev - A_prev * B for (A_prev, B_prev), (A, B) in zip(frames, frames[1:])]


def reference_frames(problem, depth: int) -> list[tuple]:
    """(A_n, B_n) for n = 0..depth from the Fraction reference."""
    return [(t.A, t.B) for t in reference_convergents(problem, depth)]


def reference_walk(rows: list[ConvergentTriple], coupling=None, cap: int = 30):
    """A walk's (monotone, cauchy digits, last) at depth len(rows) - 1, from the convergent rows.

    The cauchy digits compare x_h, h = (depth + 1) // 2, with x_depth (0 when either is
    undefined), and last is the deepest defined x_n. With a coupling, the rows must also
    show what the walk takes from the operator factorization, A_n = prod d(j) and
    x_n S_n = 1, at every index.
    """
    depth = len(rows) - 1
    xs = [t.x for t in rows]
    if coupling is not None:
        products = accumulate((coupling.d(j) for j in range(1, depth + 2)), operator.mul)
        for t, p, s in zip(rows, products, reference_partial_sums(coupling, depth + 1)):
            if t.x is None:
                raise ZeroDenominatorConvergent(t.n)
            if t.A != p or t.x * s != 1:
                raise AssertionError(f"the coupling does not collapse the rows at n = {t.n}")
    halfway, last = xs[(depth + 1) // 2], xs[-1]
    return (
        None not in xs and all(p > q for p, q in zip(xs, xs[1:])),
        0 if None in (halfway, last) else agreement_digits_loop(halfway, last, cap),
        next(x for x in reversed(xs) if x is not None),
    )


def reduced_last(result: tuple) -> tuple:
    """A walk's result with its last item, an unreduced int pair or None, read as a Fraction."""
    *head, last = result
    return (*head, None if last is None else Fraction(*last))


def exact_coupled_walk(problem, coupling, depth, cap=30):
    """check_coupling, then the cascade's walk of the convergents x_n = 1/S_n to depth."""
    check_coupling(problem, coupling)
    return series.coupled_walk(coupling, depth, cap)


def exact_sum(certificate, digits, depth):
    """sum_to_precision with the fixed-point pass off: the exact sum alone."""
    with patch.object(series, "_fixed_point_pass", lambda *args: None):
        return series.sum_to_precision(certificate, digits, depth)


def brute_force_frames(b0, a_of, b_of, depth):
    """Hand iteration of y_n = b(n) y_{n-1} + a(n) y_{n-2} for both frames."""
    A_prev, A = Fraction(1), Fraction(b0)
    B_prev, B = Fraction(0), Fraction(1)
    rows = [(A, B)]
    for n in range(1, depth + 1):
        A_prev, A = A, Fraction(b_of(n)) * A + Fraction(a_of(n)) * A_prev
        B_prev, B = B, Fraction(b_of(n)) * B + Fraction(a_of(n)) * B_prev
        rows.append((A, B))
    return rows


class TestConvergents:
    """The program's frames (A'_n, B'_n) = L^(n+1) (A_n, B_n); the quartic has L = 1."""

    def test_first_three_rows(self, quartic_problem):
        assert convergent_frames(quartic_problem, 2) == [(1, 1), (6, 7), (90, 109)]

    def test_matches_hand_iteration_to_depth_50(self, quartic_problem):
        oracle = brute_force_frames(
            1, lambda n: -(2 * n**4 - n**3), lambda n: 3 * n**2 + 3 * n + 1, 50
        )
        assert convergent_frames(quartic_problem, 50) == oracle

    def test_both_frames_satisfy_shared_recurrence(self, quartic_problem):
        a, b = quartic_problem.a, quartic_problem.b
        rows = convergent_frames(quartic_problem, 40)
        for minus_one, ys in ((1, [A for A, _ in rows]), (0, [B for _, B in rows])):
            window = [minus_one] + ys
            for n in range(1, len(ys)):
                assert window[n + 1] == b(n) * window[n] + a(n) * window[n - 1]

    def test_depth_zero(self, quartic_problem):
        [(A, B)] = convergent_frames(quartic_problem, 0)
        assert Fraction(A, B) == quartic_problem.b0

    def test_zero_denominator_is_reported_not_fatal(self):
        # b0=1, a=-1, b=1 cycles with period 6 and hits B_n = 0
        problem = GcfProblem(
            b0=Fraction(1), a=P("-1"), b=P("1")
        )
        rows = convergent_frames(problem, 12)
        missing = [n for n, (_, B) in enumerate(rows) if B == 0]
        assert missing, "expected at least one vanishing denominator"
        assert len(rows) == 13  # the stream went on past the zero


class TestProblemValidation:
    def test_zero_numerator_polynomial(self):
        with pytest.raises(InvalidProblem):
            GcfProblem(b0=Fraction(1), a=Polynomial([]), b=P("1"))

    def test_numerator_vanishing_at_positive_integer(self):
        with pytest.raises(InvalidProblem):
            GcfProblem(b0=Fraction(1), a=P("n - 3"), b=P("1"))

    def test_half_root_is_fine(self, quartic_problem):
        # a = -(2n^4 - n^3) vanishes only at n = 0 and n = 1/2
        assert quartic_problem.a(1) != 0


class TestCasoratian:
    """W_n from the definition on convergents, the law the walk's sign bit reads."""

    def test_initial_value(self, quartic_problem):
        assert cross_products(convergent_frames(quartic_problem, 0)) == [-1]
        assert cross_products(reference_frames(quartic_problem, 0)) == [-1]

    def test_first_values(self, quartic_problem):
        w = cross_products(convergent_frames(quartic_problem, 2))
        assert w == [-1, -1, -24]

    def test_determinant_recursion_to_100(self, quartic_problem):
        w = cross_products(convergent_frames(quartic_problem, 100))
        a = quartic_problem.a
        for n in range(1, 101):
            assert w[n] == -a(n) * w[n - 1]
        assert verify_conjecture(quartic_problem, digits=10, depth=100).casoratian_depth == 100

    def test_never_vanishes(self, quartic_problem):
        assert all(value != 0 for value in cross_products(convergent_frames(quartic_problem, 100)))

    def test_matches_definition_from_convergents(self, quartic_problem):
        # x_{n-1} - x_n = -W_n / (B_{n-1} B_n): the sign the walk reads
        rows = convergent_frames(quartic_problem, 30)
        w = cross_products(rows)
        xs = [Fraction(A, B) for A, B in rows]
        for n in range(1, 31):
            assert xs[n - 1] - xs[n] == Fraction(-w[n], rows[n - 1][1] * rows[n][1]) > 0
        assert structural_walk(quartic_problem, 30, 30)[0]  # monotone


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def euler_couplings(draw) -> Coupling:
    """c, d of degree <= 2 with rational coefficients and nonzero leads."""

    def side():
        lower = draw(st.lists(rationals, max_size=2))
        lead = draw(rationals.filter(lambda q: q != 0))
        return polynomial(lower + [lead])

    return Coupling(c=side(), d=side())


def euler_problem(coupling: Coupling) -> GcfProblem:
    """a = -c d, b = c + d(n+1), b0 = d(1); rejects a(n) = 0 for some n >= 1."""
    c, d = coupling.c, coupling.d
    try:
        return GcfProblem(b0=d(1), a=-(c * d), b=c + d.shift(1))
    except InvalidProblem:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(euler_couplings(), st.integers(min_value=0, max_value=40))
@example(Coupling(c=P("n/2"), d=P("n + 1/3")), 40)
def test_convergents_match_fraction_reference(coupling, depth):
    # rational coefficients make the frame scale L > 1, so each int frame is
    # L^(n+1) times the reference's (A_n, B_n)
    problem = euler_problem(coupling)
    L = _scale(problem)
    frames, reference = convergent_frames(problem, depth), reference_frames(problem, depth)
    assert len(frames) == len(reference) == depth + 1
    for n, ((A, B), (A_n, B_n)) in enumerate(zip(frames, reference)):
        assert (A, B) == (A_n * L ** (n + 1), B_n * L ** (n + 1))


class TestStructuralWalk:
    @settings(max_examples=40, deadline=None)
    @given(
        euler_couplings(),
        st.sampled_from([0, 1, 2, 5, 20]),
        st.sampled_from(["cd", "c", "d", "d-only-f"]),
    )
    @example(Coupling(c=P("n^2"), d=P("2*n^2 - n")), 1, "c")
    @example(Coupling(c=P("n^2"), d=P("2*n^2 - n")), 1, "d")
    @example(Coupling(c=P("n^2"), d=P("2*n^2 - n")), 5, "c")
    @example(Coupling(c=P("n^2"), d=P("2*n^2 - n")), 2, "d-only-f")
    # a(1) > 0 and a(2) > 0, with x_n still decreasing: the sign bit of W_n
    # flips there, with and without the coupling
    @example(Coupling(c=P("-n/2"), d=P("3 - 2*n")), 0, "cd")
    @example(Coupling(c=P("5/2 - n"), d=P("3 - 2*n")), 0, "cd")
    def test_matches_fraction_reference(self, coupling, agree, bumped):
        # agree > 0 hands the walk a coupling that matches the problem's only
        # up to index agree. It fails the polynomial identity, so check_coupling
        # refuses it at every depth. Bumping c alone breaks the sum identity;
        # bumping d breaks both, and d-only-f lowers c by the bump at n + 1
        # so that c + d(n+1) = b still holds and only c d = -a fails
        problem = euler_problem(coupling)
        if agree:
            bump, zero = P(" * ".join(f"(n - {i})" for i in range(1, agree + 1))), Polynomial([])
            c_bump = {"cd": bump, "c": bump, "d": zero, "d-only-f": -bump.shift(1)}[bumped]
            d_bump = zero if bumped == "c" else bump
            coupling = Coupling(c=coupling.c + c_bump, d=coupling.d + d_bump)
        table = reference_convergents(problem, 40)
        certificate = ratio_certificate(coupling)
        if not agree and certificate.classification == "convergent":
            summed = certified_sum(certificate, 10)  # the fixed-point pass, if it decides
        for depth in range(41):
            rows = table[: depth + 1]
            assert reduced_last(structural_walk(problem, depth, 30)) == reference_walk(rows)
            if agree:
                with pytest.raises(ValueError, match="does not give"):
                    exact_coupled_walk(problem, coupling, depth)
                continue
            try:
                monotone, cauchy, last = reference_walk(rows, coupling)
            except ZeroDenominatorConvergent as err:
                with pytest.raises(ZeroDenominatorConvergent) as got:
                    exact_coupled_walk(problem, coupling, depth)
                assert got.value.index == err.index
                continue
            walked = reduced_last(exact_coupled_walk(problem, coupling, depth))
            assert walked == (monotone, cauchy, last)
            if certificate.classification == "convergent":  # no S_n with n <= depth vanishes
                assert exact_sum(certificate, 10, depth) == summed

    def test_flagship_deep_pin(self, quartic_problem, quartic_coupling):
        sums = reference_partial_sums(quartic_coupling, 1501)
        monotone, cauchy, (D, T) = exact_coupled_walk(quartic_problem, quartic_coupling, 1500)
        assert monotone
        assert cauchy == agreement_digits_loop(1 / sums[750], 1 / sums[1500], 30)
        assert Fraction(D, T) == 1 / sums[1500]
        report = verify_conjecture(quartic_problem, digits=10, depth=1500)
        assert report.exact_identity_depth == 1500
        assert report.numerator_product_depth == 1500
        assert report.casoratian_depth == 1500
        assert report.monotone_convergents is None  # a convergent series is summed, not walked

    def test_period_six_zero_denominators(self):
        # b0 = 1, a = -1, b = 1: B_n = 0 at n = 2, 5, 8, 11
        problem = GcfProblem(
            b0=Fraction(1), a=P("-1"), b=P("1")
        )
        rows = reference_convergents(problem, 11)
        walk = reduced_last(structural_walk(problem, 11, 30))
        assert walk == reference_walk(rows)
        assert rows[11].x is None  # so x_11 has no cauchy digits and x_10 is the last
        assert walk == (False, 0, rows[10].x)
        report = verify_conjecture(problem, digits=10, depth=11)
        assert report.coupling is None
        assert report.exact_identity_depth is None and report.numerator_product_depth is None
        assert report.casoratian_depth is None

    def test_perturbed_b0_violates_boundary_rule(self, quartic_problem, quartic_coupling):
        shifted = GcfProblem(
            b0=quartic_problem.b0 + Fraction(1, 3), a=quartic_problem.a, b=quartic_problem.b
        )
        with pytest.raises(BoundaryRuleViolation):
            exact_coupled_walk(shifted, quartic_coupling, 10)

    def test_vanishing_partial_sum_is_a_zero_denominator(self):
        # c = -n, d = 1: S_1 = 1 - 1 = 0, so B_1 = S_1 * d(1) d(2) = 0
        coupling = Coupling(c=P("-n"), d=P("1"))
        problem = euler_problem(coupling)
        with pytest.raises(ZeroDenominatorConvergent) as err:
            reference_walk(reference_convergents(problem, 5), coupling)
        assert err.value.index == 1
        with pytest.raises(ZeroDenominatorConvergent) as err:
            exact_coupled_walk(problem, coupling, 5)
        assert err.value.index == 1

    def test_non_coupling_is_a_caller_error(self, quartic_problem):
        # b0 = d(1) holds, but c(n) + d(n+1) misses b(n) by n - 1
        with pytest.raises(ValueError, match="does not give"):
            exact_coupled_walk(quartic_problem, Coupling(c=P("n^2 + n - 1"), d=P("2*n^2 - n")), 10)

    def test_negative_depth_rejected(self, quartic_problem):
        with pytest.raises(ValueError):
            structural_walk(quartic_problem, -1, 30)


class Deferred(Exception):
    """The fixed-point pass left a decision to the exact pass."""


def fixed_point_sum(certificate, digits, depth):
    """sum_to_precision with the exact pass barred, so the fixed-point pass must decide alone."""

    def barred(coupling):
        raise Deferred

    with patch.object(series, "cascade", barred):
        return series.sum_to_precision(certificate, digits, depth)


class TestLeanTail:
    """Past the switch the fixed-point pass sums under a constant error bound."""

    @pytest.mark.parametrize(
        "coupling,digits",
        [
            (Coupling(c=P("-n"), d=P("2*n")), 12),  # rho = -1/2: the terms alternate
            (Coupling(c=P("-n^2"), d=P("2*n^2 - n")), 60),  # rho = -1/2
            (Coupling(c=P("30*n"), d=P("n^2 + 1")), 12),  # growing: the terms rise before they decay
            (Coupling(c=P("30*n"), d=P("n^2 + 1")), 60),
            # wide: onset 32 far past the poles; rho = 0 stops there below ~100 digits
            (Coupling(c=P("3"), d=P("n*(n + 10)")), 300),
        ],
        ids=["alternating", "negative-rho", "growing-12", "growing-60", "wide"],
    )
    def test_matches_exact_pass_around_the_onset_and_stop(self, coupling, digits):
        certificate = ratio_certificate(coupling)
        onset = series._stop_rule(certificate, digits)[0]
        stop = certified_sum(certificate, digits)[1] - 1
        assert onset + 1 < stop
        # the depth moves the switch: at the onset + 1, at the depth, or where S_k settles
        for depth in (0, onset, onset + 1, onset + 2, stop - 1, stop, stop + 7):
            summed = fixed_point_sum(certificate, digits, depth)
            assert summed == exact_sum(certificate, digits, depth)


@settings(max_examples=200, deadline=None)
@given(coupling=convergent_couplings(), digits=st.integers(1, 60), depth=st.integers(0, 400))
def test_fixed_point_pass_matches_exact_pass(coupling, digits, depth):
    certificate = ratio_certificate(coupling)
    try:
        summed = fixed_point_sum(certificate, digits, depth)
    except Deferred:
        assume(False)
    assert summed == exact_sum(certificate, digits, depth)


def test_stop_on_the_threshold_in_the_per_term_loop_defers():
    # c = n + m and d = 2 (n + m - 1) make the terms geometric, t_k = 2^-(k+1) / m. With
    # m = 3 5^10 / 2^20, t_30 is exactly the stop threshold q / budget = 1 / (6 10^10) of a
    # 10-digit sum, and 30 is the onset: the per-term loop, which runs through the onset,
    # meets that stop, and the floor errors around u_30 leave it undecided, so the pass defers
    m = Fraction(3 * 5**10, 2**20)
    coupling = Coupling(c=polynomial([m, 1]), d=polynomial([2 * (m - 1), 2]))
    certificate = ratio_certificate(coupling)
    onset, budget, q, *_ = series._stop_rule(certificate, 10)
    assert onset == 30
    assert budget * (Fraction(1, 2**31) / m) == q
    for depth in (0, 40):
        with pytest.raises(Deferred):
            fixed_point_sum(certificate, 10, depth)
        summed = series.sum_to_precision(certificate, 10, depth)
        assert summed == exact_sum(certificate, 10, depth)
        assert summed[1] == 31  # the exact pass stops on the threshold: |t_30| <= q / budget


def terms_drawn(monkeypatch) -> list[int]:
    """Count the values the series module draws from integer_values, in a one-item list."""
    drawn = [0]
    integer_values = series.integer_values

    def counted(p, scale):
        for value in integer_values(p, scale):
            drawn[0] += 1
            yield value

    monkeypatch.setattr(series, "integer_values", counted)
    return drawn


def test_convergent_report_does_not_depend_on_the_depth(quartic_problem, monkeypatch):
    # a convergent job sums to its stop and walks no convergent: past the depths the report
    # echoes, it is the same at any depth, and it draws the same coefficient values
    drawn = terms_drawn(monkeypatch)
    echoed = dict(depth=0, exact_identity_depth=0, numerator_product_depth=0, casoratian_depth=0)
    seen = []
    for depth in (4, 250, 10**7):
        drawn[0] = 0
        report = verify_conjecture(quartic_problem, digits=30, depth=depth)
        seen.append((replace(report, **echoed), drawn[0]))
    assert seen[0] == seen[1] == seen[2]
    report, _ = seen[0]
    assert (report.monotone_convergents, report.cauchy_digits) == (None, None)
    assert report.verdict == "inconclusive" and report.terms_used is not None
