"""End-to-end pipeline: couple, decouple, certify, sum, compare.

Given a problem, the pipeline finds a coupling and confirms the boundary
selection rule b0 = d(1). The coupling is checked once as a polynomial
identity, which proves the structural identities at every depth. The
convergents are then x_n = 1/S_n exactly, so for a convergent series a
certified sum S != 0 proves the limit 1/S, whatever finitely many S_n
vanish: the pipeline sums the series without a depth, walks no convergent,
and compares 1/S to the target. Only a problem whose coupling gives no
convergent series, or that has no coupling, walks its convergents to the
depth, and reports the deepest defined one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expr import const_expr_to_text, eval_const_expr
from .factorize import Coupling, find_couplings
from .gcf import GcfProblem, check_boundary_selection, check_coupling, structural_walk
from .numerics import (
    PrecisionReal,
    matched_digits,
    rational_to_real,
    real_reciprocal,
    working_precision,
)
from .series import CONVERGENT, coupled_walk, ratio_certificate, sum_to_precision

VERIFIED = "verified"
REFUTED_AT_DEPTH = "refuted-at-depth"
INCONCLUSIVE = "inconclusive"

#: extra decimal digits carried internally so that agreement at the
#: requested digit count is not starved by the summation's own budget
DIGIT_MARGIN = 10


@dataclass(frozen=True)
class VerificationReport:
    """Machine-readable outcome of the full pipeline for one problem."""

    problem: dict
    coupling: Coupling | None
    other_couplings: tuple[Coupling, ...]
    boundary_rule_holds: bool
    exact_identity_depth: int | None
    numerator_product_depth: int | None
    casoratian_depth: int | None
    rho: Fraction | None
    classification: str | None
    series_value: PrecisionReal | None
    gcf_value: PrecisionReal | None
    target_value: PrecisionReal | None
    digits_matched: int | None
    monotone_convergents: bool | None  # None for a convergent series: 1/S is the limit
    cauchy_digits: int | None
    terms_used: int | None
    digits_requested: int
    depth: int
    verdict: str


def _problem_echo(problem: GcfProblem, name: str | None) -> dict:
    return {
        "name": name,
        "b0": str(problem.b0),
        "a": problem.a.to_text(),
        "b": problem.b.to_text(),
        "target": None if problem.target is None else const_expr_to_text(problem.target),
    }


def verify_conjecture(
    problem: GcfProblem, digits: int, depth: int, name: str | None = None
) -> VerificationReport:
    """Run the whole pipeline and fill a report.

    verified: the structural identities are proved as polynomial identities, and the
    reciprocal of the certified sum matches the target to >= digits.
    refuted-at-depth: the pipeline produced a certified value that misses
    the target at the tested precision (a finite-precision statement).
    inconclusive: no coupling in the search space, no boundary-compatible
    coupling, a non-convergent certificate, or no target to compare.
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    if depth < 4:
        raise ValueError("depth must be at least 4")

    bits = working_precision(digits + DIGIT_MARGIN)
    couplings = find_couplings(problem.a, problem.b, problem.minus_a)
    eligible = [cp for cp in couplings if check_boundary_selection(problem, cp)]
    target_value = (
        eval_const_expr(problem.target, bits) if problem.target is not None else None
    )
    coupling = eligible[0] if eligible else None
    certificate = ratio_certificate(coupling) if coupling is not None else None
    convergent = certificate is not None and certificate.classification == CONVERGENT

    if coupling is not None:
        check_coupling(problem, coupling)  # the identities then hold at every depth
    if convergent:
        series_value, terms_used = sum_to_precision(certificate, digits + DIGIT_MARGIN)
        gcf_value = real_reciprocal(series_value)
        monotone = cauchy_digits = None
    else:
        # no usable series: report the deepest defined convergent instead
        series_value = terms_used = None
        if coupling is None:
            monotone, cauchy_digits, last = structural_walk(problem, depth, digits)
        else:
            monotone, cauchy_digits, last = coupled_walk(coupling, depth, digits)
        gcf_value = rational_to_real(last, bits)

    digits_matched = None
    if target_value is not None:
        digits_matched = matched_digits(gcf_value, target_value, digits)

    if problem.target is not None and convergent:
        verdict = VERIFIED if digits_matched >= digits else REFUTED_AT_DEPTH
    else:
        verdict = INCONCLUSIVE

    # the coupling passed check_coupling, so the identities hold at every n <= depth
    proved = depth if coupling is not None else None
    return VerificationReport(
        problem=_problem_echo(problem, name),
        coupling=coupling,
        other_couplings=tuple(cp for cp in couplings if cp != coupling),
        boundary_rule_holds=coupling is not None,
        exact_identity_depth=proved,
        numerator_product_depth=proved,
        casoratian_depth=proved,
        rho=certificate.rho if certificate is not None else None,
        classification=certificate.classification if certificate is not None else None,
        series_value=series_value,
        gcf_value=gcf_value,
        target_value=target_value,
        digits_matched=digits_matched,
        monotone_convergents=monotone,
        cauchy_digits=cauchy_digits,
        terms_used=terms_used,
        digits_requested=digits,
        depth=depth,
        verdict=verdict,
    )
