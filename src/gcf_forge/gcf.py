"""Convergents of a generalized continued fraction, and one integer walk.

Both the numerator sequence A_n and the denominator sequence B_n obey the
same three-term recurrence y_n = b(n) y_{n-1} + a(n) y_{n-2}; they differ
only in their initial frames (A_{-1}, A_0) = (1, b0) and (B_{-1}, B_0) =
(0, 1). :func:`_frames` steps both in plain ints, scaled by L^(n+1), for the
`eval` table and for :func:`structural_walk`, the walk of a problem without a
coupling. After :func:`check_coupling` a coupled problem's convergents are
x_n = 1/S_n, and :mod:`~gcf_forge.series` sums or walks its cascade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .errors import BoundaryRuleViolation, InvalidProblem
from .expr import ConstExpr
from .factorize import Coupling, verify_coupling
from .numerics import agreement_digits
from .poly import FactoredPolynomial, Polynomial, common_denominator, factor_rational
from .poly import integer_values


@dataclass(frozen=True)
class GcfProblem:
    """A continued-fraction conjecture: value b0 + a(1)/(b(1) + a(2)/(...)).

    Optionally carries a constant expression the value is claimed to equal.
    minus_a, the factorization of -a, is made once, here, and read by the check
    a(n) != 0 for n >= 1 and by the coupling search; equality ignores it.
    """

    b0: Fraction
    a: Polynomial
    b: Polynomial
    target: ConstExpr | None = None
    minus_a: FactoredPolynomial = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "b0", Fraction(self.b0))
        if self.a.is_zero:
            raise InvalidProblem("partial numerator polynomial is identically zero")
        object.__setattr__(self, "minus_a", factor_rational(-self.a))
        bad = [num for num, den, _ in self.minus_a.root_pairs() if den == 1 and num >= 1]
        if bad:
            raise InvalidProblem(
                f"partial numerator a(n) vanishes at n = {bad[0]}"
            )


def _scale(problem: GcfProblem) -> int:
    """The lcm L of every coefficient denominator of b0, a and b."""
    return math.lcm(problem.b0.denominator, common_denominator(problem.a, problem.b))


def _frames(problem: GcfProblem, L: int) -> Iterator[tuple[int, int]]:
    """(A'_n, B'_n) = (L^(n+1) A_n, L^(n+1) B_n) for n = 0, 1, ..., with L = _scale(problem).

    The scaled frames obey y_n = b'(n) y_{n-1} + a'(n) y_{n-2} with the int
    streams b' = L b and a' = L^2 a (:func:`~gcf_forge.poly.integer_values`),
    so no step reduces a fraction and every product in a step is big by small.
    """
    A_prev, A = 1, L // problem.b0.denominator * problem.b0.numerator
    B_prev, B = 0, L
    yield A, B
    for an, bn in zip(integer_values(problem.a, L * L), integer_values(problem.b, L)):
        A_prev, A = A, bn * A + an * A_prev
        B_prev, B = B, bn * B + an * B_prev
        yield A, B


def check_boundary_selection(problem: GcfProblem, coupling: Coupling) -> bool:
    """True iff b0 = d(1) exactly, the rule that zeroes the numerator trace."""
    return problem.b0 == coupling.d(1)


def check_coupling(problem: GcfProblem, coupling: Coupling) -> None:
    """Refuse a coupling that fails b0 = d(1) or its identities; then they hold at every n.

    BoundaryRuleViolation unless b0 = d(1), and ValueError unless c(n) + d(n+1) = b(n)
    and c(n) d(n) = -a(n) as polynomials.
    """
    if not check_boundary_selection(problem, coupling):
        raise BoundaryRuleViolation(f"b0 = {problem.b0} but d(1) = {coupling.d(1)}")
    if not verify_coupling(problem.a, problem.b, coupling):
        raise ValueError(f"coupling {coupling} does not give c + d(n+1) = b, c d = -a")


def structural_walk(
    problem: GcfProblem, depth: int, cap: int
) -> tuple[bool, int, tuple[int, int]]:
    """Walk an uncoupled problem's recurrence once, in ints, for the convergents it reports.

    Returns (monotone, cauchy digits, last): whether x_0 > x_1 > ... > x_depth, all defined;
    agreement_digits(x_h, x_depth, cap) with h = (depth + 1) // 2, or 0 when either is
    undefined; and x_n as the unreduced pair (A'_n, B'_n) at the largest n <= depth with
    B_n != 0. It steps :func:`_frames`. W_n = A_n B_{n-1} - A_{n-1} B_n obeys W_0 = -1 and
    W_n = -a(n) W_{n-1}, so its sign is a parity bit, and x_{n-1} > x_n iff W_n B_{n-1} B_n < 0.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    frames = _frames(problem, _scale(problem))
    halfway = (depth + 1) // 2
    A, B = next(frames)  # B'_0 > 0
    half = last_defined = (A, B)
    negative = True  # W_0 = -1
    monotone = True
    steps = zip(range(1, depth + 1), integer_values(problem.a, problem.a.denominator), frames)
    for n, an, (A, B_next) in steps:
        B_prev, B = B, B_next
        negative ^= an > 0  # the sign of W_n = -a(n) W_{n-1}
        # the product W_n B_{n-1} B_n is negative iff an odd number of factors is
        monotone = monotone and B != 0 and (negative ^ (B_prev < 0) ^ (B < 0))
        if B != 0:
            last_defined = (A, B)
        if n == halfway:
            half = (A, B)

    cauchy = agreement_digits(half, (A, B), cap) if half[1] and B else 0
    return monotone, cauchy, last_defined
