"""Convergents of a generalized continued fraction, and one integer walk.

Both the numerator sequence A_n and the denominator sequence B_n obey the
same three-term recurrence y_n = b(n) y_{n-1} + a(n) y_{n-2}; they differ
only in their initial frames (A_{-1}, A_0) = (1, b0) and (B_{-1}, B_0) =
(0, 1). :func:`convergents` tabulates them as reduced fractions;
:func:`structural_walk` makes the single pass that every structural check
of the pipeline reads, in plain integers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BoundaryRuleViolation, InvalidProblem, ZeroDenominatorConvergent
from .expr import ConstExpr
from .factorize import Coupling
from .poly import FactoredPolynomial, Polynomial, common_denominator, factor_rational
from .poly import integer_values
from .series import cascade

DEFAULT_DEPTH = 512


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
        bad = [r for r, _ in self.minus_a.rational_roots() if r.denominator == 1 and r >= 1]
        if bad:
            raise InvalidProblem(
                f"partial numerator a(n) vanishes at n = {bad[0]}"
            )


@dataclass(frozen=True)
class ConvergentTriple:
    """Exact state of the recurrence at one index; x is A/B when B != 0."""

    n: int
    A: Fraction
    B: Fraction
    x: Fraction | None = field(default=None)


def convergents(problem: GcfProblem, depth: int = DEFAULT_DEPTH) -> list[ConvergentTriple]:
    """Exact triples (n, A_n, B_n, x_n) for n = 0..depth.

    A vanishing B_n is not fatal: the triple is recorded with x = None and
    iteration continues.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    A_prev, A = Fraction(1), problem.b0
    B_prev, B = Fraction(0), Fraction(1)
    out = [ConvergentTriple(0, A, B, A)]
    for n in range(1, depth + 1):
        an, bn = problem.a(n), problem.b(n)
        A_prev, A = A, bn * A + an * A_prev
        B_prev, B = B, bn * B + an * B_prev
        out.append(ConvergentTriple(n, A, B, A / B if B != 0 else None))
    return out


@dataclass(frozen=True)
class StructuralWalk:
    """What one pass over n = 0..depth found; see :func:`structural_walk`.

    Each *_depth is the largest n <= depth such that the identity holds at
    every m <= n (-1 when it fails already at n = 0); the two that need a
    coupling are None without one. A convergent is None where B_n = 0.
    """

    exact_identity_depth: int | None  # x_n * S_n = 1
    numerator_product_depth: int | None  # A_n = prod_{j<=n+1} d(j)
    casoratian_depth: int  # W_0 = -1, W_n = -a(n) W_{n-1}; always depth
    monotone: bool  # x_0 > x_1 > ... > x_depth, all defined
    halfway: Fraction | None  # x at n = (depth + 1) // 2
    last: Fraction | None  # x_depth
    last_defined: Fraction  # x_n at the largest n <= depth with B_n != 0


def structural_walk(
    problem: GcfProblem, depth: int, coupling: Coupling | None = None
) -> StructuralWalk:
    """Walk the recurrence once, in ints, and check every structural identity.

    With L the lcm of all coefficient denominators (of c and d too, when a
    coupling is given), A'_n = L^(n+1) A_n and B'_n = L^(n+1) B_n obey
    y_n = b'(n) y_{n-1} + a'(n) y_{n-2} with the int streams b' = L b and
    a' = L^2 a (:func:`~gcf_forge.poly.integer_values`), so every product in
    a step is big by small. W'_n = L^(2n+1) W_n is carried by the Casoratian
    law W'_n = -a'(n) W'_{n-1} and checked against A'_n B'_{n-1} - A'_{n-1} B'_n
    once, at n = depth (exact ints cannot break the law: a mismatch raises
    ArithmeticError). x_{n-1} > x_n iff W'_n B'_{n-1} B'_n < 0.

    A coupling brings :func:`~gcf_forge.series.cascade` at scale L, whose
    D'_n = L^(n+1) prod d(j) and T'_n = L^(n+1) S_n prod d(j): A_n = prod d(j)
    reads A' = D', and x_n S_n = 1 reads A' T' = B' D', that is B' = T' where
    A' = D' != 0. While both have held at every earlier index, they reduce at
    n to small ints (D'_{n-2} != 0: the cascade refuses d(j) = 0), with
    c' = L c and d' = L d:
    A'_n = D'_n iff f(n) = (b'(n) - d'(n+1)) d'(n) + a'(n) = 0, and then
    B'_n = T'_n iff e(n) C'_{n-1} = 0 with e(n) = b'(n) - d'(n+1) - c'(n).
    This fast phase steps only the cascade and W' and takes A', B' = D', T';
    a true coupling (the operator factorization) makes f and e vanish and
    keeps the walk there. From the first index where a test fails, and
    throughout when there is no coupling, the full loop steps A', B', W' and
    the cascade and compares them, forming A' T' and B' D' only where A' != D'.

    A coupling must satisfy the boundary rule b0 = d(1)
    (BoundaryRuleViolation otherwise); B_n = 0 while the reciprocal
    identity still holds raises ZeroDenominatorConvergent, and d(j) = 0 at
    some j <= depth + 1 raises ZeroDenominatorFactor.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    polynomials = [problem.a, problem.b]
    if coupling is not None:
        if problem.b0 != coupling.d(1):
            raise BoundaryRuleViolation(f"b0 = {problem.b0} but d(1) = {coupling.d(1)}")
        polynomials += [coupling.c, coupling.d]
    L = math.lcm(problem.b0.denominator, common_denominator(*polynomials))
    indices = zip(
        range(1, depth + 1), integer_values(problem.a, L * L), integer_values(problem.b, L)
    )
    halfway = (depth + 1) // 2

    A_prev, A = 1, L // problem.b0.denominator * problem.b0.numerator
    B_prev, B = 0, L
    W = -L  # A'_0 B'_{-1} - A'_{-1} B'_0, that is L W_0 with W_0 = -1
    monotone = True
    half = (A, B)
    numerator_depth = identity_depth = None
    resume = ()  # the index the fast phase could not take, for the full loop
    if coupling is not None:
        steps = cascade(coupling, L)
        C, _, _ = next(steps)  # (A'_0, B'_0) = (D'_0, T'_0) since b0 = d(1)
        rest = problem.b - coupling.d.shift(1)  # b(n) - d(n+1)
        f = integer_values(rest * coupling.d + problem.a, L * L)
        e = integer_values(rest - coupling.c, L)
        numerator_depth = identity_depth = 0
        for index, fn, en in zip(indices, f, e):
            if fn or (en and C):
                resume = (index,)
                break
            n, an, _ = index
            A_prev, B_prev = A, B
            C, A, B = next(steps)
            W = -an * W
            if B == 0:
                raise ZeroDenominatorConvergent(n)
            monotone = monotone and ((W < 0) ^ (B_prev < 0) ^ (B < 0))
            if n == halfway:
                half = (A, B)
            numerator_depth = identity_depth = n
    last_defined = (A, B)  # B != 0 in every frame so far
    for n, an, bn in itertools.chain(resume, indices):
        A_prev, A = A, bn * A + an * A_prev
        B_prev, B = B, bn * B + an * B_prev
        W = -an * W
        if B != 0:
            last_defined = (A, B)
        # the product W B_{n-1} B_n is negative iff an odd number of factors is
        monotone = monotone and B != 0 and ((W < 0) ^ (B_prev < 0) ^ (B < 0))
        if n == halfway:
            half = (A, B)
        if coupling is not None:
            _, D, T = next(steps)
            collapsed = A == D
            if numerator_depth == n - 1 and collapsed:
                numerator_depth = n
            if identity_depth == n - 1:
                if B == 0:
                    raise ZeroDenominatorConvergent(n)
                if (B == T) if collapsed else (A * T == B * D):
                    identity_depth = n
    if W != A * B_prev - A_prev * B:
        raise ArithmeticError(f"Casoratian law broken by the walk at n = {depth}")

    last = Fraction(A, B) if B else None  # the final frame, reduced once
    return StructuralWalk(
        exact_identity_depth=identity_depth,
        numerator_product_depth=numerator_depth,
        casoratian_depth=depth,
        monotone=monotone,
        halfway=Fraction(*half) if half[1] else None,
        last=last,
        last_defined=last if B else Fraction(*last_defined),
    )
