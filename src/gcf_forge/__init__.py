"""Exact verification of polynomial generalized continued fraction conjectures.

The pipeline: parse the coefficient polynomials and the target constant,
factor the three-term recurrence into a first-order cascade via a coupling
(c, d), check its polynomial identities once, map the continued fraction
to the reciprocal of the cascade's series, certify convergence with the
exact term-ratio limit, sum to the requested precision, and compare the
reciprocal of the sum against the target.
"""

from .errors import (
    BoundaryRuleViolation,
    DivisionByZero,
    ExprSyntaxError,
    GcfForgeError,
    InsufficientPrecision,
    InvalidProblem,
    NegativeSqrt,
    NonPolynomial,
    NotConvergent,
    OnsetPastBudget,
    ProblemFileError,
    UnknownSymbol,
    ZeroDenominatorConvergent,
    ZeroDenominatorFactor,
    ZeroPartialNumerator,
    ZeroPolynomial,
)
from .expr import (
    ConstExpr,
    const_expr_to_text,
    eval_const_expr,
    parse_const_expr,
    parse_polynomial,
    parse_rational,
)
from .factorize import Coupling, find_couplings, verify_coupling
from .gcf import GcfProblem, structural_walk
from .numerics import PrecisionReal, rational_to_real, working_precision
from .poly import FactoredPolynomial, Polynomial, factor_rational
from .series import RatioCertificate, ratio_certificate
from .verify import VerificationReport, check_boundary_selection, verify_conjecture

__version__ = "0.1.0"

__all__ = [
    "BoundaryRuleViolation",
    "ConstExpr",
    "Coupling",
    "DivisionByZero",
    "ExprSyntaxError",
    "FactoredPolynomial",
    "GcfForgeError",
    "GcfProblem",
    "InsufficientPrecision",
    "InvalidProblem",
    "NegativeSqrt",
    "NonPolynomial",
    "NotConvergent",
    "OnsetPastBudget",
    "Polynomial",
    "PrecisionReal",
    "ProblemFileError",
    "RatioCertificate",
    "UnknownSymbol",
    "VerificationReport",
    "ZeroDenominatorConvergent",
    "ZeroDenominatorFactor",
    "ZeroPartialNumerator",
    "ZeroPolynomial",
    "check_boundary_selection",
    "const_expr_to_text",
    "eval_const_expr",
    "factor_rational",
    "find_couplings",
    "parse_const_expr",
    "parse_polynomial",
    "parse_rational",
    "ratio_certificate",
    "rational_to_real",
    "structural_walk",
    "verify_conjecture",
    "verify_coupling",
    "working_precision",
]
