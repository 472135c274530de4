"""Exception types shared across the package."""


class GcfForgeError(Exception):
    """Base class for all library errors."""


class ExprSyntaxError(GcfForgeError):
    """Malformed input text. Carries a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownSymbol(ExprSyntaxError):
    """An identifier that is not part of the grammar."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown symbol {name!r}", position)
        self.name = name


class NonPolynomial(GcfForgeError):
    """Input parses but does not denote a polynomial in n."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class DivisionByZero(GcfForgeError):
    """Division by an exactly-zero value."""


class NegativeSqrt(GcfForgeError):
    """Square root of a negative value."""


class InsufficientPrecision(GcfForgeError):
    """An operand does not carry enough mantissa bits for the request."""


class ZeroPolynomial(GcfForgeError):
    """The zero polynomial was passed where a nonzero one is required."""


class ZeroPartialNumerator(GcfForgeError):
    """The partial-numerator polynomial is identically zero."""


class ZeroDenominatorFactor(GcfForgeError):
    """d(j) = 0 for some index j >= 1, so series terms are undefined."""

    def __init__(self, index: int):
        super().__init__(f"denominator factor vanishes at j = {index}")
        self.index = index


class NotConvergent(GcfForgeError):
    """The ratio certificate does not classify the series as convergent."""


class OnsetPastBudget(GcfForgeError):
    """The certified geometric onset lies past the budget of terms a sum may take."""

    def __init__(self, onset: int, budget: int):
        super().__init__(f"the geometric onset k = {onset} exceeds the budget of {budget} terms")
        self.onset = onset


class BoundaryRuleViolation(GcfForgeError):
    """b0 != d(1); the selection rule required by the pipeline fails."""


class InvalidProblem(GcfForgeError):
    """A continued-fraction problem violating a structural requirement."""


class ProblemFileError(GcfForgeError):
    """A problem file that cannot be loaded or has bad structure."""
