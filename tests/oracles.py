"""Independent reference computations used to freeze expected values.

Everything here is exact rational arithmetic built from first principles
(Machin's arctangent formula, long division, alternating-series tails) or
from sympy, which is imported inside the functions that use it so this
module loads without it. Nothing above the last two sections imports the
package or mpmath, so those references cannot share a failure mode with the
code under test. The next-to-last section keeps the package's previous
parser, coupling search and Fraction convergent loop as references for
parity tests; the parser and the search compute on Fraction coefficient
tuples and build a Polynomial only from their result. It also reads the
program's int streams, the convergent frames and the series cascade, for the
tests that check them against these references. The last one reads the
exact value of a binary float and decodes a JSON report back into a
VerificationReport for the round-trip tests.
"""

from fractions import Fraction
from itertools import accumulate, islice, product
from math import comb


def fraction_decimal(q: Fraction, digits: int) -> str:
    """Decimal expansion of q, truncated to `digits` places, by long division."""
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole = int(q)
    rem = q - whole
    out = []
    for _ in range(digits):
        rem *= 10
        digit = int(rem)
        out.append(str(digit))
        rem -= digit
    return f"{sign}{whole}." + "".join(out)


def arctan_reciprocal(x: int, digits: int) -> Fraction:
    """arctan(1/x) for integer x >= 2, with |error| < 10^(-digits).

    Alternating series sum of (-1)^k / ((2k+1) x^(2k+1)); the error after
    truncation is below the first omitted term.
    """
    limit = Fraction(1, 10**digits)
    total = Fraction(0)
    k = 0
    while True:
        term = Fraction(1, (2 * k + 1) * x ** (2 * k + 1))
        if term < limit:
            return total
        total += -term if k % 2 else term
        k += 1


def pi_fraction(digits: int) -> Fraction:
    """Rational approximation of pi with |error| < 10^(-digits) (Machin)."""
    inner = digits + 2
    return 16 * arctan_reciprocal(5, inner) - 4 * arctan_reciprocal(239, inner)


def pi_squared_over_8(digits: int) -> Fraction:
    """pi^2/8 with |error| < 10^(-digits)."""
    p = pi_fraction(digits + 3)
    return p * p / 8


def pi_squared_over_18(digits: int) -> Fraction:
    """pi^2/18 with |error| < 10^(-digits)."""
    p = pi_fraction(digits + 3)
    return p * p / 18


def eight_over_pi_squared(digits: int) -> Fraction:
    """8/pi^2 with |error| < 10^(-digits)."""
    p = pi_fraction(digits + 3)
    return 8 / (p * p)


def ln2_fraction(digits: int) -> Fraction:
    """ln 2 = 2 artanh(1/3) with |error| < 10^(-digits).

    Terms of artanh(1/3) shrink by more than 1/9 each step, so the tail is
    below 9/8 of the first omitted term.
    """
    limit = Fraction(1, 10 ** (digits + 2))
    total = Fraction(0)
    k = 0
    while True:
        term = Fraction(1, (2 * k + 1) * 3 ** (2 * k + 1))
        if term < limit:
            return 2 * total
        total += term
        k += 1


def close_to(value: Fraction, reference: Fraction, digits: int) -> bool:
    """|value - reference| <= 10^(-digits) * max(1, |reference|), exactly."""
    tolerance = Fraction(1, 10**digits) * max(Fraction(1), abs(reference))
    return abs(value - reference) <= tolerance


def fraction_series_sum(c, d, digits: int, onset: int, tail_factor: Fraction):
    """(S, terms used) for the series t_k = prod_{j<=k} c(j) / prod_{j<=k+1} d(j).

    The reference summation loop: reduced fractions, one term at a time,
    stopping at the first k >= onset with |t_k| * tail_factor <= 1/(2 10^digits).
    c and d are callables on the positive integers.
    """
    threshold = Fraction(1, 2 * 10**digits)
    total = Fraction(0)
    term = 1 / Fraction(d(1))
    k = 0
    while True:
        total += term
        if k >= onset and abs(term) * tail_factor <= threshold:
            return total, k + 1
        k += 1
        term = term * c(k) / d(k + 1)


def terms(coupling, count: int) -> list[Fraction]:
    """Exact t_0 .. t_{count-1} of t_k = prod_{j<=k} c(j) / prod_{j<=k+1} d(j).

    One reduced fraction per term; coupling.c and coupling.d are callables on
    the positive integers, and d(j) = 0 raises ZeroDivisionError.
    """
    out = [1 / Fraction(coupling.d(1))] if count else []
    for k in range(1, count):
        out.append(out[-1] * coupling.c(k) / coupling.d(k + 1))
    return out


def reference_partial_sums(coupling, count: int) -> list[Fraction]:
    """Exact S_0 .. S_{count-1}, S_k = t_0 + ... + t_k, summed from :func:`terms`."""
    return list(accumulate(terms(coupling, count)))


def reconstruct(factored) -> tuple:
    """sign * content * prod(factor^multiplicity) * residual of a factorization, as Fractions."""
    out = poly_trim([factored.sign * factored.content])
    for factor, multiplicity in factored.factors:
        out = poly_mul(out, poly_power(poly_of(factor), multiplicity))
    if factored.residual is not None:
        out = poly_mul(out, poly_of(factored.residual))
    return out


def integer_roots(factored, start: int) -> list[int]:
    """Integer roots >= start of a factorization, ascending, from its rational roots."""
    return [int(r) for r, _ in factored.rational_roots() if r.denominator == 1 and r >= start]


def central_binomial_sum(z: Fraction | int, digits: int) -> Fraction:
    """Sum over m >= 1 of z^m / (m^2 * C(2m, m)) with |error| < 10^(-digits).

    Defined for 0 <= z < 4. Consecutive terms shrink by the factor
    z*m^2/((2m+1)(2m+2)) <= z/4 < 1, so the tail after a term is below
    term * (z/4) / (1 - z/4). At z = 2 the sum is pi^2/8, at z = 1 pi^2/18:
    a second route to the constants the coupling-induced series reaches.
    """
    z = Fraction(z)
    if not 0 <= z < 4:
        raise ValueError("argument must satisfy 0 <= z < 4")
    ratio = z / 4
    tail_factor = ratio / (1 - ratio)
    threshold = Fraction(1, 2 * 10**digits)
    term = z / 2  # m = 1: z / (1^2 * C(2, 1))
    total = Fraction(0)
    m = 1
    while term:
        total += term
        if term * tail_factor <= threshold:
            break
        term *= z * m * m
        term /= (2 * m + 1) * (2 * m + 2)
        m += 1
    return total


def agreement_digits_loop(x: Fraction, y: Fraction, cap: int) -> int:
    """Largest D <= cap with |x - y| <= 10^-D * max(1, |y|), one digit at a time."""
    gap = abs(x - y)
    scale = max(Fraction(1), abs(y))
    digits = 0
    while digits < cap and gap * 10 ** (digits + 1) <= scale:
        digits += 1
    return digits


def round_to_bits(p: int, q: int, bits: int) -> Fraction:
    """p/q (q != 0) rounded to the nearest float with a `bits`-bit mantissa, ties to even.

    The mantissa is m = |p/q| 2^-e rounded to an int, for the e with 2^(bits-1) <= m < 2^bits.
    """
    if q < 0:
        p, q = -p, -q
    if p == 0:
        return Fraction(0)
    sign, p = (-1 if p < 0 else 1), abs(p)

    def scaled(e):  # |p/q| 2^-e as an int pair
        return (p, q << e) if e >= 0 else (p << -e, q)

    e = p.bit_length() - q.bit_length() - bits  # 2^(bits-1) < |p/q| 2^-e < 2^(bits+1)
    num, den = scaled(e)
    if num >= den << bits:
        e += 1
        num, den = scaled(e)
    mantissa, rest = divmod(num, den)
    if 2 * rest > den or (2 * rest == den and mantissa & 1):
        mantissa += 1
    return sign * mantissa * Fraction(2) ** e


# --- polynomials as lists of Fraction coefficients, lowest degree first -------


def poly_of(p) -> tuple:
    """The Fraction coefficients of a package Polynomial: its numerators over its denominator."""
    return tuple(Fraction(c, p.denominator) for c in p.numerators)


def poly_trim(coefficients) -> tuple:
    """The coefficients as Fractions, without trailing zeros."""
    out = [Fraction(c) for c in coefficients]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_add(p, q) -> tuple:
    longer, shorter = (p, q) if len(p) >= len(q) else (q, p)
    return poly_trim([c + (shorter[i] if i < len(shorter) else 0) for i, c in enumerate(longer)])


def poly_scale(p, s) -> tuple:
    return poly_trim([c * s for c in p])


def poly_mul(p, q) -> tuple:
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return poly_trim(out)


def poly_power(p, exponent: int) -> tuple:
    """p^exponent by repeated squaring (the reference parser meets exponents up to 2^16)."""
    out = (Fraction(1),)
    while exponent:
        if exponent & 1:
            out = poly_mul(out, p)
        exponent >>= 1
        if exponent:
            p = poly_mul(p, p)
    return out


def poly_shift(p, k: int) -> tuple:
    """q with q(n) = p(n + k), by the binomial expansion of each (n + k)^i."""
    out = [Fraction(0)] * len(p)
    for i, c in enumerate(p):
        for j in range(i + 1):
            out[j] += c * comb(i, j) * Fraction(k) ** (i - j)
    return poly_trim(out)


def poly_eval(p, x) -> Fraction:
    """p(x) as a sum of c_i x^i."""
    return sum((c * Fraction(x) ** i for i, c in enumerate(p)), Fraction(0))


def _sympy_poly(coefficients, n):
    import sympy

    return sympy.Poly(list(reversed([sympy.Rational(str(q)) for q in coefficients])), n, domain="QQ")


def _fraction(q) -> Fraction:
    return Fraction(int(q.p), int(q.q))


def _fractions(poly) -> tuple:
    """Lowest-degree-first Fraction coefficients of a sympy Poly (() for zero)."""
    return () if poly.is_zero else tuple(_fraction(q) for q in reversed(poly.all_coeffs()))


def _sympy_factors(p):
    """sympy.factor_list over QQ: (monic linear factors with multiplicity, monic rest)."""
    import sympy

    linear, rest = [], sympy.Poly(1, *p.gens, domain="QQ")
    for f, m in sympy.factor_list(p)[1]:
        if f.degree() == 1:
            linear.append((f.monic(), m))
        else:
            rest *= f.monic() ** m
    return linear, rest


def sympy_factor_rational(coefficients):
    """(leading coefficient, [(rational root, multiplicity)], monic residual or None).

    From sympy.factor_list over QQ: the roots of its linear factors, ascending,
    and the monic product of every other factor, as Fraction coefficient tuples.
    """
    import sympy

    p = _sympy_poly(coefficients, sympy.Symbol("n"))
    linear, rest = _sympy_factors(p)
    roots = sorted((_fraction(-f.TC()), m) for f, m in linear)
    return _fraction(p.LC()), roots, None if rest.degree() == 0 else _fractions(rest)


def sympy_couplings(a, b) -> set:
    """Every coupling (c, d) of the rational-root search space, found with sympy alone.

    a and b are Fraction coefficient sequences, lowest degree first. -a is
    factored over QQ with sympy.factor_list; every split of its monic linear
    factors (with multiplicity) and of the whole monic rest between c = u*P
    and d = v*Q is solved for rational (u, v) with u*P(n) + v*Q(n+1) = b(n)
    and u*v = kappa by sympy.solve. Returns {(c, d)} as coefficient tuples.
    """
    import sympy

    n, u, v = sympy.symbols("n u v")
    minus_a = -_sympy_poly(a, n)
    kappa = minus_a.LC()
    items, rest = _sympy_factors(minus_a)
    if rest.degree() > 0:
        items.append((rest, 1))
    target = _sympy_poly(b, n).as_expr()
    found = set()
    for picks in product(*(range(m + 1) for _, m in items)):
        P = Q = sympy.Integer(1)
        for (f, m), take in zip(items, picks):
            P *= f.as_expr() ** take
            Q *= f.as_expr() ** (m - take)
        residual = sympy.Poly(sympy.expand(u * P + v * Q.subs(n, n + 1) - target), n)
        equations = residual.coeffs() + [u * v - kappa]
        for solution in sympy.solve(equations, [u, v], dict=True):
            if solution[u].is_rational and solution[v].is_rational:
                c = sympy.Poly(sympy.expand(solution[u] * P), n, domain="QQ")
                d = sympy.Poly(sympy.expand(solution[v] * Q), n, domain="QQ")
                found.add((_fractions(c), _fractions(d)))
    return found


# --- the package's previous parser and coupling search -------------------------
#
# References for parity tests: the token-object descent and the coupling search
# over divisors, both on Fraction coefficient tuples. Unlike the rest of this
# module they import the package, for its Polynomial (built once, from a
# result), its ConstExpr node classes, its error types and its budgets.

import math
from dataclasses import dataclass, fields

from gcf_forge.errors import (
    DivisionByZero,
    ExprSyntaxError,
    NonPolynomial,
    UnknownSymbol,
    ZeroPartialNumerator,
)
from gcf_forge.expr import (
    _MAX_DEGREE,
    _MAX_EXPONENT,
    _MAX_NESTING,
    _MAX_NODES,
    _MAX_POWER_BITS,
    Binary,
    ConstExpr,
    Neg,
    Num,
    Pi,
    Pow,
    Sqrt,
    _fold_rational,
)
from gcf_forge.factorize import Coupling
from gcf_forge.gcf import GcfProblem, _frames, _scale
from gcf_forge.poly import Polynomial, factor_rational
from gcf_forge.series import cascade, sum_to_precision


def polynomial(coefficients) -> Polynomial:
    """The Polynomial with these int or Fraction coefficients, lowest degree first."""
    coefficients = [Fraction(c) for c in coefficients]
    den = math.lcm(*(c.denominator for c in coefficients))
    return Polynomial([c.numerator * (den // c.denominator) for c in coefficients], den)


def convergent_frames(problem: GcfProblem, depth: int) -> list[tuple[int, int]]:
    """The program's (A'_n, B'_n) = L^(n+1) (A_n, B_n) for n = 0..depth, L = its scale."""
    return list(islice(_frames(problem, _scale(problem)), depth + 1))


def cascade_frames(coupling, count: int) -> list[tuple[int, int, int]]:
    """The program's (C_k, D_k, T_k) for k = 0..count-1: t_k = C_k/D_k, S_k = T_k/D_k."""
    return list(islice(cascade(coupling), count))


def certified_sum(certificate, digits: int):
    """(value, terms used) of a convergent certificate's sum to 10^(-digits). At depth 0 the
    sum reads only x_0 = 1/t_0 among the convergents, so no vanishing S_n refuses it."""
    return sum_to_precision(certificate, digits, 0)


_OPERATOR_CHARS = set("+-*/^()")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'int' | 'name' | 'op' | 'end'
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i, length = 0, len(source)
    while i < length:
        ch = source[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i + 1
            while j < length and source[j].isdigit():
                j += 1
            tokens.append(_Token("int", source[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < length and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("name", source[i:j], i))
            i = j
        elif ch in _OPERATOR_CHARS:
            tokens.append(_Token("op", ch, i))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", length))
    return tokens


def _check_power(coefficients, exponent: int, position: int) -> None:
    """Refuse a power past the budgets before it is computed.

    With b the larger bit length of a Fraction coefficient's num and den,
    q^e has about |e| (b - 1) to 2 |e| (b - 1) bits (b = 1: 0, +-1).
    """
    if abs(exponent) > _MAX_EXPONENT:
        raise ExprSyntaxError("exponent too large", position)
    b = 1
    for c in coefficients:
        b = max(b, c.numerator.bit_length(), c.denominator.bit_length())
    if abs(exponent) * (b - 1) > _MAX_POWER_BITS:
        raise ExprSyntaxError("power too large", position)


class _Parser:
    """Token cursor and precedence descent; subclasses say what operators mean."""

    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.index = 0
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def match_op(self, *ops: str) -> _Token | None:
        tok = self.peek()
        if tok.kind == "op" and tok.text in ops:
            return self.advance()
        return None

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ExprSyntaxError(f"expected {op!r}", tok.pos)
        return self.advance()

    def parse(self):
        value = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.pos)
        return value

    def expression(self):
        value = self.term()
        while (tok := self.match_op("+", "-")) is not None:
            value = self.binary(tok, value, self.term())
        return value

    def term(self):
        value = self.unary()
        while (tok := self.match_op("*", "/")) is not None:
            value = self.binary(tok, value, self.unary())
        return value

    def unary(self):
        self.nesting += 1
        if self.nesting > _MAX_NESTING:
            raise ExprSyntaxError("nesting too deep", self.peek().pos)
        if self.match_op("-") is not None:
            value = self.negate(self.unary())
        elif self.match_op("+") is not None:
            value = self.unary()
        else:
            value = self.atom()
            if (tok := self.match_op("^")) is not None:
                value = self.power(tok, value, self.unary())
        self.nesting -= 1
        return value

    def atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return self.literal(int(tok.text))
        if tok.kind == "name":
            return self.name(tok)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            value = self.expression()
            self.expect_op(")")
            return value
        raise ExprSyntaxError("expected a value", tok.pos)


class _PolynomialParser(_Parser):
    """Values are Fraction coefficient tuples, lowest degree first, no trailing zero."""

    def binary(self, tok: _Token, left: tuple, right: tuple) -> tuple:
        if tok.text == "+":
            return poly_add(left, right)
        if tok.text == "-":
            return poly_add(left, poly_scale(right, -1))
        if tok.text == "*":
            if len(left) + len(right) - 2 > _MAX_DEGREE:
                raise ExprSyntaxError("degree too large", tok.pos)
            return poly_mul(left, right)
        if len(right) > 1:
            raise NonPolynomial("division by an expression containing n", tok.pos)
        if not right:
            raise DivisionByZero(f"division by zero (at offset {tok.pos})")
        return poly_scale(left, 1 / right[0])

    def negate(self, value: tuple) -> tuple:
        return poly_scale(value, -1)

    def power(self, tok: _Token, base: tuple, exponent: tuple) -> tuple:
        if len(exponent) > 1:
            raise NonPolynomial("exponent contains n", tok.pos)
        value = exponent[0] if exponent else Fraction(0)
        if value.denominator != 1:
            raise NonPolynomial("exponent must be an integer", tok.pos)
        if value < 0:
            raise NonPolynomial("negative exponent", tok.pos)
        _check_power(base, int(value), tok.pos)
        if (len(base) - 1) * value > _MAX_DEGREE:
            raise ExprSyntaxError("degree too large", tok.pos)
        return poly_power(base, int(value))

    def literal(self, value: int) -> tuple:
        return poly_trim([value])

    def name(self, tok: _Token) -> tuple:
        if tok.text != "n":
            raise UnknownSymbol(tok.text, tok.pos)
        self.advance()
        return poly_trim([0, 1])


class _ConstParser(_Parser):
    size = 0

    def node(self, kind: type, *parts) -> ConstExpr:
        self.size += 1
        if self.size > _MAX_NODES:
            raise ExprSyntaxError("constant expression too large", self.peek().pos)
        return kind(*parts)

    def binary(self, tok: _Token, left: ConstExpr, right: ConstExpr) -> ConstExpr:
        return self.node(Binary, tok.text, left, right)

    def negate(self, value: ConstExpr) -> ConstExpr:
        return self.node(Neg, value)

    def power(self, tok: _Token, base: ConstExpr, exponent: ConstExpr) -> ConstExpr:
        folded = _fold_rational(exponent, lambda: tok.pos)
        if folded is None or folded.denominator != 1:
            raise ExprSyntaxError("exponent must be an integer", tok.pos)
        _check_power((), int(folded), tok.pos)
        return self.node(Pow, base, int(folded))

    def literal(self, value: int) -> ConstExpr:
        return self.node(Num, Fraction(value))

    def name(self, tok: _Token) -> ConstExpr:
        name = tok.text.lower()
        if name == "pi":
            self.advance()
            return self.node(Pi)
        if name != "sqrt":
            raise UnknownSymbol(tok.text, tok.pos)
        self.advance()
        self.expect_op("(")
        operand = self.expression()
        self.expect_op(")")
        return self.node(Sqrt, operand)


def reference_parse_polynomial(source: str) -> Polynomial:
    return polynomial(_PolynomialParser(source).parse())


def reference_parse_rational(source: str) -> Fraction:
    value = _PolynomialParser(source).parse()
    if len(value) > 1:
        raise NonPolynomial("expected a constant, found n", 0)
    return value[0] if value else Fraction(0)


def reference_parse_const_expr(source: str) -> ConstExpr:
    return _ConstParser(source).parse()


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """The nonnegative rational square root of q, or None when q has none."""
    if q < 0:
        return None
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(num, den) if num * num == q.numerator and den * den == q.denominator else None


def _scales(b: tuple, kappa: Fraction, R: tuple, q: int) -> list[Fraction]:
    """The nonzero rational roots v of v^2 - b_q v + kappa R_q = 0, by the quadratic formula."""
    b_q = b[q] if q < len(b) else 0
    root = _rational_sqrt(b_q * b_q - 4 * kappa * (R[q] if q < len(R) else 0))
    if root is None:
        return []
    return [v for v in {(b_q + root) / 2, (b_q - root) / 2} if v]


def _divisors(items: list[tuple[tuple, int]]) -> list[tuple[tuple, tuple]]:
    """(Q, R) for every monic divisor Q of P = prod f^m, with Q*R == P."""
    one = (Fraction(1),)
    pairs = [(one, one)]
    for f, m in items:
        powers = [poly_power(f, k) for k in range(m + 1)]
        pairs = [(poly_mul(Q, powers[k]), poly_mul(R, powers[m - k]))
                 for Q, R in pairs for k in range(m + 1)]
    return pairs


def reference_find_couplings(a: Polynomial, b: Polynomial) -> list[Coupling]:
    """All couplings reachable through rational-root splits of -a.

    With -a = kappa*Q*R (Q, R monic, kappa the signed content), each monic Q
    built from the linear factors of -a and the whole residual, if any, gives
    d = v*Q and c = b - v*Q(n+1); c*d == -a then reads v*c == kappa*R. Its
    row at degree deg Q is v^2 - b_q*v + kappa*R_q = 0, and each nonzero
    rational root v is kept iff the whole identity holds. An empty result
    means no coupling exists *within this search space*; factorizations
    needing irrational or complex splits are out of reach by design.
    """
    if a.is_zero:
        raise ZeroPartialNumerator("a(n) is identically zero")
    factored = factor_rational(-a)
    kappa = factored.content * factored.sign
    items = [(poly_of(f), m) for f, m in factored.factors]
    if factored.residual is not None:
        items.append((poly_of(factored.residual), 1))
    b = poly_of(b)
    found = []
    for Q, R in _divisors(items):
        for v in _scales(b, kappa, R, len(Q) - 1):
            c = poly_add(b, poly_scale(poly_shift(Q, 1), -v))
            if poly_scale(c, v) == poly_scale(R, kappa):
                found.append((len(c) - 1, c, poly_scale(Q, v)))
    return [Coupling(c=polynomial(c), d=polynomial(d)) for _, c, d in sorted(found)]


@dataclass(frozen=True)
class ConvergentTriple:
    """Exact state of the recurrence at one index; x is A/B when B != 0."""

    n: int
    A: Fraction
    B: Fraction
    x: Fraction | None = None


def reference_convergents(problem: GcfProblem, depth: int) -> list[ConvergentTriple]:
    """Exact triples (n, A_n, B_n, x_n) for n = 0..depth, stepped in Fractions.

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


# --- binary floats read exactly, and the JSON report decoder -----------------
#
# The program writes reports (cli.report_to_dict) and never reads them back;
# these decode one into a VerificationReport, so tests can check that the
# document loses nothing.

import operator

import mpmath
from mpmath.libmp import from_rational, mpf_shift, round_nearest, to_rational

from gcf_forge.expr import parse_polynomial
from gcf_forge.numerics import PrecisionReal
from gcf_forge.verify import VerificationReport


def exact_value(x: PrecisionReal) -> Fraction:
    """The exact value of a binary float, a dyadic rational."""
    p, q = to_rational(x.value._mpf_)
    return Fraction(int(p), int(q))


def real_from_decimal(text: str, precision_bits: int) -> PrecisionReal:
    """Parse decimal text into a float carrying `precision_bits` bits."""
    if precision_bits < 8:
        raise ValueError("precision_bits must be at least 8")
    with mpmath.mp.workprec(precision_bits):
        value = +mpmath.mpmathify(text)
    return PrecisionReal(value, precision_bits)


# --- references for the rounding: mpmath's context and mpf operators -----------
#
# The program rounds through mpmath's libmp at an explicit precision. These
# round the same values the way it did before, inside a workprec context with
# mpf operator dispatch, so a test can pin that the two agree bit for bit.

from gcf_forge.errors import NegativeSqrt


def _reference_round_ratio(p: int, q: int) -> mpmath.mpf:
    # p/q correctly rounded at the current mpmath precision, trailing zero bits shifted
    zp, zq = ((n & -n).bit_length() - 1 if n else 0 for n in (p, q))
    odd = from_rational(p >> zp, q >> zq, mpmath.mp.prec, round_nearest)
    return mpmath.mpf(mpf_shift(odd, zp - zq))


def reference_rational_to_real(x: tuple[int, int], precision_bits: int) -> PrecisionReal:
    if precision_bits < 8:
        raise ValueError("precision_bits must be at least 8")
    with mpmath.mp.workprec(precision_bits):
        value = _reference_round_ratio(*x)
    return PrecisionReal(value, precision_bits)


def reference_enclosure_to_real(low: int, high: int, shift: int, precision_bits: int):
    with mpmath.mp.workprec(precision_bits):
        low_end, high_end = mpmath.mpf((low, -shift)), mpmath.mpf((high, -shift))
    return PrecisionReal(low_end, precision_bits) if low_end == high_end else None


def reference_real_reciprocal(x: PrecisionReal) -> PrecisionReal:
    if x.value == 0:
        raise DivisionByZero("reciprocal of zero")
    with mpmath.mp.workprec(x.precision_bits):
        value = mpmath.mpf(1) / x.value
    return PrecisionReal(value, x.precision_bits)


def reference_eval_const_expr(expr: ConstExpr, precision_bits: int) -> PrecisionReal:
    """Every node at 16 guard bits above the request, then one rounding to it."""
    if precision_bits < 8:
        raise ValueError("precision_bits must be at least 8")
    with mpmath.mp.workprec(precision_bits + 16):
        value = _reference_eval_node(expr)
    with mpmath.mp.workprec(precision_bits):
        value = +value
    return PrecisionReal(value, precision_bits)


_MPF_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _reference_eval_node(expr: ConstExpr):
    if isinstance(expr, Num):
        return _reference_round_ratio(expr.value.numerator, expr.value.denominator)
    if isinstance(expr, Pi):
        return +mpmath.mp.pi
    if isinstance(expr, Neg):
        return -_reference_eval_node(expr.operand)
    if isinstance(expr, Binary):
        if expr.op != "/":
            left, right = _reference_eval_node(expr.left), _reference_eval_node(expr.right)
            return _MPF_OPERATORS[expr.op](left, right)
        denominator = _reference_eval_node(expr.right)
        if denominator == 0:
            raise DivisionByZero("division by zero in constant expression")
        return _reference_eval_node(expr.left) / denominator
    if isinstance(expr, Pow):
        base = _reference_eval_node(expr.base)
        if base == 0 and expr.exponent < 0:
            raise DivisionByZero("zero raised to a negative exponent")
        return base**expr.exponent
    if isinstance(expr, Sqrt):
        operand = _reference_eval_node(expr.operand)
        if operand < 0:
            raise NegativeSqrt("square root of a negative value")
        return mpmath.sqrt(operand)
    raise TypeError(f"not a constant expression node: {expr!r}")


def _real_from_dict(doc: dict | None) -> PrecisionReal | None:
    if doc is None:
        return None
    return real_from_decimal(doc["decimal"], doc["precision_bits"])


def _coupling_from_dict(doc: dict | None) -> Coupling | None:
    if doc is None:
        return None
    return Coupling(c=parse_polynomial(doc["c"]), d=parse_polynomial(doc["d"]))


# report fields whose JSON form is not the value itself; the rest pass through
_DECODE = {
    "problem": dict,
    "coupling": _coupling_from_dict,
    "other_couplings": lambda docs: tuple(_coupling_from_dict(doc) for doc in docs),
    "rho": lambda text: None if text in (None, "infinite") else Fraction(text),
    "series_value": _real_from_dict,
    "gcf_value": _real_from_dict,
    "target_value": _real_from_dict,
}


def report_from_dict(doc: dict) -> VerificationReport:
    values = {f.name: doc[f.name] for f in fields(VerificationReport)}
    for key, decode in _DECODE.items():
        values[key] = decode(values[key])
    return VerificationReport(**values)
