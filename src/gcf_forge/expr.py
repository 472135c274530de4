"""One operator grammar read two ways, and constant evaluation.

Polynomials in the index variable n: integer/rational literals, `+ - * ^`
(caret takes nonnegative integer exponents), unary minus, parentheses,
and `/` only where the divisor is a nonzero constant. Constant target
expressions: rational literals, `pi`, `+ - * / ^` with integer exponents,
`sqrt(...)`. Literals are runs of ASCII digits and names are ASCII
identifiers; any other character but whitespace is a syntax error.
Whitespace is insignificant; offsets in errors are 0-based.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Callable

from mpmath import libmp, mp

from .errors import (
    DivisionByZero,
    ExprSyntaxError,
    NegativeSqrt,
    NonPolynomial,
    UnknownSymbol,
)
from .numerics import PrecisionReal, _round_ratio
from .poly import Polynomial, _power, _product, _reduced


# --- tokens and the shared descent -------------------------------------------

# after optional whitespace: an ASCII digit run, an ASCII identifier or an operator
_TOKEN = re.compile(r"\s*([0-9]+|[A-Za-z_][A-Za-z0-9_]*|[-+*/^()])")

# Budgets that keep every accepted tree within plain recursion (nesting of
# parentheses, signs and carets; nodes of one constant) and exact arithmetic
# small (an exponent's magnitude; the bits of a power; a polynomial's degree).
_MAX_NESTING = 100
_MAX_NODES = 500
_MAX_EXPONENT = 1 << 16
_MAX_POWER_BITS = 1 << 16
_MAX_DEGREE = 100


def _power_excess(numerators, denominator: int, exponent: int) -> str | None:
    """Why a power is past the budgets, or None; checked before it is computed.

    The base's coefficients are numerators over one denominator. With b the
    larger bit length of a reduced coefficient's num and den, q^e has about
    |e| (b - 1) to 2 |e| (b - 1) bits (b = 1: 0, +-1).
    """
    if abs(exponent) > _MAX_EXPONENT:
        return "exponent too large"
    b = 1
    for c in numerators:
        g = math.gcd(c, denominator)
        b = max(b, (c // g).bit_length(), (denominator // g).bit_length())
    return "power too large" if abs(exponent) * (b - 1) > _MAX_POWER_BITS else None


class _Parser:
    """Token cursor and precedence descent; subclasses say what operators mean.

    Tokens are the texts _TOKEN finds, then "" for the end. Offsets are found
    only for an error: keeping one per token cost about a fifth of a parse.
    """

    def __init__(self, source: str):
        self.source = source
        self.tokens = _TOKEN.findall(source)
        if sum(map(len, self.tokens)) != len("".join(source.split())):
            # a character that is neither whitespace nor in a token
            at = next(i for i, ch in enumerate(source) if not (ch.isspace() or _TOKEN.match(ch)))
            raise ExprSyntaxError(f"unexpected character {source[at]!r}", at)
        self.tokens.append("")
        self.offsets: list[int] = []
        self.index = 0
        self.nesting = 0

    def offset(self, index: int) -> int:
        """The 0-based offset of token `index`; the source's length for the end."""
        if not self.offsets:  # from the end of one token, only whitespace comes before the next
            end = 0
            for text in self.tokens[:-1]:
                self.offsets.append(end := self.source.index(text, end))
                end += len(text)
            self.offsets.append(len(self.source))
        return self.offsets[index]

    def expect_op(self, op: str) -> None:
        if self.tokens[self.index] != op:
            raise ExprSyntaxError(f"expected {op!r}", self.offset(self.index))
        self.index += 1

    def parse(self):
        value = self.expression()
        if text := self.tokens[self.index]:
            raise ExprSyntaxError(f"unexpected {text!r}", self.offset(self.index))
        return value

    def expression(self):
        value = self.term()
        while self.tokens[self.index] in ("+", "-"):
            self.index += 1
            value = self.binary(self.index - 1, value, self.term())
        return value

    def term(self):
        value = self.unary()
        while self.tokens[self.index] in ("*", "/"):
            self.index += 1
            value = self.binary(self.index - 1, value, self.unary())
        return value

    def unary(self):
        self.nesting += 1
        if self.nesting > _MAX_NESTING:
            raise ExprSyntaxError("nesting too deep", self.offset(self.index))
        text = self.tokens[self.index]
        self.index += 1
        if text == "-":
            value = self.negate(self.unary())
        elif text == "+":
            value = self.unary()
        else:
            if text.isdigit():
                try:
                    value = self.literal(int(text))
                except ValueError:  # more digits than the interpreter converts to an int
                    raise ExprSyntaxError("literal too long", self.offset(self.index - 1)) from None
            elif text.isidentifier():
                value = self.name(self.index - 1)
            elif text == "(":
                value = self.expression()
                self.expect_op(")")
            else:
                raise ExprSyntaxError("expected a value", self.offset(self.index - 1))
            if self.tokens[self.index] == "^":
                self.index += 1
                value = self.power(self.index - 1, value, self.unary())
        self.nesting -= 1
        return value


# --- polynomial grammar ----------------------------------------------------


class _PolynomialParser(_Parser):
    """Values are (int list, lowest degree first, no trailing zero; positive int)
    pairs. Products and quotients are reduced, so no chain of them grows the
    ints; parse_polynomial makes the canonical Polynomial once."""

    def binary(self, index: int, left, right):
        (a, p), (b, q) = left, right
        op = self.tokens[index]
        if op == "*":
            if len(a) + len(b) - 2 > _MAX_DEGREE:
                raise ExprSyntaxError("degree too large", self.offset(index))
            return _reduced(_product(a, b) if a and b else [], p * q)
        if op == "/":
            if len(b) > 1:
                raise NonPolynomial("division by an expression containing n", self.offset(index))
            if not b:
                raise DivisionByZero(f"division by zero (at offset {self.offset(index)})")
            return _reduced([c * q for c in a], p * b[0])
        if op == "-":
            b = [-c for c in b]
        if p != q:
            g = math.gcd(p, q)
            a, b, p = [c * (q // g) for c in a], [c * (p // g) for c in b], p // g * q
        out = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
        while out and not out[-1]:
            out.pop()
        return out, p

    def negate(self, value):
        return [-c for c in value[0]], value[1]

    def power(self, index: int, base, exponent):
        e, q = exponent
        if len(e) > 1:
            raise NonPolynomial("exponent contains n", self.offset(index))
        value, rest = divmod(e[0], q) if e else (0, 0)
        if rest:
            raise NonPolynomial("exponent must be an integer", self.offset(index))
        if value < 0:
            raise NonPolynomial("negative exponent", self.offset(index))
        if excess := _power_excess(*base, value):
            raise ExprSyntaxError(excess, self.offset(index))
        if (len(base[0]) - 1) * value > _MAX_DEGREE:
            raise ExprSyntaxError("degree too large", self.offset(index))
        numerators, denominator = _reduced(*base)
        return _power(numerators, value), denominator**value

    def literal(self, value: int):
        return [value] if value else [], 1

    def name(self, index: int):
        if self.tokens[index] != "n":
            raise UnknownSymbol(self.tokens[index], self.offset(index))
        return [0, 1], 1


def parse_polynomial(source: str) -> Polynomial:
    """Parse polynomial text into canonical dense-coefficient form."""
    return Polynomial(*_PolynomialParser(source).parse())


def parse_rational(source: str) -> Fraction:
    """Parse text that must denote a constant, e.g. '1', '-3/2', '(1+1)/4'."""
    numerators, denominator = _PolynomialParser(source).parse()
    if len(numerators) > 1:
        raise NonPolynomial("expected a constant, found n", 0)
    return Fraction(numerators[0] if numerators else 0, denominator)


# --- constant-expression grammar -------------------------------------------


class ConstExpr:
    __slots__ = ()


@dataclass(frozen=True)
class Num(ConstExpr):
    value: Fraction


@dataclass(frozen=True)
class Pi(ConstExpr):
    pass


@dataclass(frozen=True)
class Neg(ConstExpr):
    operand: ConstExpr


@dataclass(frozen=True)
class Binary(ConstExpr):
    op: str  # one of "+ - * /"
    left: ConstExpr
    right: ConstExpr


@dataclass(frozen=True)
class Pow(ConstExpr):
    base: ConstExpr
    exponent: int


@dataclass(frozen=True)
class Sqrt(ConstExpr):
    operand: ConstExpr


# what a Binary node's op does: to Fractions when folding, to raw mpfs when evaluating
_ARITHMETIC = {
    "+": (operator.add, libmp.mpf_add), "-": (operator.sub, libmp.mpf_sub),
    "*": (operator.mul, libmp.mpf_mul), "/": (operator.truediv, libmp.mpf_div),
}


class _ConstParser(_Parser):
    size = 0

    def node(self, kind: type, *parts) -> ConstExpr:
        self.size += 1
        if self.size > _MAX_NODES:
            raise ExprSyntaxError("constant expression too large", self.offset(self.index))
        return kind(*parts)

    def binary(self, index: int, left: ConstExpr, right: ConstExpr) -> ConstExpr:
        return self.node(Binary, self.tokens[index], left, right)

    def negate(self, value: ConstExpr) -> ConstExpr:
        return self.node(Neg, value)

    def power(self, index: int, base: ConstExpr, exponent: ConstExpr) -> ConstExpr:
        folded = _fold_rational(exponent, lambda: self.offset(index))
        if folded is None or folded.denominator != 1:
            raise ExprSyntaxError("exponent must be an integer", self.offset(index))
        if excess := _power_excess((), 1, int(folded)):
            raise ExprSyntaxError(excess, self.offset(index))
        return self.node(Pow, base, int(folded))

    def literal(self, value: int) -> ConstExpr:
        return self.node(Num, Fraction(value))

    def name(self, index: int) -> ConstExpr:
        name = self.tokens[index].lower()
        if name == "pi":
            return self.node(Pi)
        if name != "sqrt":
            raise UnknownSymbol(self.tokens[index], self.offset(index))
        self.expect_op("(")
        operand = self.expression()
        self.expect_op(")")
        return self.node(Sqrt, operand)


def _fold_rational(expr: ConstExpr, position: Callable[[], int]) -> Fraction | None:
    """Exact value of a pi/sqrt-free subtree, else None; position() places an error."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Neg):
        v = _fold_rational(expr.operand, position)
        return None if v is None else -v
    if isinstance(expr, Binary):
        left = _fold_rational(expr.left, position)
        right = _fold_rational(expr.right, position)
        if left is None or right is None:
            return None
        if expr.op == "/" and right == 0:
            raise DivisionByZero("division by zero in constant expression")
        return _ARITHMETIC[expr.op][0](left, right)
    if isinstance(expr, Pow):
        base = _fold_rational(expr.base, position)
        if base is None:
            return None
        if base == 0 and expr.exponent < 0:
            raise DivisionByZero("zero raised to a negative exponent")
        if excess := _power_excess((base.numerator,), base.denominator, expr.exponent):
            raise ExprSyntaxError(excess, position())
        return base**expr.exponent
    return None


def parse_const_expr(source: str) -> ConstExpr:
    """Parse a constant target expression; `pi` is case-insensitive."""
    return _ConstParser(source).parse()


def eval_const_expr(expr: ConstExpr, precision_bits: int) -> PrecisionReal:
    """Evaluate to a binary float carrying `precision_bits` bits.

    Every node is rounded to nearest at 16 guard bits above the request, and the
    value once more to the request, each by a libmp call at that explicit precision,
    so no global mpmath setting is read. The relative error stays within
    2^(4-precision_bits) for expressions of sane size.
    """
    if precision_bits < 8:
        raise ValueError("precision_bits must be at least 8")
    value = _eval_node(expr, (precision_bits + 16, libmp.round_nearest))
    value = libmp.mpf_pos(value, precision_bits, libmp.round_nearest)
    return PrecisionReal(mp.make_mpf(value), precision_bits)


def _eval_node(expr: ConstExpr, at: tuple[int, str]) -> tuple:
    """The raw mpf of expr; every libmp call takes at = (precision, rounding)."""
    if isinstance(expr, Num):
        return _round_ratio(expr.value.numerator, expr.value.denominator, at[0])
    if isinstance(expr, Pi):
        return libmp.mpf_pi(*at)
    if isinstance(expr, Neg):
        return libmp.mpf_neg(_eval_node(expr.operand, at), *at)
    if isinstance(expr, Binary):
        apply = _ARITHMETIC[expr.op][1]
        if expr.op != "/":
            return apply(_eval_node(expr.left, at), _eval_node(expr.right, at), *at)
        right = _eval_node(expr.right, at)  # before the dividend, so a zero divisor raises first
        if right == libmp.fzero:
            raise DivisionByZero("division by zero in constant expression")
        return apply(_eval_node(expr.left, at), right, *at)
    if isinstance(expr, Pow):
        base = _eval_node(expr.base, at)
        if base == libmp.fzero and expr.exponent < 0:
            raise DivisionByZero("zero raised to a negative exponent")
        return libmp.mpf_pow_int(base, expr.exponent, *at)
    if isinstance(expr, Sqrt):
        operand = _eval_node(expr.operand, at)
        if operand[0]:  # the sign bit of a nonzero finite mpf
            raise NegativeSqrt("square root of a negative value")
        return libmp.mpf_sqrt(operand, *at)
    raise TypeError(f"not a constant expression node: {expr!r}")


# precedence levels for printing: higher binds tighter
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def const_expr_to_text(expr: ConstExpr) -> str:
    """Canonical text that reparses to a structurally equal tree."""
    return _print_node(expr, 0)


def _print_node(expr: ConstExpr, slot: int) -> str:
    if isinstance(expr, Num):  # str(Fraction) is "p" or "p/q"
        value = expr.value
        prec = _PREC_NEG if value < 0 else _PREC_ATOM if value.denominator == 1 else _PREC_MUL
        return _wrap(str(value), prec, slot)
    if isinstance(expr, Pi):
        return "pi"
    if isinstance(expr, Neg):
        return _wrap(f"-{_print_node(expr.operand, _PREC_NEG)}", _PREC_NEG, slot)
    if isinstance(expr, Binary):
        prec = _PREC_ADD if expr.op in "+-" else _PREC_MUL
        # a right operand of equal precedence needs parentheses: a - (b - c)
        text = f"{_print_node(expr.left, prec)} {expr.op} {_print_node(expr.right, prec + 1)}"
        return _wrap(text, prec, slot)
    if isinstance(expr, Pow):
        text = f"{_print_node(expr.base, _PREC_ATOM)}^{expr.exponent}"
        return _wrap(text, _PREC_POW, slot)
    if isinstance(expr, Sqrt):
        return f"sqrt({_print_node(expr.operand, 0)})"
    raise TypeError(f"not a constant expression node: {expr!r}")


def _wrap(text: str, prec: int, slot: int) -> str:
    return f"({text})" if prec < slot else text
