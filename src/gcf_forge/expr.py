"""One operator grammar read two ways, and constant evaluation.

Polynomials in the index variable n: integer/rational literals, `+ - * ^`
(caret takes nonnegative integer exponents), unary minus, parentheses,
and `/` only where the divisor is a nonzero constant. Constant target
expressions: rational literals, `pi`, `+ - * / ^` with integer exponents,
`sqrt(...)`. Whitespace is insignificant; offsets in errors are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import (
    DivisionByZero,
    ExprSyntaxError,
    NegativeSqrt,
    NonPolynomial,
    UnknownSymbol,
)
from .numerics import PrecisionReal, _mpf_from_fraction
from .poly import Polynomial


# --- tokenizer and the shared descent ---------------------------------------

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


# Budgets that keep every accepted tree within plain recursion (nesting of
# parentheses, signs and carets; nodes of one constant) and exact arithmetic
# small (an exponent's magnitude; the bits of a power; a polynomial's degree).
_MAX_NESTING = 100
_MAX_NODES = 500
_MAX_EXPONENT = 1 << 16
_MAX_POWER_BITS = 1 << 16
_MAX_DEGREE = 100


def _check_power(numerators, denominator: int, exponent: int, position: int) -> None:
    """Refuse a power past the budgets before it is computed.

    The base's coefficients are numerators over one denominator. With b the
    larger bit length of a reduced coefficient's num and den, q^e has about
    |e| (b - 1) to 2 |e| (b - 1) bits (b = 1: 0, +-1).
    """
    if abs(exponent) > _MAX_EXPONENT:
        raise ExprSyntaxError("exponent too large", position)
    b = 1
    for c in numerators:
        g = math.gcd(c, denominator)
        b = max(b, (c // g).bit_length(), (denominator // g).bit_length())
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


# --- polynomial grammar ----------------------------------------------------


class _PolynomialParser(_Parser):
    def binary(self, tok: _Token, left: Polynomial, right: Polynomial) -> Polynomial:
        if tok.text == "+":
            return left + right
        if tok.text == "-":
            return left - right
        if tok.text == "*":
            if left.degree + right.degree > _MAX_DEGREE:
                raise ExprSyntaxError("degree too large", tok.pos)
            return left * right
        if right.degree > 0:
            raise NonPolynomial("division by an expression containing n", tok.pos)
        if right.is_zero:
            raise DivisionByZero(f"division by zero (at offset {tok.pos})")
        return left / right.constant_term

    def negate(self, value: Polynomial) -> Polynomial:
        return -value

    def power(self, tok: _Token, base: Polynomial, exponent: Polynomial) -> Polynomial:
        if exponent.degree > 0:
            raise NonPolynomial("exponent contains n", tok.pos)
        value = exponent.constant_term
        if value.denominator != 1:
            raise NonPolynomial("exponent must be an integer", tok.pos)
        if value < 0:
            raise NonPolynomial("negative exponent", tok.pos)
        _check_power(base.numerators, base.denominator, int(value), tok.pos)
        if base.degree * value > _MAX_DEGREE:
            raise ExprSyntaxError("degree too large", tok.pos)
        return base ** int(value)

    def literal(self, value: int) -> Polynomial:
        return Polynomial.constant(value)

    def name(self, tok: _Token) -> Polynomial:
        if tok.text != "n":
            raise UnknownSymbol(tok.text, tok.pos)
        self.advance()
        return Polynomial.variable()


def parse_polynomial(source: str) -> Polynomial:
    """Parse polynomial text into canonical dense-coefficient form."""
    return _PolynomialParser(source).parse()


def parse_rational(source: str) -> Fraction:
    """Parse text that must denote a constant, e.g. '1', '-3/2', '(1+1)/4'."""
    value = parse_polynomial(source)
    if value.degree > 0:
        raise NonPolynomial("expected a constant, found n", 0)
    return value.constant_term


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
class Add(ConstExpr):
    left: ConstExpr
    right: ConstExpr


@dataclass(frozen=True)
class Sub(ConstExpr):
    left: ConstExpr
    right: ConstExpr


@dataclass(frozen=True)
class Mul(ConstExpr):
    left: ConstExpr
    right: ConstExpr


@dataclass(frozen=True)
class Div(ConstExpr):
    left: ConstExpr
    right: ConstExpr


@dataclass(frozen=True)
class Pow(ConstExpr):
    base: ConstExpr
    exponent: int


@dataclass(frozen=True)
class Sqrt(ConstExpr):
    operand: ConstExpr


_BINARY_NODES = {"+": Add, "-": Sub, "*": Mul, "/": Div}
_NODE_SYMBOLS = {kind: symbol for symbol, kind in _BINARY_NODES.items()}


class _ConstParser(_Parser):
    size = 0

    def node(self, kind: type, *parts) -> ConstExpr:
        self.size += 1
        if self.size > _MAX_NODES:
            raise ExprSyntaxError("constant expression too large", self.peek().pos)
        return kind(*parts)

    def binary(self, tok: _Token, left: ConstExpr, right: ConstExpr) -> ConstExpr:
        return self.node(_BINARY_NODES[tok.text], left, right)

    def negate(self, value: ConstExpr) -> ConstExpr:
        return self.node(Neg, value)

    def power(self, tok: _Token, base: ConstExpr, exponent: ConstExpr) -> ConstExpr:
        folded = _fold_rational(exponent, tok.pos)
        if folded is None or folded.denominator != 1:
            raise ExprSyntaxError("exponent must be an integer", tok.pos)
        _check_power((), 1, int(folded), tok.pos)
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


def _fold_rational(expr: ConstExpr, position: int) -> Fraction | None:
    """Exact value of a pi/sqrt-free subtree, else None; position is for errors."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Neg):
        v = _fold_rational(expr.operand, position)
        return None if v is None else -v
    if isinstance(expr, (Add, Sub, Mul, Div)):
        left = _fold_rational(expr.left, position)
        right = _fold_rational(expr.right, position)
        if left is None or right is None:
            return None
        if isinstance(expr, Add):
            return left + right
        if isinstance(expr, Sub):
            return left - right
        if isinstance(expr, Mul):
            return left * right
        if right == 0:
            raise DivisionByZero("division by zero in constant expression")
        return left / right
    if isinstance(expr, Pow):
        base = _fold_rational(expr.base, position)
        if base is None:
            return None
        if base == 0 and expr.exponent < 0:
            raise DivisionByZero("zero raised to a negative exponent")
        _check_power((base.numerator,), base.denominator, expr.exponent, position)
        return base**expr.exponent
    return None


def parse_const_expr(source: str) -> ConstExpr:
    """Parse a constant target expression; `pi` is case-insensitive."""
    return _ConstParser(source).parse()


def eval_const_expr(expr: ConstExpr, precision_bits: int) -> PrecisionReal:
    """Evaluate to a binary float carrying `precision_bits` bits.

    Work happens at 16 guard bits above the request and is rounded once
    at the end, keeping the relative error within 2^(4-precision_bits)
    for expressions of sane size.
    """
    if precision_bits < 8:
        raise ValueError("precision_bits must be at least 8")
    with mpmath.mp.workprec(precision_bits + 16):
        value = _eval_node(expr)
    with mpmath.mp.workprec(precision_bits):
        value = +value
    return PrecisionReal(value, precision_bits)


def _eval_node(expr: ConstExpr):
    if isinstance(expr, Num):
        return _mpf_from_fraction(expr.value)
    if isinstance(expr, Pi):
        return +mpmath.mp.pi
    if isinstance(expr, Neg):
        return -_eval_node(expr.operand)
    if isinstance(expr, Add):
        return _eval_node(expr.left) + _eval_node(expr.right)
    if isinstance(expr, Sub):
        return _eval_node(expr.left) - _eval_node(expr.right)
    if isinstance(expr, Mul):
        return _eval_node(expr.left) * _eval_node(expr.right)
    if isinstance(expr, Div):
        denominator = _eval_node(expr.right)
        if denominator == 0:
            raise DivisionByZero("division by zero in constant expression")
        return _eval_node(expr.left) / denominator
    if isinstance(expr, Pow):
        base = _eval_node(expr.base)
        if base == 0 and expr.exponent < 0:
            raise DivisionByZero("zero raised to a negative exponent")
        return base**expr.exponent
    if isinstance(expr, Sqrt):
        operand = _eval_node(expr.operand)
        if operand < 0:
            raise NegativeSqrt("square root of a negative value")
        return mpmath.sqrt(operand)
    raise TypeError(f"not a constant expression node: {expr!r}")


# precedence levels for printing: higher binds tighter
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def const_expr_to_text(expr: ConstExpr) -> str:
    """Canonical text that reparses to a structurally equal tree."""
    return _print_node(expr, 0)


def _print_node(expr: ConstExpr, slot: int) -> str:
    if isinstance(expr, Num):
        if expr.value.denominator == 1:
            text, prec = str(expr.value.numerator), _PREC_ATOM
            if expr.value < 0:
                prec = _PREC_NEG
        else:
            text = f"{expr.value.numerator}/{expr.value.denominator}"
            prec = _PREC_MUL
            if expr.value < 0:
                prec = _PREC_NEG
        return _wrap(text, prec, slot)
    if isinstance(expr, Pi):
        return "pi"
    if isinstance(expr, Neg):
        return _wrap(f"-{_print_node(expr.operand, _PREC_NEG)}", _PREC_NEG, slot)
    if isinstance(expr, (Add, Sub, Mul, Div)):
        symbol = _NODE_SYMBOLS[type(expr)]
        prec = _PREC_ADD if symbol in "+-" else _PREC_MUL
        # a right operand of equal precedence needs parentheses: a - (b - c)
        text = f"{_print_node(expr.left, prec)} {symbol} {_print_node(expr.right, prec + 1)}"
        return _wrap(text, prec, slot)
    if isinstance(expr, Pow):
        text = f"{_print_node(expr.base, _PREC_ATOM)}^{expr.exponent}"
        return _wrap(text, _PREC_POW, slot)
    if isinstance(expr, Sqrt):
        return f"sqrt({_print_node(expr.operand, 0)})"
    raise TypeError(f"not a constant expression node: {expr!r}")


def _wrap(text: str, prec: int, slot: int) -> str:
    return f"({text})" if prec < slot else text
