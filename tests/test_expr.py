import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gcf_forge import (
    DivisionByZero,
    ExprSyntaxError,
    NegativeSqrt,
    NonPolynomial,
    Polynomial,
    UnknownSymbol,
    const_expr_to_text,
    eval_const_expr,
    parse_const_expr,
    parse_polynomial,
    parse_rational,
)
from gcf_forge.expr import (
    _MAX_DEGREE,
    _MAX_EXPONENT,
    _MAX_NESTING,
    _MAX_NODES,
    _MAX_POWER_BITS,
    Binary,
    Neg,
    Num,
    Pi,
    Pow,
    Sqrt,
    _fold_rational,
    _Parser,
)
from gcf_forge.numerics import matched_digits

from oracles import (
    eight_over_pi_squared,
    exact_value,
    fraction_decimal,
    polynomial,
    reference_eval_const_expr,
    reference_parse_const_expr,
    reference_parse_polynomial,
    reference_parse_rational,
)


class TestParsePolynomial:
    @pytest.mark.parametrize(
        "source,coefficients",
        [
            ("3*n^2+3*n+1", (1, 3, 3)),
            ("n", (0, 1)),
            ("-(2*n^4 - n^3)", (0, 0, 0, 1, -2)),
            ("  3 * n ^ 2\t+ 3*n + 1 ", (1, 3, 3)),
            ("1/2*n", (0, Fraction(1, 2))),
            ("n/2", (0, Fraction(1, 2))),
            ("-3/2", (Fraction(-3, 2),)),
            ("(n+1)*(n-1)", (-1, 0, 1)),
            ("n^(1+1)", (0, 0, 1)),
            ("0", ()),
        ],
    )
    def test_accepts(self, source, coefficients):
        assert parse_polynomial(source) == polynomial(coefficients)

    @pytest.mark.parametrize(
        "source", ["1/n", "(n+1)/(n-1)", "n^-1", "n^(1/2)", "n^n"]
    )
    def test_non_polynomial(self, source):
        with pytest.raises(NonPolynomial):
            parse_polynomial(source)

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_polynomial("3*n^2 @")
        assert err.value.position == 6

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse_polynomial("3*")

    def test_unknown_variable_is_syntax_error(self):
        with pytest.raises(UnknownSymbol):
            parse_polynomial("x + 1")

    def test_division_by_zero_literal(self):
        with pytest.raises(DivisionByZero):
            parse_polynomial("1/0")

    def test_parsed_polynomial_evaluates_like_source(self):
        p = parse_polynomial("3*n^2 + 3*n + 1")
        q = parse_polynomial("-(2*n^4 - n^3)")
        for n in range(11):
            assert p(n) == 3 * n**2 + 3 * n + 1
            assert q(n) == -(2 * n**4 - n**3)

    def test_parse_rational(self):
        assert parse_rational("-3/2") == Fraction(-3, 2)
        with pytest.raises(NonPolynomial):
            parse_rational("n + 1")


class TestParseConstExpr:
    def test_target_shape(self):
        assert parse_const_expr("8/pi^2") == Binary("/", Num(Fraction(8)), Pow(Pi(), 2))

    def test_arcsine_value_shape(self):
        expr = parse_const_expr("2*(pi/4)^2")
        assert expr == Binary("*", Num(Fraction(2)), Pow(Binary("/", Pi(), Num(Fraction(4))), 2))

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            parse_const_expr("8/tau^2")

    def test_pi_case_insensitive(self):
        assert parse_const_expr("PI") == parse_const_expr("pi") == Pi()

    def test_negative_exponent(self):
        assert parse_const_expr("pi^-2") == Pow(Pi(), -2)

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_const_expr("pi^pi")
        with pytest.raises(ExprSyntaxError):
            parse_const_expr("2^(1/2)")

    def test_sqrt(self):
        assert parse_const_expr("sqrt(2)") == Sqrt(Num(Fraction(2)))


class TestEvalConstExpr:
    def test_exact_dyadic(self):
        v = eval_const_expr(parse_const_expr("1/2"), 64)
        assert exact_value(v) == Fraction(1, 2)

    def test_eight_over_pi_squared(self):
        v = eval_const_expr(parse_const_expr("8/pi^2"), 256)
        reference = eight_over_pi_squared(72)
        assert abs(exact_value(v) - reference) <= Fraction(1, 10**70)
        assert v.to_decimal(40).startswith(
            fraction_decimal(reference, 35)
        )

    def test_algebraic_identity(self):
        lhs = eval_const_expr(parse_const_expr("2*(pi/4)^2"), 256)
        rhs = eval_const_expr(parse_const_expr("pi^2/8"), 256)
        assert matched_digits(lhs, rhs, 70) == 70

    def test_division_by_exact_zero(self):
        with pytest.raises(DivisionByZero):
            eval_const_expr(parse_const_expr("1/(1-1)"), 64)

    def test_negative_sqrt(self):
        with pytest.raises(NegativeSqrt):
            eval_const_expr(parse_const_expr("sqrt(1-2)"), 64)

    def test_zero_to_negative_power(self):
        with pytest.raises(DivisionByZero):
            eval_const_expr(parse_const_expr("0^-1"), 64)

    @pytest.mark.parametrize("source", ["8/pi^2", "sqrt(2)*pi", "(1-pi)^3"])
    @pytest.mark.parametrize("bits", [64, 128])
    def test_monotone_in_precision(self, source, bits):
        expr = parse_const_expr(source)
        coarse = eval_const_expr(expr, bits)
        fine = eval_const_expr(expr, 2 * bits)
        bound = Fraction(1, 2 ** (bits - 4)) * max(
            Fraction(1), abs(exact_value(coarse))
        )
        assert abs(exact_value(fine) - exact_value(coarse)) <= bound


# canonical text, then the exact 64-bit value or (error type, message); the
# errors pin the order in which the walkers meet the operands
_DBZ = (DivisionByZero, "division by zero in constant expression")


@pytest.mark.parametrize(
    "source,text,expected",
    [
        # the divisor is evaluated before the dividend
        ("sqrt(1-2)/(1-1)", "sqrt(1 - 2) / (1 - 1)", _DBZ),
        # the left operand is evaluated first
        ("sqrt(1-2) + 1/(1-1)", "sqrt(1 - 2) + 1 / (1 - 1)",
         (NegativeSqrt, "square root of a negative value")),
        # folding gives up on pi before it looks at the zero divisor
        ("pi^(pi/0)", None, (ExprSyntaxError, "exponent must be an integer (at offset 2)")),
        # folding folds both operands before it gives up on pi
        ("pi^(pi + 0/0)", None, _DBZ),
        ("1 - (2 - pi)", "1 - (2 - pi)",
         Fraction(9876352897726857781, 4611686018427387904)),
        ("(1 - 2) - pi", "1 - 2 - pi",
         Fraction(-4774931233645408397, 1152921504606846976)),
        ("2/(3/pi)", "2 / (3 / pi)", Fraction(9658692610769497123, 4611686018427387904)),
        ("-(pi)^2", "-pi^2", Fraction(-5689439577989151081, 576460752303423488)),
        ("(-pi)^2", "(-pi)^2", Fraction(5689439577989151081, 576460752303423488)),
        ("(6 + 2) * 1 / pi^(3 - 1) - 0", "(6 + 2) * 1 / pi^2 - 0",
         Fraction(14952367551164251575, 18446744073709551616)),
        ("sqrt(2)*pi - 3", "sqrt(2) * pi - 3",
         Fraction(13308246144264734011, 9223372036854775808)),
    ],
)
def test_const_expr_text_and_value(source, text, expected):
    def outcome():
        expr = parse_const_expr(source)
        assert const_expr_to_text(expr) == text
        return exact_value(eval_const_expr(expr, 64))

    if isinstance(expected, Fraction):
        assert outcome() == expected
    else:
        with pytest.raises(expected[0]) as info:
            outcome()
        assert (type(info.value), str(info.value)) == expected


# --- print/parse fixpoints ---------------------------------------------------

coefficients = st.fractions(
    min_value=Fraction(-999), max_value=Fraction(999), max_denominator=60
)
polynomials = st.lists(coefficients, min_size=0, max_size=6).map(polynomial)


@given(p=polynomials)
def test_polynomial_print_parse_fixpoint(p):
    assert parse_polynomial(p.to_text()) == p


def const_exprs():
    # leaves the parser itself can produce: nonnegative integer literals and pi
    # (rational literals reparse as division nodes, which the recursion covers)
    leaves = st.one_of(
        st.builds(Num, st.integers(min_value=0, max_value=99).map(Fraction)),
        st.just(Pi()),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Neg, inner),
            st.builds(Binary, st.sampled_from("+-*/"), inner, inner),
            st.builds(Pow, inner, st.integers(min_value=-4, max_value=4)),
            st.builds(Sqrt, inner),
        ),
        max_leaves=8,
    )


@given(expr=const_exprs())
def test_const_expr_print_parse_fixpoint(expr):
    assert parse_const_expr(const_expr_to_text(expr)) == expr


@given(expr=const_exprs(), bits=st.integers(min_value=8, max_value=2000))
@example(expr=Sqrt(Num(Fraction(-3, 4))), bits=8)
@example(expr=Binary("/", Num(Fraction(7, 12)), Binary("-", Pi(), Pi())), bits=64)
@example(expr=Pow(Binary("*", Num(Fraction(0)), Pi()), -2), bits=64)
def test_eval_matches_the_context_reference(expr, bits):
    # libmp at an explicit precision against mpf operators in a workprec context
    def outcome(evaluate):
        try:
            value = evaluate(expr, bits)
        except (DivisionByZero, NegativeSqrt) as exc:
            return type(exc), str(exc)
        return value.value._mpf_, value.precision_bits

    assert outcome(eval_const_expr) == outcome(reference_eval_const_expr)


# --- precedence against Python's own parser ----------------------------------


def arithmetic_trees():
    # ("lit", k) | ("neg", t) | ("pow", t, e) | (op, left, right); exponents
    # are 0..3, or k^m with k in {0, 1} so that right-associativity shows
    exponents = st.one_of(
        st.integers(min_value=0, max_value=3).map(lambda k: ("lit", k)),
        st.tuples(
            st.integers(min_value=0, max_value=1).map(lambda k: ("lit", k)),
            st.integers(min_value=0, max_value=3).map(lambda k: ("lit", k)),
        ).map(lambda pair: ("pow", *pair)),
    )
    return st.recursive(
        st.integers(min_value=0, max_value=9).map(lambda k: ("lit", k)),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from("+-*/"), inner, inner),
            inner.map(lambda t: ("neg", t)),
            st.tuples(st.just("pow"), inner, exponents),
        ),
        max_leaves=10,
    )


# binding strength: 1 for + -, 2 for * /, 3 for a sign, 4 for ^, 5 for a literal
_STRENGTH = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "lit": 5}


@st.composite
def rendered_tokens(draw, tree, slot=0):
    """Tokens of `tree` with the parentheses its slot needs, plus random ones."""
    kind = tree[0]
    if kind == "lit":
        tokens = [str(tree[1])]
    elif kind == "neg":
        tokens = ["-", *draw(rendered_tokens(tree[1], 3))]
    elif kind == "pow":
        base = draw(rendered_tokens(tree[1], 5))
        tokens = [*base, "^", *draw(rendered_tokens(tree[2], 4))]
    else:
        strength = _STRENGTH[kind]
        left = draw(rendered_tokens(tree[1], strength))
        tokens = [*left, kind, *draw(rendered_tokens(tree[2], strength + 1))]
    if _STRENGTH[kind] < slot or draw(st.integers(0, 4)) == 0:
        tokens = ["(", *tokens, ")"]
    return tokens


@st.composite
def precedence_cases(draw):
    tokens = draw(arithmetic_trees().flatmap(rendered_tokens))
    gaps = draw(st.lists(st.sampled_from(["", " ", "  "]), min_size=len(tokens)))
    text = "".join(gap + tok for gap, tok in zip(gaps, tokens))
    python = " ".join(
        f"Fraction({tok})" if tok.isdigit() else "**" if tok == "^" else tok
        for tok in tokens
    )
    return text, python


@given(case=precedence_cases())
def test_precedence_matches_python(case):
    text, python = case
    try:
        expected = eval(python, {"Fraction": Fraction})
    except ZeroDivisionError:
        assume(False)
    assert parse_rational(text) == expected
    assert _fold_rational(parse_const_expr(text), lambda: 0) == expected


# --- nesting and size budgets -------------------------------------------------


class TestBudgets:
    def test_nesting_past_budget_is_syntax_error(self):
        deepest = "(" * (_MAX_NESTING - 1) + "n" + ")" * (_MAX_NESTING - 1)
        assert parse_polynomial(deepest) == Polynomial([0, 1])
        too_deep = "(" * _MAX_NESTING + "n" + ")" * _MAX_NESTING
        with pytest.raises(ExprSyntaxError) as info:
            parse_polynomial(too_deep)
        assert info.value.position == _MAX_NESTING
        with pytest.raises(ExprSyntaxError):
            parse_const_expr("-" * 1000 + "1")
        with pytest.raises(ExprSyntaxError):
            parse_rational("2^" * 1000 + "1")

    def test_node_budget_is_syntax_error(self):
        with pytest.raises(ExprSyntaxError):
            parse_const_expr(" + ".join(["1"] * 5000))
        chain = "+".join(["1"] * (_MAX_NODES // 2 + 1))
        with pytest.raises(ExprSyntaxError) as info:
            parse_const_expr(chain)
        assert 0 < info.value.position <= len(chain)
        # polynomials build no tree, so long sums stay accepted
        assert parse_rational(" + ".join(["1"] * 5000)) == 5000

    @pytest.mark.parametrize("parse", [parse_polynomial, parse_rational, parse_const_expr])
    def test_literal_past_int_text_limit_is_syntax_error(self, parse):
        # int() refuses a digit run longer than the interpreter's limit (4300 by default)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the least the interpreter allows
        try:
            assert parse("1" * 640 + " + 1") is not None
            with pytest.raises(ExprSyntaxError) as info:
                parse("2 * (" + "1" * 641 + ")")
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(info.value) == "literal too long (at offset 5)"

    @pytest.mark.parametrize(
        "parse,source",
        [
            (parse_const_expr, "pi^(2^2^33)"),  # folding would build a 2^33-bit int
            (parse_const_expr, "pi^(4^(2^16))"),  # a 2^17-bit fold
            (parse_const_expr, "pi^(2^65536)"),  # mpmath takes minutes to evaluate it
            (parse_rational, "2^2^33"),
            (parse_polynomial, "(n+1)^100000"),
            (parse_polynomial, "(n^60 + 1) * (n^60 - 1)"),
            (parse_polynomial, "(3/2*n + 5)^" + "2^" * 12 + "2"),
        ],
        ids=["fold-exponent", "fold-bits", "exponent", "rational", "power-degree",
             "product-degree", "tower"],
    )
    def test_power_past_budget_is_syntax_error(self, parse, source):
        with pytest.raises(ExprSyntaxError) as info:
            parse(source)
        assert 0 < info.value.position < len(source)

    def test_largest_accepted_powers(self):
        half = _MAX_DEGREE // 2
        assert parse_polynomial(f"(n+1)^{_MAX_DEGREE}").degree == _MAX_DEGREE
        assert parse_polynomial(f"n^{half} * n^{_MAX_DEGREE - half}").degree == _MAX_DEGREE
        assert parse_rational(f"2^{_MAX_POWER_BITS}") == 2**_MAX_POWER_BITS
        folded = _fold_rational(parse_const_expr(f"(1/2)^{_MAX_POWER_BITS}"), lambda: 0)
        assert folded == Fraction(1, 2**_MAX_POWER_BITS)
        assert parse_rational(f"(-1)^{_MAX_EXPONENT}") == 1
        eval_const_expr(parse_const_expr(f"pi^-{_MAX_EXPONENT}"), 64)
        with pytest.raises(ExprSyntaxError):
            parse_rational(f"2^{_MAX_POWER_BITS + 1}")
        with pytest.raises(ExprSyntaxError):
            parse_const_expr(f"pi^{_MAX_EXPONENT + 1}")

    @pytest.mark.parametrize(
        "source",
        [
            "+".join(["1"] * 250),
            "-(" * 49 + "1" + ")" * 49,
            "sqrt(" * 49 + "4" + ")" * 49,
            "(" * 95 + "2^(" + "+".join(["0"] * 200) + "+1)" + ")" * 95,
        ],
        ids=["longest-sum", "deepest-signs", "deepest-sqrt", "deep-exponent"],
    )
    def test_largest_accepted_trees_print_and_evaluate(self, source):
        expr = parse_const_expr(source)
        assert parse_const_expr(const_expr_to_text(expr)) == expr
        eval_const_expr(expr, 64)


# --- parity with the previous parser --------------------------------------------

_PARSERS = (
    (parse_polynomial, reference_parse_polynomial),
    (parse_rational, reference_parse_rational),
    (parse_const_expr, reference_parse_const_expr),
)


def _outcome(parse, source):
    """('ok', value and its type) or ('raised', type, message, offset)."""
    try:
        value = parse(source)
    except Exception as exc:  # the comparison covers every exception
        return "raised", type(exc), str(exc), getattr(exc, "position", None)
    return "ok", type(value), value


def assert_same_as_reference(source):
    for parse, reference in _PARSERS:
        assert _outcome(parse, source) == _outcome(reference, source), (parse.__name__, source)


# pieces of the grammar plus near misses; joined at random they give mostly
# malformed text, and the trees below give well-formed text
_PIECES = [
    "n", "pi", "PI", "sqrt", "x", "n2", "_", "0", "1", "2", "3", "7", "10", "65536",
    "+", "-", "*", "/", "^", "(", ")", " ", "\t", "@",
]


def well_formed_texts():
    leaves = st.sampled_from(["n", "pi", "0", "1", "2", "3", "10", "2/3", "sqrt(2)"])
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/", " + ", " * "]), inner).map(
                "".join
            ),
            inner.map(lambda t: f"-{t}"),
            inner.map(lambda t: f"({t})"),
            st.tuples(inner, st.sampled_from(["0", "1", "2", "3", "(1+1)", "-1", "n"])).map(
                lambda pair: f"{pair[0]}^{pair[1]}"
            ),
        ),
        max_leaves=12,
    )


def test_offsets_only_for_an_error(monkeypatch):
    # a parse that succeeds finds no token offset, even through a power
    calls = []
    offset = _Parser.offset

    def spy(self, index):
        calls.append(index)
        return offset(self, index)

    monkeypatch.setattr(_Parser, "offset", spy)
    parse_const_expr("8/pi^2")
    assert calls == []
    # folding 4^(2^16) breaks the power budget: the one offset found is the outer caret's
    with pytest.raises(ExprSyntaxError, match="power too large") as info:
        parse_const_expr("8/pi^(4^(2^16))")
    assert (calls, info.value.position) == ([3], 4)


def polynomial_texts():
    """Texts that parse as polynomials, so the arithmetic itself is compared: leaves n and
    integers, + - * / ^ and unary minus, and often a division by a signed constant."""
    leaves = st.one_of(st.just("n"), st.integers(min_value=0, max_value=12).map(str))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/", " - ", " / "]), inner).map(
                "".join
            ),
            inner.map(lambda t: f"-{t}"),
            inner.map(lambda t: f"({t})"),
            st.tuples(inner, st.integers(min_value=0, max_value=3)).map(
                lambda pair: f"({pair[0]})^{pair[1]}"
            ),
            st.tuples(inner, st.integers(min_value=-6, max_value=6).filter(bool)).map(
                lambda pair: f"({pair[0]})/({pair[1]})"
            ),
        ),
        max_leaves=10,
    )


@settings(max_examples=300, deadline=None)
@given(source=st.one_of(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join),
                        well_formed_texts()))
def test_parsers_match_reference(source):
    assert_same_as_reference(source)


@settings(max_examples=300, deadline=None)
@given(source=polynomial_texts())
def test_polynomial_parsers_match_reference(source):
    assert_same_as_reference(source)


@pytest.mark.parametrize(
    "source",
    [
        "(" * (_MAX_NESTING - 1) + "n" + ")" * (_MAX_NESTING - 1),
        "(" * _MAX_NESTING + "n" + ")" * _MAX_NESTING,
        "-" * (_MAX_NESTING - 1) + "1",
        "-" * _MAX_NESTING + "1",
        "2^" * (_MAX_NESTING - 1) + "1",
        "2^" * _MAX_NESTING + "1",
        f"n^{_MAX_DEGREE}",
        f"n^{_MAX_DEGREE + 1}",
        f"(n+1)^{_MAX_DEGREE}",
        f"(n^2)^{_MAX_DEGREE // 2 + 1}",
        f"n^50 * n^{_MAX_DEGREE - 50}",
        f"n^50 * n^{_MAX_DEGREE - 49}",
        f"(n - n) * n^{_MAX_DEGREE}",
        f"1^{_MAX_EXPONENT}",
        f"1^{_MAX_EXPONENT + 1}",
        f"pi^-{_MAX_EXPONENT}",
        f"pi^-{_MAX_EXPONENT + 1}",
        f"(-1)^{_MAX_EXPONENT}",
        f"2^{_MAX_POWER_BITS}",
        f"2^{_MAX_POWER_BITS + 1}",
        f"(1/2)^{_MAX_POWER_BITS}",
        f"(6/4)^{_MAX_POWER_BITS}",
        f"(3/2)^{_MAX_POWER_BITS + 1}",
        f"4^{_MAX_POWER_BITS // 2}",
        f"4^{_MAX_POWER_BITS // 2 + 1}",
        f"(2*n/2)^{_MAX_POWER_BITS}",
        "+".join(["1"] * (_MAX_NODES // 2)),
        "+".join(["1"] * (_MAX_NODES // 2 + 1)),
        "1/0",
        "n/(n-n)",
        "n^(1/2)",
        "n^(4/2)",
        "n^-1",
        "",
        "   ",
        "sqrt",
        "sqrt(2",
        "3*n^2 @",
        "(n + 1  ",
        "n )  ",
    ],
)
def test_budget_edges_match_reference(source):
    assert_same_as_reference(source)


@pytest.mark.parametrize(
    "source,offset", [("2²*n", 1), ("²", 0), ("٣*n", 0), ("n + ½", 4), ("n١", 1)]
)
def test_non_ascii_digits_are_syntax_errors(source, offset):
    for parse in (parse_polynomial, parse_rational, parse_const_expr):
        with pytest.raises(ExprSyntaxError) as info:
            parse(source)
        assert info.value.position == offset
        assert str(info.value) == f"unexpected character {source[offset]!r} (at offset {offset})"
