from fractions import Fraction

import pytest

from seedgrade.errors import ParseError, TypeMismatch, UnknownCommand
from seedgrade.nodes import AnswerType, Kind, add, const, func, mul, neg, num, pow_, relation, sym
from seedgrade.parser import parse_answer, parse_expression, serialize, tokenize
from seedgrade.preprocess import canonicalize_latex


def parse(s):
    return parse_expression(canonicalize_latex(s))


class TestTokenize:
    def test_kinetic_term_token_stream(self):
        toks = tokenize(canonicalize_latex(r"\frac{\hbar^2 k_x^2}{2m}"))
        kinds = [(t.kind, t.value) for t in toks]
        assert kinds == [
            ("frac", None),
            ("lbrace", None),
            ("sym", "hbar"),
            ("caret", None),
            ("num", Fraction(2)),
            ("imul", None),
            ("sym", "k_x"),
            ("caret", None),
            ("num", Fraction(2)),
            ("rbrace", None),
            ("lbrace", None),
            ("num", Fraction(2)),
            ("imul", None),
            ("sym", "m"),
            ("rbrace", None),
        ]

    def test_longest_match_left_vs_le(self):
        # \left is removed upstream; \le survives as a relation operator
        toks = tokenize(canonicalize_latex(r"a \le b"))
        assert [t.kind for t in toks] == ["sym", "relop", "sym"]

    def test_implicit_mul_cases(self):
        assert [t.kind for t in tokenize("2x")] == ["num", "imul", "sym"]
        assert [t.kind for t in tokenize("x y")] == ["sym", "imul", "sym"]
        assert [t.kind for t in tokenize("(a)(b)")][3:5] == ["imul", "lparen"]

    def test_subscript_glue(self):
        assert tokenize("k_x")[0].value == "k_x"
        assert tokenize("T_{c}")[0].value == "T_c"
        assert tokenize(canonicalize_latex(r"\varepsilon_0"))[0].value == "varepsilon_0"

    def test_delta_glue(self):
        toks = tokenize(canonicalize_latex(r"\Delta E"))
        assert [(t.kind, t.value) for t in toks] == [("sym", "Delta_E")]

    def test_unknown_command(self):
        # the tokenizer reads ASCII only; normalization maps or drops the rest
        for src in (r"\foobar x", "x\u00b2", "\u00e9"):
            with pytest.raises(UnknownCommand):
                tokenize(src)

    def test_decimal_number(self):
        assert tokenize("3.25")[0].value == Fraction("3.25")

    @pytest.mark.parametrize("src, value", [("1.50", Fraction(3, 2)), ("007", Fraction(7))])
    def test_literal_values(self, src, value):
        (tok,) = tokenize(src)
        assert tok.value == value and type(tok.value) is Fraction

    def test_positions_after_space_runs(self):
        toks = tokenize("x  +   y")
        assert [(t.kind, t.pos) for t in toks] == [("sym", 0), ("plus", 3), ("sym", 7)]
        assert [(t.kind, t.pos) for t in tokenize("   2 x")] == [
            ("num", 3), ("imul", 5), ("sym", 5)]

    def test_environment_name_after_space(self):
        toks = tokenize(r"  \begin {pmatrix} 1 \end  {pmatrix}")
        assert [(t.kind, t.value, t.pos) for t in toks] == [
            ("begin", "pmatrix", 2), ("num", Fraction(1), 19), ("end", "pmatrix", 21)]

    def test_trailing_spaces(self):
        assert [(t.kind, t.pos) for t in tokenize("x   ")] == [("sym", 0)]
        assert tokenize("   ") == []

    @pytest.mark.parametrize("src, name, pos", [
        ("x   ?", "?", 4),
        ("  \t", "\t", 2),
        ("x  \\,", "\\,", 3),
        ("x \\", "\\", 2),
    ])
    def test_unknown_character_after_spaces(self, src, name, pos):
        with pytest.raises(UnknownCommand) as exc:
            tokenize(src)
        assert (exc.value.name, exc.value.position) == (name, pos)


class TestParse:
    def test_precedence(self):
        assert parse("2x^3") == mul(num(2), pow_(sym("x"), num(3)))
        assert parse("-x^2") == neg(pow_(sym("x"), num(2)))
        assert parse("a+b c") == add(sym("a"), mul(sym("b"), sym("c")))

    def test_power_right_assoc(self):
        assert parse("x^2^3") == pow_(sym("x"), pow_(num(2), num(3)))

    def test_division_left_assoc(self):
        # a/bc reads ((a / b) * c)
        assert parse("a/bc") == mul(sym("a"), pow_(sym("b"), num(-1)), sym("c"))

    def test_frac(self):
        assert parse(r"\frac{a}{b}") == mul(sym("a"), pow_(sym("b"), num(-1)))

    def test_sqrt_and_root(self):
        assert parse(r"\sqrt{x}") == pow_(sym("x"), num(Fraction(1, 2)))
        assert parse(r"\sqrt[3]{x}") == pow_(sym("x"), num(Fraction(1, 3)))

    def test_constants(self):
        assert parse(r"\pi e i") == mul(const("pi"), const("e"), const("i"))

    def test_function_power_shorthand(self):
        assert parse(r"\sin^2 x") == pow_(func("sin", sym("x")), num(2))

    def test_factorial(self):
        assert parse("n!") == func("factorial", sym("n"))

    def test_relation(self):
        assert parse("E = m c^2") == relation(
            "=", sym("E"), mul(sym("m"), pow_(sym("c"), num(2)))
        )
        assert parse(r"T < T_c") == relation("<", sym("T"), sym("T_c"))

    def test_double_relation_rejected(self):
        with pytest.raises(ParseError):
            parse("a = b = c")

    def test_derivative_forms(self):
        d = parse(r"\frac{d}{dx} x^2")
        assert d.kind is Kind.DERIVATIVE
        assert d.children == (pow_(sym("x"), num(2)), sym("x"))
        d2 = parse(r"\frac{df}{dx}")
        assert d2.kind is Kind.DERIVATIVE
        assert d2.children == (sym("f"), sym("x"))

    def test_matrix(self):
        m = parse(r"\begin{pmatrix} 1 & 0 \\ 0 & 1 \end{pmatrix}")
        assert m.kind is Kind.MATRIX
        assert m.payload == (2, 2)
        assert m.children == (num(1), num(0), num(0), num(1))

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ParseError):
            parse(r"\begin{pmatrix} 1 & 0 \\ 1 \end{pmatrix}")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("x + ")

    @pytest.mark.parametrize("src, position, expectation", [
        ("x +", 2, "operand"),
        ("x^", 2, "exponent"),
        ("(x", 2, "rparen"),
        ("x )", 1, "end of input"),
        (r"\begin{pmatrix} 1", 2, r"\end{pmatrix}"),
    ])
    def test_error_at_end_of_input(self, src, position, expectation):
        with pytest.raises(ParseError) as exc:
            parse_expression(src)
        assert (exc.value.position, exc.value.expectation) == (position, expectation)


class TestParseAnswer:
    def test_expression_strips_lhs_name(self):
        a = parse_answer(canonicalize_latex(r"\tau = 2x"), AnswerType.EXPRESSION)
        assert a.parts[0] == mul(num(2), sym("x"))

    def test_expression_rejects_inequality(self):
        with pytest.raises(TypeMismatch):
            parse_answer(canonicalize_latex("x < 2"), AnswerType.EXPRESSION)

    def test_equation_requires_relation(self):
        with pytest.raises(TypeMismatch):
            parse_answer(canonicalize_latex("x + 2"), AnswerType.EQUATION)

    def test_tuple_split(self):
        a = parse_answer(canonicalize_latex(r"(1, 2, 3)"), AnswerType.TUPLE)
        assert a.parts == (num(1), num(2), num(3))

    def test_tuple_nested_commas_not_split(self):
        from seedgrade.parser import _split_top_level

        assert _split_top_level("f(a, b), 2") == ["f(a, b)", " 2"]

    def test_tuple_needs_comma(self):
        with pytest.raises(TypeMismatch):
            parse_answer(canonicalize_latex("(42)"), AnswerType.TUPLE)

    def test_interval_openness(self):
        a = parse_answer(canonicalize_latex("[0, L)"), AnswerType.INTERVAL)
        node = a.parts[0]
        assert node.kind is Kind.INTERVAL
        assert node.payload == (False, True)
        assert node.children == (num(0), sym("L"))

    def test_interval_after_name(self):
        a = parse_answer(canonicalize_latex("x = (0, 1)"), AnswerType.INTERVAL)
        assert a.parts[0].payload == (True, True)

    def test_numeric(self):
        a = parse_answer(canonicalize_latex(r"3 \times 10^{8} m/s"), AnswerType.NUMERIC)
        assert a.quantity.magnitude == pytest.approx(3e8)


class TestSerialize:
    @pytest.mark.parametrize(
        "src",
        [
            r"\frac{8\pi M^2}{\mu^2\sqrt{M^2-4m^2}}",
            r"x^2 + 2x + 1",
            r"\sin^2 x + \cos^2 x",
            r"T < T_c",
            r"\frac{\hbar^2 k_x^2}{2m}",
            r"-\frac{1}{2} + x",
        ],
    )
    def test_round_trip_parses_to_same_tree(self, src):
        from seedgrade.canon import canonicalize

        tree = parse(src)
        back = parse(serialize(tree))
        assert canonicalize(back).root == canonicalize(tree).root
