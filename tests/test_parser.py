import hashlib
import json
import random
import sys
from fractions import Fraction
from importlib import resources

import pytest

from seedgrade.errors import ParseError, TypeMismatch, UnknownCommand
from seedgrade.nodes import (
    AnswerType, Kind, MathNode, add, const, func, mul, neg, num, pow_, relation, sym)
from seedgrade.parser import parse_answer, parse_expression, serialize
from seedgrade.preprocess import canonicalize_latex, extract_final_answer


# Python's int-string limit (4300 digits by default)
_DIGITS = sys.get_int_max_str_digits()


def parse(s):
    return parse_expression(canonicalize_latex(s))


class TestTokenize:
    """The tokens the parser reads from the text, seen through the trees and
    the errors it gives."""

    def test_kinetic_term_token_stream(self):
        assert parse(r"\frac{\hbar^2 k_x^2}{2m}") == mul(
            mul(pow_(sym("hbar"), num(2)), pow_(sym("k_x"), num(2))),
            pow_(mul(num(2), sym("m")), num(-1)),
        )

    def test_longest_match_left_vs_le(self):
        # \left is removed upstream; \le survives as a relation operator
        assert parse(r"a \le b") == relation("<=", sym("a"), sym("b"))

    def test_implicit_mul_cases(self):
        assert parse_expression("2x") == mul(num(2), sym("x"))
        assert parse_expression("x y") == mul(sym("x"), sym("y"))
        assert parse_expression("(a)(b)") == mul(sym("a"), sym("b"))
        assert parse_expression("2[x+1]") == mul(num(2), add(sym("x"), num(1)))

    def test_subscript_glue(self):
        assert parse_expression("k_x") == sym("k_x")
        assert parse_expression("T_{c}") == sym("T_c")
        assert parse(r"\varepsilon_0") == sym("varepsilon_0")
        # the name ends in the subscript as written, spaces dropped
        assert parse_expression("x_{1/2}") == sym("x_1/2")
        assert parse_expression("v_{a, b}") == sym("v_a,b")
        assert parse_expression("T_{0.50}") == sym("T_0.50")
        assert parse_expression(r"\omega_{\alpha}") == sym("omega_\\alpha")
        assert parse_expression("q_{ 1 2 }") == sym("q_12")

    @pytest.mark.parametrize("src, position", [("x + y_", 2), ("2y_", 2), ("2 x_{1", 2)])
    def test_subscript_fault_gives_token_index(self, src, position):
        # the index counts the `imul` that goes before `y` in `2y_`
        with pytest.raises(ParseError) as exc:
            parse_expression(src)
        assert exc.value.position == position

    def test_number_at_int_string_limit(self):
        assert parse_expression("1." + "9" * (_DIGITS - 1)) == num(2 - Fraction(1, 10 ** (_DIGITS - 1)))

    @pytest.mark.parametrize("src, position", [
        pytest.param("x + " + "9" * (_DIGITS + 1), 2, id="integer"),
        pytest.param("x + 1." + "9" * _DIGITS, 2, id="decimal"),
        pytest.param("2x_{" + "9" * 5000 + "}", 2, id="subscript"),
    ])
    def test_number_past_int_string_limit(self, src, position):
        with pytest.raises(ParseError) as exc:
            parse_expression(src)
        assert (exc.value.position, exc.value.expectation) == (
            position, f"number of at most {_DIGITS} digits")

    def test_second_subscript_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("x_1_2")

    def test_delta_glue(self):
        assert parse(r"\Delta E") == sym("Delta_E")

    @pytest.mark.parametrize("src, name", [
        (r"\Delta T_c", "Delta_T_c"), (r"\Delta T_{c}", "Delta_T_c"), (r"\Delta_{x}", "Delta_x")])
    def test_delta_before_subscripted_symbol(self, src, name):
        assert parse(src) == sym(name)

    def test_unknown_command(self):
        # the reader takes ASCII only; normalization maps or drops the rest
        for src in (r"\foobar x", "x²", "é"):
            with pytest.raises(UnknownCommand):
                parse_expression(src)

    def test_first_fault_in_reading_order(self):
        with pytest.raises(ParseError):
            parse_expression(r"x + ) \foo")

    def test_decimal_number(self):
        assert parse_expression("3.25") == num(Fraction("3.25"))

    @pytest.mark.parametrize("src, value", [("1.50", Fraction(3, 2)), ("007", Fraction(7))])
    def test_literal_values(self, src, value):
        tree = parse_expression(src)
        assert tree == num(value) and type(tree.payload) is Fraction

    def test_positions_after_space_runs(self):
        for src, pos in (("x  +   ?", 7), ("   2 ?", 5)):
            with pytest.raises(UnknownCommand) as exc:
                parse_expression(src)
            assert exc.value.position == pos

    def test_environment_name_after_space(self):
        src = r"  \begin {pmatrix} 1 \end  {pmatrix}"
        assert parse_expression(src) == MathNode(Kind.MATRIX, (1, 1), (num(1),))
        with pytest.raises(UnknownCommand) as exc:
            parse_expression(src + "?")
        assert exc.value.position == 36

    def test_trailing_spaces(self):
        assert parse_expression("x   ") == sym("x")
        with pytest.raises(ParseError) as exc:
            parse_expression("   ")
        assert (exc.value.position, exc.value.expectation) == (0, "operand")

    @pytest.mark.parametrize("src, name, pos", [
        ("x   ?", "?", 4),
        ("  \t", "\t", 2),
        ("x  \\,", "\\,", 3),
        ("x \\", "\\", 2),
    ])
    def test_unknown_character_after_spaces(self, src, name, pos):
        with pytest.raises(UnknownCommand) as exc:
            parse_expression(src)
        assert (exc.value.name, exc.value.position) == (name, pos)


def _mini_texts():
    """Every ground truth and final answer of the minicorpus, raw and normalized."""
    data = resources.files("seedgrade.data")
    texts = []
    for name, key in (("minicorpus.jsonl", "ground_truth"),
                      ("minicorpus_responses.jsonl", "response")):
        for line in data.joinpath(name).read_text("utf-8").splitlines():
            text = json.loads(line)[key]
            if key == "response":
                text = extract_final_answer(text)
            texts += [text, canonicalize_latex(text).text]
    return texts


_ATOMS = ["x", "y", "T", "c", "e", "i", "2", "10", "1.5", "007", r"\pi", r"\alpha", r"\hbar",
          "k_x", "T_{c}", "x_1", r"\varepsilon_0", "q_{12}", "a_{-1}", r"\Delta E", r"\Delta_{x}",
          r"\Delta t", "n!", "f'", "y''"]


def _spaces(rng):
    return " " * rng.choice((0, 0, 1, 2))


def _expression(rng, depth):
    """A seeded LaTeX expression built from a fixed set of pieces."""
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice(_ATOMS)
    a = _expression(rng, depth - 1)
    b = _expression(rng, depth - 1)
    sp = _spaces(rng)
    return rng.choice((
        f"{a}{sp}+{sp}{b}", f"{a}{sp}-{sp}{b}", f"{a}{sp}\\cdot {b}", f"{a}{sp}/{sp}{b}",
        f"{a} {b}", f"({a}){sp}({b})", f"{{{a}}}{sp}[{b}]", f"\\frac{{{a}}}{{{b}}}",
        f"\\sqrt{{{a}}}", f"\\sqrt[{sp}3]{{{a}}}", f"\\sqrt[n]{{{b}}}", f"({a})^{{{b}}}",
        f"x^{sp}2{sp}{b}", f"({a})!", f"({a})'", f"\\sin{sp}({a})", f"\\cos^2 {b}",
        f"\\begin{sp}{{pmatrix}}{a}{sp}&{sp}{b}\\\\ {b} & {a}\\end{{pmatrix}}",
        f"-{sp}{a}", f"\\frac{{d}}{{dx}}{sp}{a}",
    ))


class TestGoldenFrontEnd:
    """Trees of the minicorpus texts and of seeded generated expressions,
    pinned by a sha256 digest: a rewrite of the reader or the grammar must
    keep every tree and the set of inputs that parse."""

    @staticmethod
    def _cases():
        rng = random.Random(2014)
        generated = []
        for _ in range(2000):
            text = _expression(rng, rng.randint(1, 4))
            generated.append(f"{text}{_spaces(rng)}={_spaces(rng)}{_expression(rng, 2)}"
                             if rng.random() < 0.1 else text)
        return _mini_texts() + generated

    def test_digest(self):
        h = hashlib.sha256()
        parsed = 0
        for text in self._cases():
            try:
                tree = parse_expression(text)
            except (ParseError, UnknownCommand):
                continue
            parsed += 1
            h.update(f"{text}\n{tree!r}\n".encode())
        assert (parsed, h.hexdigest()) == GOLDEN_FRONT_END


GOLDEN_FRONT_END = (2017, "a9f4ccd2ca92da1350954ec3b6c7a26082eccc069a2e4d5cda2d51ed88a32182")


class TestParse:
    def test_precedence(self):
        assert parse("2x^3") == mul(num(2), pow_(sym("x"), num(3)))
        assert parse("-x^2") == neg(pow_(sym("x"), num(2)))
        assert parse("a+b c") == add(sym("a"), mul(sym("b"), sym("c")))

    @pytest.mark.parametrize("src, tree", [
        ("--x", mul(num(-1), mul(num(-1), sym("x")))),
        ("-+-x", mul(num(-1), mul(num(-1), sym("x")))),
        ("--2", num(2)),
        ("a - -b", add(sym("a"), mul(num(-1), mul(num(-1), sym("b"))))),
        (r"a \cdot -b", mul(sym("a"), mul(num(-1), sym("b")))),
        ("-n!", mul(num(-1), func("factorial", sym("n")))),
        ("-x^2", mul(num(-1), pow_(sym("x"), num(2)))),
        ("x^-2^3", pow_(sym("x"), mul(num(-1), pow_(num(2), num(3))))),
        ("a/bc", mul(sym("a"), pow_(sym("b"), num(-1)), sym("c"))),
    ])
    def test_sign_and_precedence_corners(self, src, tree):
        assert parse_expression(src) == tree

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
        assert a.parts == (num(0), sym("L"))
        assert a.openness == (False, True)

    def test_interval_after_name(self):
        a = parse_answer(canonicalize_latex("x = (0, 1)"), AnswerType.INTERVAL)
        assert a.parts == (num(0), num(1))
        assert a.openness == (True, True)

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
