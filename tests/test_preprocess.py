import pytest

from seedgrade.errors import EmptyResponse, Unbalanceable
from seedgrade.grader import grade
from seedgrade.nodes import AnswerType
from seedgrade.preprocess import canonicalize_latex, extract_final_answer


def clean(s, **kw):
    return canonicalize_latex(s, **kw).text


class TestUnicode:
    def test_unicode_operators(self):
        assert clean("3 × 10") == "3 \\times 10"
        assert clean("a − b") == "a - b"
        assert clean("x ≤ y") == "x \\le y"

    def test_greek_letters(self):
        assert clean("π") == "\\pi"
        assert clean("ΔE") == "\\Delta E"
        assert clean("ℏω") == "\\hbar \\omega"

    def test_unsupported_nonascii_dropped(self):
        assert clean("x ☃ y") == "x y"


class TestWrappers:
    def test_boxed_unwrapped(self):
        assert clean(r"\boxed{x+y}") == "x+y"

    def test_nested_wrappers(self):
        assert clean(r"\boxed{\mathrm{\frac{a}{b}}}") == "\\frac{a}{b}"
        out = canonicalize_latex(r"\boxed{\mathbf{\text{ kg}}}")
        assert out.text == "kg"
        assert out.notes == ("boxed", "font-unwrap", "text-unit-kept", "whitespace")

    def test_left_right_dropped(self):
        assert clean(r"\left( x \right)") == "( x )"
        assert clean(r"\left. \frac{a}{b} \right|") == "\\frac{a}{b} |"

    def test_size_commands_dropped(self):
        assert clean(r"\bigl( x \bigr)") == "( x )"

    def test_text_unit_kept(self):
        assert clean(r"3 \text{ m/s}") == "3 m/s"

    def test_text_prose_dropped(self):
        assert clean(r"x \text{ where x is position}") == "x"

    def test_operatorname(self):
        assert clean(r"\operatorname{sin} x") == "\\sin x"

    def test_dfrac_alias(self):
        assert clean(r"\dfrac{a}{b}") == "\\frac{a}{b}"

    def test_escaped_braces_become_parens(self):
        assert clean(r"\{ x \}") == "( x )"

    def test_math_delimiters_stripped(self):
        assert clean(r"$x + y$") == "x + y"

    def test_trailing_backslash_dropped(self):
        assert clean("x+1\\") == "x+1"


class TestBoilerplate:
    def test_prefix_stripped(self):
        assert clean("Final answer: x + y") == "x + y"
        assert clean("answer is x") == "x"

    def test_word_starting_with_is_survives(self):
        # "is" must only match as a whole word after the label
        assert clean("answer isotope") == "isotope"
        assert clean("answer: isotope") == "isotope"
        assert clean("result: isotope") == "isotope"

    def test_trailing_period(self):
        assert clean("x + y.") == "x + y"

    def test_lifetime_is_an_ordinary_name(self):
        # no prefix for one quantity's name: "lifetime=" takes the generic
        # `name = expr` path, where the expression parser keeps the right side
        out = canonicalize_latex("lifetime=2x")
        assert out.text == "lifetime=2x" and "boilerplate" not in out.notes
        assert extract_final_answer("lifetime=2x") == "lifetime=2x"
        got = grade(r"lifetime=\frac{1}{2x}", r"\frac{1}{2x}", AnswerType.EXPRESSION)
        assert got.score == 100.0
        other = grade(r"tau=\frac{1}{3x}", r"\frac{1}{2x}", AnswerType.EXPRESSION)
        renamed = grade(r"lifetime=\frac{1}{3x}", r"\frac{1}{2x}", AnswerType.EXPRESSION)
        assert renamed.to_dict() == other.to_dict()


class TestBalance:
    def test_missing_closer_appended(self):
        assert clean(r"(a + b") == "(a + b)"

    def test_missing_opener_prepended(self):
        assert clean(r"a + b)") == "(a + b)"

    def test_too_many_insertions(self):
        with pytest.raises(Unbalanceable):
            clean("((((x", max_bracket_inserts=3)


class TestFracBraces:
    def test_single_char_args(self):
        assert clean(r"\frac12") == "\\frac{1}{2}"
        assert clean(r"\frac a b") == "\\frac{a}{b}"

    def test_command_arg(self):
        assert clean(r"\frac\hbar2") == "\\frac{\\hbar}{2}"
        with pytest.raises(Unbalanceable, match=r"^malformed \\frac argument$"):
            clean(r"\frac\1 2")

    def test_sqrt_arg(self):
        assert clean(r"\sqrt x") == "\\sqrt{x}"
        assert clean(r"\sqrt[3] x") == "\\sqrt[3]{x}"
        assert clean(r"\sqrt\alpha") == "\\sqrt{\\alpha}"

    def test_missing_arg(self):
        with pytest.raises(Unbalanceable):
            clean(r"\frac{a}")
        with pytest.raises(Unbalanceable, match=r"^\\frac is missing an argument$"):
            clean(r"\frac a")


class TestIdempotence:
    @pytest.mark.parametrize(
        "raw",
        [
            r"\boxed{\tau = \frac{8\pi M^2}{\mu^2\sqrt{M^2-4m^2}}}",
            "3 × 10⁻?",  # junk stays junk
            r"Final answer: $E = mc^2$.",
            r"\frac12 + \sqrt x",
        ],
    )
    def test_second_pass_is_identity(self, raw):
        once = canonicalize_latex(raw).text
        assert canonicalize_latex(once).text == once


class TestExtract:
    def test_boxed_wins(self):
        text = "Some work $x+1$ then \\boxed{x+2} done"
        assert extract_final_answer(text) == "x+2"

    def test_last_boxed(self):
        text = "\\boxed{a} ... \\boxed{b}"
        assert extract_final_answer(text) == "b"
        assert extract_final_answer(r"so \boxed{\boxed{q}}") == "q"

    def test_display_math_second(self):
        text = "deriving $y$\n$$x + 1$$\ntrailing words"
        assert extract_final_answer(text) == "x + 1"

    def test_bracket_display_math(self):
        assert extract_final_answer("so \\[a b\\] qed") == "a b"

    def test_inline_math_third(self):
        assert extract_final_answer("thus $z^2$ holds") == "z^2"

    def test_last_line_fallback(self):
        assert extract_final_answer("working...\nx + y\n") == "x + y"

    def test_nested_boxed_in_display(self):
        text = "$$\\boxed{q/2}$$"
        assert extract_final_answer(text) == "q/2"

    def test_empty_raises(self):
        with pytest.raises(EmptyResponse):
            extract_final_answer("   \n  ")
        with pytest.raises(EmptyResponse):
            extract_final_answer(r"$$ \boxed{} x $$")

    def test_empty_nested_boxed_raises(self):
        # the last \boxed is unclosed, so the display segment wins, and its
        # own \boxed group is empty
        with pytest.raises(EmptyResponse, match="no answer segment found"):
            extract_final_answer(r"$$\boxed{}$$ then \boxed{")
        r = grade(r"$$\boxed{}$$ then \boxed{", "x", AnswerType.EXPRESSION)
        assert r.score == 0.0
        assert r.diagnostics == [r"EmptyResponse: no answer segment found"]
