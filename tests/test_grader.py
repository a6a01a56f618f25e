import hashlib
import json
import random
import time
from importlib import resources

import pytest

from seedgrade import canon, grader
from seedgrade.config import GradeConfig
from seedgrade.errors import GroundTruthInvalid
from seedgrade.grader import grade, parse_ground_truth
from seedgrade.harness import BenchmarkItem, grade_run, load_dataset, load_responses
from seedgrade.nodes import AnswerType

CFG = GradeConfig()


def score(pred, gt, t, cfg=CFG):
    return grade(pred, gt, AnswerType(t), cfg)


class TestGroundTruth:
    def test_valid(self):
        a = parse_ground_truth(r"\frac{m}{\pi \hbar^2}", AnswerType.EXPRESSION)
        assert a.answer_type is AnswerType.EXPRESSION

    def test_invalid_raises(self):
        with pytest.raises(GroundTruthInvalid):
            parse_ground_truth(r"\frac{", AnswerType.EXPRESSION)
        with pytest.raises(GroundTruthInvalid):
            parse_ground_truth("x + 1", AnswerType.EQUATION)


class TestExpression:
    def test_exact(self):
        assert score(r"\boxed{x+y}", "y+x", "expression").score == 100.0

    def test_restated_name_ok(self):
        assert score(r"\boxed{\tau = 2x}", "2x", "expression").score == 100.0

    def test_square_bracket_after_operand_multiplies(self):
        assert score(r"\boxed{2[x+1]}", "2x+2", "expression").score == 100.0

    @pytest.mark.parametrize("pred, gt", [
        (r"\boxed{x_{1/2}}", "x_{12}"),
        (r"\boxed{v_{a,b}}", "v_{ab}"),
    ])
    def test_distinct_subscripts_are_distinct_symbols(self, pred, gt):
        r = score(pred, gt, "expression")
        assert not r.equivalent and r.score < 100.0

    def test_garbage_scores_zero(self):
        r = score("I could not solve this one, sorry!", "2x", "expression")
        assert r.score == 0.0
        assert r.diagnostics

    def test_unparseable_scores_zero_with_diagnostic(self):
        r = score(r"\boxed{\unknowncmd{3}}", "2x", "expression")
        assert r.score == 0.0
        assert any("unknowncmd" in d for d in r.diagnostics)


class TestEquation:
    def test_rearranged(self):
        assert score(r"\boxed{m c^2 = E}", "E = m c^2", "equation").score == 100.0

    def test_flipped_inequality(self):
        assert score(r"\boxed{T_c > T}", "T < T_c", "equation").score == 100.0

    def test_direction_mismatch_penalized_not_zeroed(self):
        r = score(r"\boxed{T \le T_c}", "T < T_c", "equation")
        assert 0 < r.score < 100
        assert "relation-direction-mismatch" in r.diagnostics

    def test_non_relation_prediction(self):
        r = score(r"\boxed{m c^2}", "E = m c^2", "equation")
        assert r.score == 0.0

    @pytest.mark.xfail(
        strict=True,
        reason="standardize_relation builds lhs + (-1)*rhs without spreading the -1 "
        "over a sum, so the two sides-swapped forms standardize with opposite signs",
    )
    def test_sides_swapped_sum(self):
        # scores 36.4 today, after a distance fallback
        assert score(r"\boxed{x^2 + 2x = y}", "y = x^2 + 2x", "equation").score == 100.0

    def test_inconclusive_falls_back_to_distance(self):
        # every sample point is a pole of 1/sin(0), so equivalence is undecided
        r = score(r"\boxed{y = \frac{1}{\sin(0)}}", "y = 1", "equation")
        assert 0.0 <= r.score <= 100.0
        assert not r.equivalent
        assert any(d.startswith("equivalence-inconclusive") for d in r.diagnostics)


def _continued_fraction(depth):
    text = "x"
    for _ in range(depth):
        text = r"\frac{1}{1+" + text + "}"
    return text


# predictions that raised out of grade() before the internal-error safety net
CRASHERS = [
    pytest.param("(" * 1000 + "x" + ")" * 1000, "RecursionError", id="nested-parentheses"),
    pytest.param(_continued_fraction(300), "RecursionError", id="continued-fraction"),
]

# a number within the bit budget: 3^4761 7^2399 has 4299 digits
BIG = r"3^{4761} 7^{2399}"
# eleven numbers within the bit budget, whose sum is not
BIG_SUM = " + ".join([BIG] * 11)


class TestNeverCrash:
    @pytest.mark.parametrize("pred,error", CRASHERS)
    def test_internal_error_scores_zero(self, pred, error):
        r = score(pred, "x", "expression")
        assert r.score == 0.0 and not r.equivalent
        assert r.diagnostics == [f"internal-error:{error}"]

    def test_other_exception_scores_zero(self, broken_stage):
        r = score(broken_stage, "x", "expression")
        assert r.score == 0.0 and not r.equivalent
        assert r.diagnostics == ["internal-error:ValueError"]

    def test_ground_truth_errors_still_raise(self):
        with pytest.raises(GroundTruthInvalid):
            score("x", r"\frac{", "expression")

    def test_deep_ground_truth_is_invalid(self):
        with pytest.raises(GroundTruthInvalid, match="nesting too deep"):
            score("x", "(" * 1000 + "x" + ")" * 1000, "expression")

    def test_oversized_literal_prediction_is_a_parse_error(self):
        for text in (
            "9" * 5000,
            # literals that each fit the int-string limit, but not together
            "7" * 4000 + r" \cdot " + "3" * 4000,
            "9" * 4300 + " + 1",
        ):
            start = time.perf_counter()
            r = score(rf"\boxed{{{text}}}", "x", "expression")
            assert time.perf_counter() - start < 0.05
            assert r.score == 0.0 and r.diagnostics[0].startswith("ParseError:")
            with pytest.raises(GroundTruthInvalid):
                score("x", text, "expression")

    def test_nesting_below_the_recursion_limit_grades(self):
        # three frames per bracket level: 300 levels fit under the default limit of 1000
        assert score("(" * 300 + "x" + ")" * 300, "x", "expression").score == 100.0

    def test_deep_continued_fraction_grades(self):
        # its canonical tree's digest is the repr of 99 nested levels
        r = score(_continued_fraction(99), "x", "expression")
        assert 0.0 <= r.score <= 100.0
        assert not any(d.startswith("internal-error:") for d in r.diagnostics)

    @pytest.mark.parametrize("pred", [
        r"\boxed{3^{100000}}", r"\boxed{3^{3000000}}", r"\boxed{2^{2^{24}}}", r"\boxed{2^{2^{32}}}",
    ])
    def test_power_past_the_bit_budget_stays_a_power(self, pred):
        start = time.perf_counter()
        r = score(pred, "x", "expression")
        assert time.perf_counter() - start < 0.5
        assert r.score == 0.0 and r.diagnostics == []
        # GF(p) decides the unfolded power
        assert score(pred, pred[7:-1], "expression").score == 100.0
        assert score(pred, pred[7:-1] + "+1", "expression").score < 100.0
        assert score(r"\boxed{2^{10}}", "1024", "expression").score == 100.0

    def test_power_product_past_the_bit_budget_keeps_a_power(self):
        # each power folds alone; their product would pass the bit budget
        pred = r"\boxed{2^{4700} \cdot 3^{4700} \cdot 7^{3500}}"
        start = time.perf_counter()
        r = score(pred, "x", "expression")
        assert time.perf_counter() - start < 0.05
        assert r.score == 0.0 and r.diagnostics == []
        assert score(pred, pred[7:-1], "expression").score == 100.0
        assert score(pred, r"7^{3500} \cdot 3^{4700} \cdot 2^{4700}", "expression").score == 100.0
        assert score(pred, pred[7:-1] + "+1", "expression").score < 100.0

    def test_sum_past_the_bit_budget_keeps_its_terms(self):
        pred = rf"\boxed{{{BIG_SUM}}}"
        start = time.perf_counter()
        r = score(pred, "x", "expression")
        assert time.perf_counter() - start < 0.05
        assert r.score == 0.0 and r.diagnostics == []
        assert score(pred, BIG_SUM, "expression").score == 100.0
        assert score(pred, BIG_SUM + "+1", "expression").score < 100.0

    @pytest.mark.parametrize("text", [
        r"(\sqrt{2 \cdot 10^{300}})^{28} (\sqrt{3 \cdot 10^{300}})^{28}",
        rf"({BIG}+1)({BIG}+1)",
        rf"\frac{{1}}{{{BIG}+1}} \cdot \frac{{1}}{{{BIG}+2}}",
    ])
    def test_product_past_the_bit_budget_keeps_a_number(self, text):
        # numbers that each fold within the bit budget, whose product does not
        start = time.perf_counter()
        r = score(rf"\boxed{{{text}}}", "x", "expression")
        assert time.perf_counter() - start < 0.05
        assert r.score == 0.0 and r.diagnostics == []
        assert score(rf"\boxed{{{text}}}", text, "expression").score == 100.0
        assert score(rf"\boxed{{{text}}}", text + "+1", "expression").score < 100.0

    def test_root_of_a_number_past_the_float_range(self):
        # 3^4761 folds to 2272 digits, beyond any float
        r = score(r"\boxed{\sqrt{3^{4761}}}", r"\sqrt{3^{4761}}", "expression")
        assert r.score == 100.0 and r.diagnostics == []
        assert score(r"\boxed{\sqrt{3^{4761}}}", r"3^{2380} \sqrt{3}", "expression").score == 100.0
        assert score(r"\boxed{\sqrt{3^{4761}}}", r"3^{2381}", "expression").score < 100.0

    @pytest.mark.parametrize("text", [
        rf"(x^{{{BIG}}})^{{{BIG}}}",
        " ".join([rf"x^{{{BIG}}}"] * 11),
        rf"((x^{{{BIG}}})^{{{BIG}}})^{{{BIG}}}",
    ])
    def test_exponent_arithmetic_past_the_bit_budget(self, text):
        # exponents that each fold within the bit budget, whose product or sum does not
        start = time.perf_counter()
        r = score(rf"\boxed{{{text}}}", "x", "expression")
        assert time.perf_counter() - start < 0.05
        assert r.score == 0.0
        assert not any(d.startswith("internal-error:") for d in r.diagnostics)
        assert score(rf"\boxed{{{text}}}", text, "expression").score == 100.0
        assert score(rf"\boxed{{{text}}}", text + "+1", "expression").score < 100.0

    @pytest.mark.parametrize("text", [
        rf"\frac{{x}}{{{BIG}}} = \frac{{y}}{{{BIG}+1}}",
        rf"\frac{{x}}{{{BIG}}} + \frac{{y}}{{{BIG}+1}} + \frac{{z}}{{{BIG}+2}} = 0",
        rf"{BIG} x = \frac{{y}}{{{BIG}}}",
    ])
    def test_relation_scale_past_the_bit_budget(self, text):
        # the gcd step would scale by a number, or to coefficients, past the bit budget
        lhs, rhs = text.split(" = ")
        r = score(rf"\boxed{{{text}}}", "x = 0", "equation")
        assert not any(d.startswith("internal-error:") for d in r.diagnostics)
        assert score(rf"\boxed{{{text}}}", text, "equation").score == 100.0
        assert score(rf"\boxed{{{text}}}", f"{rhs} = {lhs}", "equation").score == 100.0
        assert score(rf"\boxed{{{text}}}", f"{lhs} = {rhs} + 1", "equation").score < 100.0

    @pytest.mark.parametrize("pred", [
        rf"x^{{{BIG}}}", rf"(x^{{{BIG}}})^{{2}}", rf"\sin({BIG})^{{{BIG}}}",
        rf"y^{{{BIG}}}+y^{{{BIG}}}", rf"x^{{\frac{{{BIG}}}{{2}}}}", rf"2^{{\frac{{1}}{{{BIG}}}}}",
    ])
    def test_huge_exponent_grades_in_bounded_time(self, pred):
        # mpmath took 10 to 12 s on each of these at 30 digits
        start = time.perf_counter()
        r = score(rf"\boxed{{{pred}}}", "x", "expression")
        assert time.perf_counter() - start < 0.05
        assert r.score == 0.0
        assert not any(d.startswith("internal-error:") for d in r.diagnostics)
        assert score(rf"\boxed{{{pred}}}", pred, "expression").score == 100.0

    @pytest.mark.parametrize("pred", [
        r"\boxed{3 \times 10^{400} \text{ m}}",
        r"\boxed{2 \text{ km}^{999}}",
        r"\boxed{1e999 \text{ m}}",
    ])
    def test_out_of_range_quantity_is_no_number(self, pred):
        r = score(pred, r"3 \text{ m}", "numeric")
        assert r.score == 0.0
        assert r.diagnostics[0].startswith("NoNumber: no finite magnitude in")
        assert not any(d.startswith("internal-error:") for d in r.diagnostics)


# the GF(P) modulus of the exact equivalence path
P = 2**61 - 1


class TestEquivalenceSoundness:
    def test_product_over_old_sample_grid(self):
        # vanishes at every x = p/d with p in {2,3,5,7,11,13} and d in {1,2,3}
        product = "".join(f"({d}x-{p})" for d in (1, 2, 3) for p in (2, 3, 5, 7, 11, 13))
        assert score(rf"\boxed{{x + {product}}}", "x", "expression").score < 100

    def test_huge_exponent_is_fast(self):
        t = time.perf_counter()
        r = score(r"\boxed{x^{3000000} \cdot x^{3000000}}", "x", "expression")
        assert time.perf_counter() - t < 0.05
        assert r.score < 100

    def test_exponent_past_fermat_alias(self):
        # over GF(P), x^P = x, so both sides would agree at every point
        r = score(rf"\boxed{{(x+1)^{{{P}}}}}", rf"x^{{{P}}} + 1", "expression")
        assert r.score < 100

    @pytest.mark.parametrize("den", [P, 2 * P])
    def test_denominator_multiple_of_modulus(self, den):
        r = score(rf"\boxed{{x + \frac{{1}}{{{den}}}}}", rf"2x + \frac{{1}}{{{den}}}", "expression")
        assert r.score < 100 and not r.equivalent
        assert not any(d.startswith("internal-error") for d in r.diagnostics)

    @pytest.mark.parametrize("pred,gt", [
        (r"\frac{1}{x-x}", "0"),
        (r"\frac{1}{x-x}+y", "y"),
        (r"0^{-1}", "0"),
        # a zero coefficient must not absorb an undefined factor
        (r"0 \cdot \frac{1}{0}", "0"),
        (r"(x-x) \cdot \frac{1}{x-x}", "0"),
        (r"(x-x) \cdot \frac{1}{x-x} + y", "y"),
    ])
    def test_zero_to_negative_power_is_undefined(self, pred, gt):
        r = score(rf"\boxed{{{pred}}}", gt, "expression")
        assert r.score < 100
        assert not any(d.startswith("internal-error") for d in r.diagnostics)

    def test_zero_to_positive_power_is_zero(self):
        assert score(r"\boxed{0^{2}}", "0", "expression").score == 100
        assert score(r"\boxed{0^{2} \cdot 0^{3}}", "0", "expression").score == 100

    @pytest.mark.parametrize("pred", [r"0^{x} \cdot 0^{-x}", r"\frac{0^{x}}{0^{x}}"])
    def test_zero_base_exponents_not_collected(self, pred):
        # 0^{-x} is undefined for x > 0, so the product is not 0^{0} = 1
        r = score(rf"\boxed{{{pred}}}", "1", "expression")
        assert r.score < 100 and not r.equivalent
        assert not any(d.startswith("internal-error") for d in r.diagnostics)

    def test_float_path_small_offset(self):
        # passes eval_rtol at 30 digits; the 60-digit confirmation rejects it
        assert score(r"\boxed{\sin(x) + 10^{-11}}", r"\sin(x)", "expression").score < 100

    def test_float_path_tiny_values(self):
        # both sides are about 1e-52 wherever they are sampled and differ by
        # as much as they measure: an absolute floor must not hide that
        assert score(r"\boxed{e^{x-6e^{3}}}", r"e^{y-6e^{3}}", "expression").score < 100

    @pytest.mark.parametrize("pred, gt", [
        (r"\sin^2x+\cos^2x-1", "0"),
        # its first sample agrees exactly at 30 digits and differs by 1e-61
        # at 60, where both values are rounding error
        (r"\sin^2a+\cos^2a-1", "0"),
        (r"\sin(\pi-x)", r"\sin x"),
        (r"e^{x-6e^3}e^{y}", r"e^{x+y-6e^3}"),
    ])
    def test_float_path_identities_confirmed(self, pred, gt):
        assert score(rf"\boxed{{{pred}}}", gt, "expression").score == 100


class TestTuple:
    def test_positional_mean(self):
        r = score(r"\boxed{(1, 2, 4)}", "(1, 2, 3)", "tuple")
        assert r.score == pytest.approx(200 / 3, abs=0.01)

    def test_length_mismatch_averages_over_longer(self):
        r = score(r"\boxed{(1, 2)}", "(1, 2, 3)", "tuple")
        assert r.score == pytest.approx(200 / 3, abs=0.01)
        assert any("length mismatch" in d for d in r.diagnostics)

    def test_extra_and_missing_components_named(self):
        longer = score(r"\boxed{(1, 2, 3)}", "(1, 2)", "tuple")
        shorter = score(r"\boxed{(1, 2)}", "(1, 2, 3)", "tuple")
        assert "component 2: extra" in longer.diagnostics
        assert "component 2: missing" in shorter.diagnostics
        assert longer.score == shorter.score == pytest.approx(200 / 3, abs=0.01)

    def test_lone_value_graded_as_first_component(self):
        r = score(r"\boxed{1}", "(1, 2)", "tuple")
        assert r.score == pytest.approx(50.0, abs=0.01)
        assert "retried-as-expression" in r.diagnostics


class TestInterval:
    def test_both_endpoints_open_mismatch(self):
        r = score(r"\boxed{[0, L]}", "(0, L)", "interval")
        assert r.score == pytest.approx(75.0, abs=0.01)

    def test_single_endpoint_mismatch(self):
        r = score(r"\boxed{[0, L)}", "(0, L)", "interval")
        assert r.score == pytest.approx(87.5, abs=0.01)

    def test_exact(self):
        r = score(r"\boxed{\left(0, \infty\right)}", r"(0, \infty)", "interval")
        assert r.score == 100.0

    def test_wrong_endpoint(self):
        r = score(r"\boxed{(0, 2L)}", "(0, L)", "interval")
        assert 0 <= r.score < 100


class TestNumeric:
    def test_binary_default(self):
        assert score(r"\boxed{3.0 \times 10^{8} \text{ m/s}}",
                     r"2.998 \times 10^{8} \text{ m/s}", "numeric").score == 100.0
        assert score(r"\boxed{3.5 \times 10^{8} \text{ m/s}}",
                     r"2.998 \times 10^{8} \text{ m/s}", "numeric").score == 0.0

    @pytest.mark.parametrize("pred, gt", [
        (r"\boxed{-10^{3} \text{ m}}", r"-1000 \text{ m}"),
        (r"\boxed{\approx 2^{10} \text{ m}}", r"1024 \text{ m}"),
        (r"\boxed{x \approx 2^{3} \text{ m}}", r"8 \text{ m}"),
        (r"\boxed{L \sim 2^{3} \text{ m}}", r"8 \text{ m}"),
        (r"\boxed{1\,500 \text{ m}}", r"1500 \text{ m}"),
        (r"\boxed{1{,}500 \text{ m}}", r"1,500 \text{ m}"),
        (r"\boxed{1,5 \text{ m}}", r"1.5 \text{ m}"),
        (r"\boxed{3{,}14}", "3.14"),
    ])
    def test_powers_and_thousands_separators(self, pred, gt):
        assert score(pred, gt, "numeric").score == 100.0

    @pytest.mark.parametrize("pred, gt, full", [
        (r"\boxed{\sqrt{4}}", "2", True),
        (r"\boxed{\sqrt{4}}", "4", False),
        (r"\boxed{e^{2}}", "2", False),
        (r"\boxed{\sin(3)}", "3", False),
        (r"\boxed{\frac{\pi}{2}}", "1.5708", True),
        (r"\boxed{\pi/2}", "2", False),
        (r"\boxed{\ln 2 \text{ J}}", r"0.6931 \text{ J}", True),
        (r"\boxed{1.414 \text{ eV}}", r"\sqrt{2} \text{ eV}", True),
        (r"\boxed{2 \text{ eV}}", r"\sqrt{2} \text{ eV}", False),
        (r"\boxed{2\pi \text{ m}}", r"6.2832 \text{ m}", True),
        (r"\boxed{2\sqrt{2}\,\mathrm{eV}}", r"2.828 \text{ eV}", True),
        (r"\boxed{T_c \approx 9.2 \text{ K}}", r"9.2 \text{ K}", True),
        (r"\boxed{(3 \text{ m})}", r"3 \text{ m}", True),
        (r"\boxed{e^{i\pi}}", "-1", True),
        (r"\boxed{\SI{3}{m}}", r"3 \text{ m}", True),
        (r"\boxed{\num{3e8}}", r"3 \times 10^{8}", True),
        (r"\boxed{3 \text{ m}}", r"\SI{3}{\m}", True),
        (r"\boxed{3\,\si{m/s}}", r"\SI{2.9}{m/s}", False),
    ])
    def test_value_is_the_value_of_its_expression(self, pred, gt, full):
        r = score(pred, gt, "numeric")
        assert r.score == (100.0 if full else 0.0)
        assert not any("retried" in d for d in r.diagnostics)

    def test_ground_truth_value_with_a_symbol_raises(self):
        with pytest.raises(GroundTruthInvalid, match="no finite magnitude"):
            score(r"\boxed{1 \text{ m}}", r"\frac{x}{2} \text{ m}", "numeric")

    @pytest.mark.parametrize("pred", [r"\boxed{i}", r"\boxed{\sqrt{-1}}", r"\boxed{\sqrt{-1} \text{ m}}"])
    def test_value_that_is_not_real_is_no_number(self, pred):
        r = score(pred, r"1 \text{ m}", "numeric")
        assert r.score == 0.0
        assert r.diagnostics[0].startswith("NoNumber: ")

    def test_dimension_mismatch_diagnostic(self):
        r = score(r"\boxed{1.6 \times 10^{-19} \text{ J}}",
                  r"1.6 \times 10^{-19} \text{ C}", "numeric")
        assert r.score == 0.0
        assert any("DimensionMismatch" in d for d in r.diagnostics)

    def test_partial_credit_flag(self):
        cfg = GradeConfig(numeric_partial=True)
        r = score(r"\boxed{3.3 \times 10^{8} \text{ m/s}}",
                  r"3.0 \times 10^{8} \text{ m/s}", "numeric", cfg)
        assert r.score == pytest.approx(90.0, abs=0.5)


class TestConfig:
    def test_save_load_round_trip(self, tmp_path):
        cfg = GradeConfig(rtol=0.05, numeric_partial=True, trials=4, seed=99)
        path = tmp_path / "grade.cfg"
        cfg.save(path)
        assert GradeConfig.load(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ValueError):
            GradeConfig.load(path)

    @pytest.mark.parametrize("text", [
        "rename_cost = 3\nkind_change_cost = 3\n",
        "delete_cost = -1\n",
        # values that would grade silently wrong: every pair equivalent,
        # every miss a ZeroDivisionError, a misspelt flag read as false
        "trials = 0\n",
        "zero_cutoff = 0\n",
        "rtol = -0.1\n",
        "rtol = 0\n",
        "eval_rtol = nan\n",
        "eval_rtol = inf\n",
        "numeric_partial = ture\n",
        # the score scale is fixed at 100: the key is unknown, whatever
        # its value
        "max_score = -5\n",
        "max_score = 0\n",
        "max_score = inf\n",
        "max_score = 100\n",
        "openness_penalty = 3\n",
        "openness_penalty = -0.5\n",
        "openness_penalty = nan\n",
        "max_bracket_inserts = -1\n",
    ])
    def test_load_rejects_bad_costs(self, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValueError):
            GradeConfig.load(path)

    def test_zero_rtol_rejected(self):
        # compare_quantities needs a positive tolerance
        with pytest.raises(ValueError, match="rtol must be finite and positive"):
            GradeConfig(rtol=0)

    def test_cutoff_changes_scores(self):
        strict = GradeConfig(zero_cutoff=0.1)
        r1 = score(r"\boxed{\frac{m}{2\pi\hbar^2}}", r"\frac{m}{\pi\hbar^2}", "expression")
        r2 = score(r"\boxed{\frac{m}{2\pi\hbar^2}}", r"\frac{m}{\pi\hbar^2}", "expression", strict)
        assert r1.score > r2.score == 0.0


@pytest.fixture
def canon_calls(monkeypatch):
    """Count the canonical trees built anywhere in seedgrade, as
    CanonicalTree constructions."""
    calls = []
    original = canon.CanonicalTree.__init__

    def counted(self, root):
        calls.append(root)
        original(self, root)

    monkeypatch.setattr(canon.CanonicalTree, "__init__", counted)
    return calls


class TestCanonicalizeOnce:
    @pytest.mark.parametrize(
        "pred, gt, t, expected",
        [
            (r"\boxed{x+y}", "y+x", "expression", 2),
            (r"\boxed{\frac{m}{2\pi\hbar^2}}", r"\frac{m}{\pi \hbar^2}", "expression", 2),
            (r"\boxed{m c^2 = E}", "E = m c^2", "equation", 2),
            (r"\boxed{T \le T_c}", "T < T_c", "equation", 2),
            (r"\boxed{y = \frac{1}{\sin(0)}}", "y = 1", "equation", 2),
            (r"\boxed{(1, 2, 4)}", "(1, 2, 3)", "tuple", 6),
            (r"\boxed{(1, 2)}", "(1, 2, 3)", "tuple", 4),
            (r"\boxed{[0, L)}", "(0, L)", "interval", 4),
            (r"\boxed{(0, 2L)}", "(0, L)", "interval", 4),
            (r"\boxed{3.0 \times 10^{8} \text{ m/s}}", r"2.998 \times 10^{8} \text{ m/s}",
             "numeric", 0),
        ],
    )
    def test_calls_per_grade(self, canon_calls, pred, gt, t, expected):
        score(pred, gt, t)
        assert len(canon_calls) == expected


class TestGroundTruthMemo:
    """`grade` keeps each parsed ground truth, with its canonical trees and
    plans, across calls; conftest empties the memo before every test."""

    @pytest.mark.parametrize(
        "pred, gt, t, cold, warm, again",
        [
            (r"\boxed{x+y}", "y+x", "expression", 2, 1, r"\boxed{y+x}"),
            (r"\boxed{(1, 2, 4)}", "(1, 2, 3)", "tuple", 6, 3, r"\boxed{(1, 2, 5)}"),
        ],
    )
    def test_warm_grade_canonicalizes_prediction_only(self, canon_calls, pred, gt, t, cold, warm, again):
        score(pred, gt, t)
        assert len(canon_calls) == cold
        score(again, gt, t)
        assert len(canon_calls) == cold + warm

    @pytest.mark.parametrize(
        "pred, gt, t",
        [
            (r"\boxed{\frac{m}{2\pi\hbar^2}}", r"\frac{m}{\pi \hbar^2}", "expression"),
            (r"\boxed{x^2 + 2x = y}", "y = x^2 + 2x", "equation"),
            (r"\boxed{[0, L)}", "(0, L)", "interval"),
            (r"\boxed{(1, 2)}", "(1, 2, 3)", "tuple"),
            (r"\boxed{3.0 \times 10^{8} \text{ m/s}}", r"2.998 \times 10^{8} \text{ m/s}", "numeric"),
        ],
    )
    def test_warm_equals_cold(self, pred, gt, t):
        cold = score(pred, gt, t).to_dict()
        assert grader._prepared_ground_truth.cache_info().currsize == 1
        assert score(pred, gt, t).to_dict() == cold
        # parsed once; a graded prediction looks it up again, as a hit
        assert grader._prepared_ground_truth.cache_info().misses == 1

    def test_keyed_on_config(self):
        assert score(r"\boxed{x+1}", "(x+1", "expression").score == 100
        with pytest.raises(GroundTruthInvalid):
            score(r"\boxed{x+1}", "(x+1", "expression", GradeConfig(max_bracket_inserts=0))

    def test_invalid_raises_every_call(self):
        for _ in range(3):
            with pytest.raises(GroundTruthInvalid):
                score("x", r"\frac{", "expression")
        assert grader._prepared_ground_truth.cache_info().currsize == 0

    def test_least_recent_evicted(self):
        memo = grader._prepared_ground_truth
        size = 1024
        assert memo.cache_info().maxsize == size
        for i in range(size + 1):
            score(rf"\boxed{{{i}}}", str(i), "expression")
        info = memo.cache_info()
        assert (info.currsize, info.misses) == (size, size + 1)
        score(rf"\boxed{{{size}}}", str(size), "expression")
        assert memo.cache_info().misses == size + 1
        score(r"\boxed{0}", "0", "expression")
        assert memo.cache_info().misses == size + 2

    def test_grade_run_leaves_memo_empty(self):
        items = [
            BenchmarkItem("q1", "Magnetism", AnswerType.EXPRESSION, "p", "2x"),
            BenchmarkItem("q2", "Others", AnswerType.TUPLE, "p", "(1, 2)"),
        ]
        grade_run(items, [("q1", "m", r"\boxed{2x}"), ("q2", "m", r"\boxed{(1, 3)}")])
        assert grader._graded.cache_info().currsize == 0
        # the ground truths are kept parsed, but their canonical trees ended with the run
        assert grader._prepared_ground_truth.cache_info().currsize == 2
        for item in items:
            kept = grader._prepared_ground_truth(item.ground_truth, item.answer_type, CFG)
            assert kept.trees == () and kept.subtrees == {}

    def test_quantity_read_once(self, monkeypatch):
        # a ground truth's value is read when it is parsed, and a batch run
        # reads only the predictions' values
        read = []
        real = grader.real_value
        monkeypatch.setattr(grader, "real_value", lambda node: read.append(node) or real(node))
        gt = r"\frac{\pi}{2} \text{ m}"
        kept = grader._prepared_ground_truth(gt, AnswerType.NUMERIC, CFG)
        assert len(read) == 1 and kept.parts == ()
        assert kept.fresh().quantity is kept.quantity
        item = BenchmarkItem("q1", "Others", AnswerType.NUMERIC, "p", gt)
        report = grade_run([item], [("q1", "a", r"\boxed{1.5708 \text{ m}}"), ("q1", "b", r"\boxed{2 \text{ m}}")])
        assert [r["score"] for r in report.records] == [100.0, 0.0]
        assert len(read) == 3

    def test_fresh_copy_keeps_no_trees(self):
        score(r"\boxed{[0, 2L)}", "(0, 2L)", "interval")
        kept = grader._prepared_ground_truth("(0, 2L)", AnswerType.INTERVAL, CFG)
        assert kept.trees and kept.subtrees
        trees, subtrees = kept.trees, dict(kept.subtrees)
        copy = kept.fresh()
        assert (copy.answer_type, copy.parts, copy.quantity, copy.openness) == \
            (kept.answer_type, kept.parts, kept.quantity, kept.openness)
        assert copy.trees == () and copy.subtrees == {}
        assert grader.grade_prediction(r"\boxed{(0, 2L]}", copy, CFG).score < 100
        assert copy.trees and copy.subtrees
        assert kept.trees is trees and kept.subtrees == subtrees


class TestResultMemo:
    """`grade` keeps each result per normalized prediction text and parsed
    ground truth, and returns a copy; conftest empties the memo before
    every test."""

    def test_repeat_builds_no_tree(self, canon_calls):
        first = score(r"\boxed{x+2y}", "y+x", "expression")
        built = len(canon_calls)
        assert built == 2
        assert score(r"\boxed{x+2y}", "y+x", "expression").to_dict() == first.to_dict()
        assert len(canon_calls) == built
        assert grader._graded.cache_info().hits == 1

    def test_same_answer_in_other_prose_graded_once(self, monkeypatch):
        grader._prepared_ground_truth("2x", AnswerType.EXPRESSION, CFG)
        parsed = []
        real = grader.parse_answer
        monkeypatch.setattr(grader, "parse_answer", lambda text, t: parsed.append(text) or real(text, t))
        a = score(r"First we integrate, so \boxed{2x}.", "2x", "expression")
        b = score(r"By symmetry the answer is $\boxed{2x}$", "2x", "expression")
        assert parsed == ["2x"]
        assert a.to_dict() == b.to_dict()
        info = grader._graded.cache_info()
        assert (info.currsize, info.hits) == (1, 1)

    def test_changing_a_result_leaves_the_next_unchanged(self):
        first = score(r"\boxed{x+2}", "x+1", "expression")
        kept = first.to_dict()
        assert kept["edit_script"] and kept["score"] < 100
        first.score = 0.0
        first.edit_script.clear()
        first.diagnostics.append("changed by the caller")
        second = score(r"\boxed{x+2}", "x+1", "expression")
        assert grader._graded.cache_info().hits == 1
        assert second.to_dict() == kept
        assert second.edit_script is not first.edit_script

    def test_keyed_on_config(self):
        pred, gt = r"\boxed{3.05 \text{ m}}", r"3 \text{ m}"
        wide = GradeConfig(rtol=0.02)
        for _ in range(2):
            assert score(pred, gt, "numeric", wide).score == 100
            assert score(pred, gt, "numeric").score == 0
        info = grader._graded.cache_info()
        assert (info.currsize, info.hits) == (2, 2)

    def test_invalid_ground_truth_raises_every_call(self, monkeypatch):
        pred, gt = r"\boxed{x+1}", "(x+1"
        assert score(pred, gt, "expression").score == 100
        for _ in range(3):
            with pytest.raises(GroundTruthInvalid):
                score(pred, gt, "expression", GradeConfig(max_bracket_inserts=0))
        info = grader._graded.cache_info()
        assert (info.currsize, info.misses) == (1, 1)

        def invalid(*key):
            raise GroundTruthInvalid("invalid")

        # a kept result does not let a call skip the ground truth
        monkeypatch.setattr(grader, "_prepared_ground_truth", invalid)
        with pytest.raises(GroundTruthInvalid):
            score(pred, gt, "expression")
        assert grader._graded.cache_info().hits == 0

    def test_extraction_failure_not_kept(self):
        assert score("", "x", "expression").diagnostics == ["EmptyResponse: no answer segment found"]
        info = grader._graded.cache_info()
        assert (info.currsize, info.misses) == (0, 0)

    def test_least_recent_evicted(self):
        memo = grader._graded
        size = 1024
        assert memo.cache_info().maxsize == size
        for i in range(size + 1):
            score(rf"\boxed{{{i}}}", "0", "expression")
        info = memo.cache_info()
        assert (info.currsize, info.misses) == (size, size + 1)
        # "0" went first; "1" is now the least recent and stays
        score(r"\boxed{1}", "0", "expression")
        assert memo.cache_info().hits == 1
        score(r"\boxed{0}", "0", "expression")
        assert memo.cache_info().misses == size + 2

    def test_hit_refreshes_recency(self):
        memo = grader._graded
        size = memo.cache_info().maxsize
        for i in range(size):
            score(rf"\boxed{{{i}}}", "0", "expression")
        score(r"\boxed{0}", "0", "expression")  # "0" is now the most recent, "1" the least
        score(r"\boxed{x}", "0", "expression")  # evicts "1"
        assert memo.cache_info().hits == 1
        score(r"\boxed{0}", "0", "expression")
        assert memo.cache_info().hits == 2
        misses = memo.cache_info().misses
        score(r"\boxed{1}", "0", "expression")
        assert memo.cache_info().misses == misses + 1

    def test_warm_equals_cold_on_minicorpus(self):
        data = resources.files("seedgrade.data")
        with resources.as_file(data.joinpath("minicorpus.jsonl")) as d, \
             resources.as_file(data.joinpath("minicorpus_responses.jsonl")) as r:
            items = {item.id: item for item in load_dataset(d, CFG)}
            responses = load_responses(r)
        pairs = [(resp, items[i].ground_truth, items[i].answer_type) for i, _, resp in responses]
        assert {t for _, _, t in pairs} == set(AnswerType)
        cold = {}
        for pair in pairs:
            grader._prepared_ground_truth.cache_clear()
            grader._graded.cache_clear()
            cold[pair] = grade(*pair, CFG).to_dict()
        rng = random.Random(11)
        for _ in range(2):
            rng.shuffle(pairs)
            for pair in pairs:
                assert grade(*pair, CFG).to_dict() == cold[pair]
        assert grader._graded.cache_info().currsize == len(pairs)


def _canonical_nodes(node):
    stack, out = [node], []
    while stack:
        n = stack.pop()
        out.append(n)
        stack.extend(n.children)
    return out


class TestSubtreeTable:
    """Each parsed ground truth keeps a table of its raw subtrees' canonical
    forms (`TypedAnswer.subtrees`); predictions read it and never write to
    it."""

    @pytest.mark.parametrize(
        "gt, t, preds",
        [
            (r"\sin(x^2 + 1) + 2y", "expression",
             [rf"\boxed{{\sin(x^2 + 1) + {k} y + z^{k}}}" for k in range(20)]),
            (r"E = \frac{m c^2}{2}", "equation",
             [rf"\boxed{{E = \frac{{m c^{k}}}{{2}} + \cos(k)}}" for k in range(20)]),
            ("(a + b, c d)", "tuple",
             [rf"\boxed{{(a + {k} b, c d (e + {k}))}}" for k in range(20)]),
        ],
    )
    def test_kept_table_holds_the_ground_truth_only(self, gt, t, preds):
        score(preds[0], gt, t)
        kept = grader._prepared_ground_truth(gt, AnswerType(t), CFG).subtrees
        cold = len(kept)
        assert cold > 0
        for pred in preds[1:] + [preds[0]]:
            score(pred, gt, t)
        assert len(kept) == cold

    @pytest.mark.parametrize("warm", [False, True])
    def test_shared_subtree_is_one_node(self, warm):
        gt_text = r"\sin(x^2 + 1) + y"
        gt = grader._prepared_ground_truth(gt_text, AnswerType.EXPRESSION, CFG)
        if warm:
            score(r"\boxed{y}", gt_text, "expression")
        text = grader._normalize_prediction(r"\boxed{2y + \sin(x^2 + 1)}", CFG)
        pred, _ = grader._parse_prediction(text, AnswerType.EXPRESSION)
        assert grader.grade_parsed(pred, gt, CFG).score < 100
        (cp,), (cg,) = grader._compared_trees(pred, gt)
        assert cg is gt.trees[0]
        (sin_gt,) = [n for n in _canonical_nodes(cg.root) if n.payload == "sin"]
        (sin_pred,) = [n for n in _canonical_nodes(cp.root) if n.payload == "sin"]
        assert sin_pred is sin_gt


def _seeded_pairs(seed: int) -> list:
    """(prediction, ground truth, type) triples of all five answer types:
    each ground truth against a copy, a rearrangement, a one-symbol change
    and an unrelated answer of its type."""
    rng = random.Random(seed)
    leaves = ["x", "y", "m", r"\alpha", "2", "3", r"\pi", r"\hbar"]

    def expr(depth):
        if depth == 0 or rng.random() < 0.25:
            return rng.choice(leaves)
        a, b = expr(depth - 1), expr(depth - 1)
        return rng.choice([
            f"{a} + {b}", f"{a} - {b}", rf"{a} \cdot {b}", rf"\frac{{{a}}}{{{b}}}",
            rf"\sin({a})", f"({a})^{{2}}", rf"\sqrt{{{a}}}",
        ])

    def changed(text):
        return text.replace("x", "z", 1) if "x" in text else text + " + z"

    out = []
    for _ in range(16):
        a, b = expr(4), expr(3)
        gt = f"{a} + {b}"
        for pred in (gt, f"{b} + {a}", f"2 ({a}) - ({a}) + {b}", changed(gt), expr(3)):
            out.append((rf"\boxed{{{pred}}}", gt, "expression"))
        gt = f"{a} = {b}"
        for pred in (gt, f"{b} = {a}", f"{a} < {b}", changed(gt), f"{expr(2)} = {expr(2)}"):
            out.append((rf"\boxed{{{pred}}}", gt, "equation"))
        c = expr(2)
        gt = f"({a}, {b}, {c})"
        for pred in (gt, f"({a}, {changed(b)}, {c})", f"({a}, {b})", a, f"({c}, {b}, {a})"):
            out.append((rf"\boxed{{{pred}}}", gt, "tuple"))
        gt = f"({a}, {b}]"
        for pred in (gt, f"[{a}, {b}]", f"({a}, {changed(b)}]", f"({b}, {a})", f"[{expr(2)}, {c})"):
            out.append((rf"\boxed{{{pred}}}", gt, "interval"))
        v, k = rng.randint(11, 99) / 10, rng.randint(-5, 9)
        unit = rng.choice(["m/s", "J", "kg", "m"])
        gt = rf"{v} \times 10^{{{k}}} \text{{ {unit} }}"
        for pred in (
            gt, rf"{v * 1.003:.4f} \times 10^{{{k}}} \text{{ {unit} }}",
            rf"{v * 1.2:.3f} \times 10^{{{k}}} \text{{ {unit} }}",
            rf"{v} \times 10^{{{k}}} \text{{ C }}", expr(1),
        ):
            out.append((rf"\boxed{{{pred}}}", gt, "numeric"))
    return out


# one pair for each diagnostic path that grading can end on
DIAGNOSTIC_PAIRS = [
    (r"\boxed{m c^2}", "E = m c^2", "equation"),  # type mismatch
    (r"\boxed{(1, 2)}", "(0, L)", "interval"),  # type mismatch
    (r"\boxed{x}", r"3 \text{ m}", "numeric"),  # type mismatch
    (r"\boxed{1}", "(1, 2)", "tuple"),  # retried-as-expression
    (r"\boxed{(1, 2)}", "(1, 2, 3)", "tuple"),  # tuple length mismatch
    (r"\boxed{[0, L)}", "(0, L)", "interval"),  # interval openness
    (r"\boxed{T \le T_c}", "T < T_c", "equation"),  # relation-direction-mismatch
    (r"\boxed{y = \frac{1}{\sin(0)}}", "y = 1", "equation"),  # equivalence-inconclusive
    ("(" * 1000 + "x" + ")" * 1000, "x", "expression"),  # internal-error:RecursionError
]


def _minicorpus():
    data = resources.files("seedgrade.data")
    with resources.as_file(data.joinpath("minicorpus.jsonl")) as d, \
         resources.as_file(data.joinpath("minicorpus_responses.jsonl")) as r:
        return load_dataset(d, CFG), load_responses(r)


class TestGoldenRecords:
    """Digests of the records that `grade()` and `grade_run` give on the
    minicorpus, on seeded pairs of all five types and on one pair for each
    diagnostic path. A change that moves a digest changes some record."""

    def test_grade_records(self):
        items, responses = _minicorpus()
        by_id = {item.id: item for item in items}
        pairs = [(resp, by_id[i].ground_truth, by_id[i].answer_type.value) for i, _, resp in responses]
        pairs += _seeded_pairs(21) + DIAGNOSTIC_PAIRS
        h = hashlib.sha256()
        for pred, gt, t in pairs:
            h.update(json.dumps([pred, gt, t, score(pred, gt, t).to_dict()], sort_keys=True).encode())
        assert h.hexdigest() == GOLDEN_RECORDS[0]

    def test_grade_run_records(self):
        items, responses = _minicorpus()
        pairs = _seeded_pairs(21) + DIAGNOSTIC_PAIRS
        gts = sorted({(gt, t) for _, gt, t in pairs})
        ids = {key: f"g{n:03d}" for n, key in enumerate(gts)}
        items += [BenchmarkItem(ids[gt, t], "Others", AnswerType(t), "p", gt) for gt, t in gts]
        seen: dict = {}
        for pred, gt, t in pairs:
            n = seen[gt, t] = seen.get((gt, t), 0) + 1
            responses.append((ids[gt, t], f"model-{n}", pred))
        report = grade_run(items, responses, CFG)
        h = hashlib.sha256(json.dumps(report.records, sort_keys=True).encode())
        assert h.hexdigest() == GOLDEN_RECORDS[1]


GOLDEN_RECORDS = (
    "548d1bbf69de9c7c5e3a20e1b4626b1f7f331fc2e08d198c9c130c6258dcef91",
    "dbb8e121b1df9aa5bd0df4eed9b5269ddcbfa89657d817b39b815d34b2a04112",
)
