import sys
import time

import pytest

from seedgrade import canon
from seedgrade.config import GradeConfig
from seedgrade.errors import GroundTruthInvalid
from seedgrade.grader import grade, parse_ground_truth
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
    pytest.param("(" * 200 + "x" + ")" * 200, "RecursionError", id="nested-parentheses"),
    pytest.param(_continued_fraction(99), "RecursionError", id="continued-fraction"),
    pytest.param("3^{100000}", "ValueError", id="int-digit-limit"),
]


class TestNeverCrash:
    @pytest.mark.parametrize("pred,error", CRASHERS)
    def test_internal_error_scores_zero(self, pred, error):
        r = score(pred, "x", "expression")
        assert r.score == 0.0 and not r.equivalent
        assert r.diagnostics == [f"internal-error:{error}"]

    def test_ground_truth_errors_still_raise(self):
        with pytest.raises(GroundTruthInvalid):
            score("x", r"\frac{", "expression")

    def test_deep_ground_truth_is_invalid(self):
        with pytest.raises(GroundTruthInvalid, match="nesting too deep"):
            score("x", "(" * 200 + "x" + ")" * 200, "expression")


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
    ])
    def test_zero_to_negative_power_is_undefined(self, pred, gt):
        assert score(rf"\boxed{{{pred}}}", gt, "expression").score < 100

    def test_zero_to_positive_power_is_zero(self):
        assert score(r"\boxed{0^{2}}", "0", "expression").score == 100

    @pytest.mark.xfail(
        strict=True,
        reason="the float path accepts a relative difference below eval_rtol; it waits "
        "for a precision escalation on close calls",
    )
    def test_float_path_small_offset(self):
        assert score(r"\boxed{\sin(x) + 10^{-11}}", r"\sin(x)", "expression").score < 100


class TestTuple:
    def test_positional_mean(self):
        r = score(r"\boxed{(1, 2, 4)}", "(1, 2, 3)", "tuple")
        assert r.score == pytest.approx(200 / 3, abs=0.01)

    def test_length_mismatch_averages_over_longer(self):
        r = score(r"\boxed{(1, 2)}", "(1, 2, 3)", "tuple")
        assert r.score == pytest.approx(200 / 3, abs=0.01)
        assert any("length mismatch" in d for d in r.diagnostics)

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

    @pytest.mark.parametrize(
        "text", ["rename_cost = 3\nkind_change_cost = 3\n", "delete_cost = -1\n"]
    )
    def test_load_rejects_bad_costs(self, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValueError):
            GradeConfig.load(path)

    def test_cutoff_changes_scores(self):
        strict = GradeConfig(zero_cutoff=0.1)
        r1 = score(r"\boxed{\frac{m}{2\pi\hbar^2}}", r"\frac{m}{\pi\hbar^2}", "expression")
        r2 = score(r"\boxed{\frac{m}{2\pi\hbar^2}}", r"\frac{m}{\pi\hbar^2}", "expression", strict)
        assert r1.score > r2.score == 0.0


@pytest.fixture
def canon_calls(monkeypatch):
    """Count canon.canonicalize calls made from anywhere in seedgrade."""
    calls = []
    original = canon.canonicalize

    def counted(node):
        calls.append(node)
        return original(node)

    for name, module in list(sys.modules.items()):
        if name.startswith("seedgrade") and getattr(module, "canonicalize", None) is original:
            monkeypatch.setattr(module, "canonicalize", counted)
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
