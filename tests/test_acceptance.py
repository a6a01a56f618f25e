"""End-to-end acceptance gate: one test per release criterion.

Each test prints a single PASS line on success (visible with -v via the test
name as well); tolerances are pinned here and nowhere else.
"""

import json
import random
import time
from fractions import Fraction
from importlib import resources

import pytest

from oracle import brute_distance, evaluate_exact, label_shape, tree_shapes
from seedgrade.canon import canonicalize, equivalent
from seedgrade.config import GradeConfig
from seedgrade.grader import grade, grade_equation
from seedgrade.harness import grade_run, load_dataset, load_responses, spearman
from seedgrade.nodes import AnswerType, Kind, MathNode, num, pow_, sym
from seedgrade.parser import parse_expression
from seedgrade.preprocess import canonicalize_latex
from seedgrade.ted import tree_edit_distance

CFG = GradeConfig()


def parse(s):
    return parse_expression(canonicalize_latex(s))


def expr_score(pred, gt):
    return grade(pred, gt, AnswerType.EXPRESSION, CFG)


def test_criterion_01_exact_equivalence_anchors():
    t0 = time.monotonic()
    r = expr_score(
        r"\boxed{\frac{8\pi M}{\mu^2}\left(1 - \frac{4m^2}{M^2}\right)^{-1/2}}",
        r"\tau = \frac{8\pi M^2}{\mu^2\sqrt{M^2 - 4m^2}}",
    )
    assert r.score == 100.0 and r.equivalent

    gt = r"h = \frac{(\varepsilon - 1)E^2}{8\pi\rho g}"
    for pred in (
        r"\boxed{h = \frac{(\varepsilon - 1)E^2}{8\pi\rho g}}",
        r"\boxed{h = \frac{E^2(\varepsilon - 1)}{8\pi g\rho}}",
    ):
        r2 = expr_score(pred, gt)
        assert r2.score == 100.0 and r2.equivalent
    elapsed = time.monotonic() - t0
    assert elapsed < 3.0  # < 1 s per pair
    print("PASS criterion 1: exact equivalence anchors score 100 "
          f"({elapsed / 3:.3f} s/pair)")


def test_criterion_02_partial_credit_bounds():
    gt = r"\tau = \frac{8\pi M^2}{\mu^2\sqrt{M^2 - 4m^2}}"
    for coeff in ("32", "16"):
        r = expr_score(rf"\boxed{{\frac{{{coeff}\pi M^2}}{{\mu^2\sqrt{{M^2 - 4m^2}}}}}}", gt)
        assert 0.0 < r.score < 100.0, f"{coeff}pi variant scored {r.score}"
        assert not r.equivalent
    print("PASS criterion 2: wrong-coefficient variants score strictly inside (0, 100)")


def test_criterion_03_zero_score_anchor():
    r = expr_score(r"\boxed{D = g(E) \Delta E}", r"\frac{m}{\pi \hbar^2}")
    assert r.score <= 5.0, f"got {r.score}"
    print(f"PASS criterion 3: structurally unrelated answer scores {r.score} (<= 5)")


def test_criterion_04_near_miss_localization():
    r = expr_score(r"\boxed{\frac{m}{2\pi\hbar^2}}", r"\frac{m}{\pi \hbar^2}")
    assert 0.0 < r.score < 100.0
    ops_with_2 = [
        op for op in r.edit_script
        if op.op in ("insert", "delete", "relabel")
        and "2" in (str(op.before or "") + str(op.after or ""))
    ]
    assert len(ops_with_2) == 1, [str(o) for o in r.edit_script]
    assert len(r.edit_script) == 1
    print(f"PASS criterion 4: near-miss scores {r.score}; "
          f"script pinpoints the factor 2: [{r.edit_script[0]}]")


def test_criterion_05_distance_matches_brute_force_oracle():
    rng = random.Random(20260823)
    cm = GradeConfig()
    by_size = {n: tree_shapes(n) for n in range(1, 7)}
    sizes = [1, 2, 3, 4, 5, 6]
    weights = [1, 2, 3, 3, 2, 1]
    n_pairs = 10_500
    t0 = time.monotonic()
    mismatches = 0
    for _ in range(n_pairs):
        sa, sb = rng.choices(sizes, weights=weights, k=2)
        a = label_shape(rng.choice(by_size[sa]), rng)
        b = label_shape(rng.choice(by_size[sb]), rng)
        got, _ = tree_edit_distance(a, b, cm)
        want = brute_distance(a, b, cm)
        if got != want:
            mismatches += 1
            assert False, f"{a!r} vs {b!r}: dp={got} brute={want}"
    elapsed = time.monotonic() - t0
    assert mismatches == 0
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f} s"
    print(f"PASS criterion 5: {n_pairs} oracle pairs, 0 mismatches, {elapsed:.1f} s")


EQUIVALENT_PAIRS = [
    (r"x + y", r"y + x"),
    (r"2x", r"x + x"),
    (r"x y", r"y x"),
    (r"(x+y)^2", r"x^2 + 2xy + y^2"),
    (r"x^2 - y^2", r"(x-y)(x+y)"),
    (r"\frac{a}{b}", r"a b^{-1}"),
    (r"\frac{a+b}{c}", r"\frac{a}{c} + \frac{b}{c}"),
    (r"\frac{1}{\frac{1}{x}}", r"x"),
    (r"\frac{a}{\frac{b}{c}}", r"\frac{a c}{b}"),
    (r"\sqrt{x^2}", r"x"),
    (r"\sqrt{4x}", r"2\sqrt{x}"),
    (r"x^{1/2}", r"\sqrt{x}"),
    (r"\sqrt{x}\sqrt{x}", r"x"),
    (r"\frac{1}{\sqrt{x}}", r"x^{-1/2}"),
    (r"e^{x} e^{y}", r"e^{x+y}"),
    (r"\sin^2 x + \cos^2 x", r"1"),
    (r"\ln(e)", r"1"),
    (r"2\pi", r"\pi + \pi"),
    (r"\frac{x}{2}", r"0.5 x"),
    (r"\frac{x^3}{x}", r"x^2"),
    (r"(x y)^2", r"x^2 y^2"),
    (
        r"\frac{8\pi M}{\mu^2}(1 - \frac{4m^2}{M^2})^{-1/2}",
        r"\frac{8\pi M^2}{\mu^2\sqrt{M^2 - 4m^2}}",
    ),
    (r"a - b", r"-(b - a)"),
    (r"\frac{-a}{b}", r"-\frac{a}{b}"),
    (r"x(y + z)", r"xy + xz"),
    (r"\frac{3}{6}x", r"\frac{x}{2}"),
    (r"\frac{a}{\sqrt{b}}", r"\frac{a\sqrt{b}}{b}"),
    (r"e^{2\ln x}", r"x^2"),
    (r"\frac{x^2 - 1}{x - 1}", r"x + 1"),
    (r"\tanh(x)", r"\frac{\sinh(x)}{\cosh(x)}"),
    (r"\cos(2x)", r"1 - 2\sin^2 x"),
    (r"\frac{1}{2} m v^2", r"\frac{m v^2}{2}"),
    (r"\hbar \omega", r"\omega \hbar"),
    (r"\frac{a b}{c d}", r"\frac{a}{c} \cdot \frac{b}{d}"),
    (r"10^{-3}", r"\frac{1}{1000}"),
    (r"\sqrt[3]{x^6}", r"x^2"),
    (r"\frac{2}{\sqrt{2}}", r"\sqrt{2}"),
    (r"(x+1)^2 - (x-1)^2", r"4x"),
    (r"e^{i \pi}", r"-1"),
    (r"\frac{d}{dx} x^2", r"\frac{d}{dx} (x \cdot x)"),
    (r"E = m c^2", r"m c^2 = E"),
    (r"a < b", r"b > a"),
    (r"2a \le 2b", r"a \le b"),
    (r"x + 1 = 0", r"-x = 1"),
    (r"\frac{a}{2} > 1", r"a > 2"),
    (r"x e^{-x}", r"\frac{x}{e^{x}}"),
    (r"\log(x^2)", r"2\log(x)"),
    (r"\frac{\hbar^2 k^2}{2m}", r"\frac{(\hbar k)^2}{2m}"),
    (r"\frac{x+y}{2}", r"\frac{x}{2} + \frac{y}{2}"),
    (
        r"\frac{1}{4\pi\varepsilon_0} \frac{q_1 q_2}{r^2}",
        r"\frac{q_1 q_2}{4\pi\varepsilon_0 r^2}",
    ),
]

INEQUIVALENT_PAIRS = [
    (r"x + y", r"x - y"),
    (r"2x", r"3x"),
    (r"x^2", r"x^3"),
    (r"(x+y)^2", r"x^2 + y^2"),
    (r"\frac{a}{b}", r"\frac{b}{a}"),
    (r"\sqrt{x}", r"x"),
    (r"e^x", r"e^{2x}"),
    (r"\sin x", r"\cos x"),
    (r"\frac{m}{\pi\hbar^2}", r"\frac{m}{2\pi\hbar^2}"),
    (r"16\pi", r"8\pi"),
    (r"x", r"-x"),
    (r"x + 1", r"x - 1"),
    (r"x y", r"x + y"),
    (r"\frac{x}{2}", r"2x"),
    (r"x^{1/2}", r"x^{1/3}"),
    (r"\ln x", r"\ln(2x)"),
    (r"\pi", r"e"),
    (r"\frac{1}{x+1}", r"\frac{1}{x} + 1"),
    (r"\sqrt{x + y}", r"\sqrt{x} + \sqrt{y}"),
    (r"(x+1)^2", r"x^2 + 1"),
    (r"\sin(2x)", r"2\sin x"),
    (r"\cos^2 x", r"\cos x^2"),
    (r"\hbar", r"h"),
    (r"a - b", r"b - a"),
    (r"\frac{a+b}{c}", r"a + \frac{b}{c}"),
    (r"x^2 y", r"x y^2"),
    (r"2^x", r"x^2"),
    (r"e^{-x}", r"e^{x}"),
    (r"\frac{1}{2} m v^2", r"m v^2"),
    (r"k_B T", r"k T"),
    (r"\tau", r"2\tau"),
    (
        r"\frac{8\pi M^2}{\mu^2\sqrt{M^2 - 4m^2}}",
        r"\frac{32\pi M^2}{\mu^2\sqrt{M^2 - 4m^2}}",
    ),
    (r"x/y/z", r"\frac{x}{\frac{y}{z}}"),
    (r"\sqrt{2}", r"2"),
    (r"\pi^2", r"2\pi"),
    (r"x + x", r"x"),
    (r"x^0", r"x"),
    (r"\sinh x", r"\sin x"),
    (r"\frac{d}{dx} x^2", r"\frac{d}{dx} x^3"),
    (r"1.5", r"\frac{3}{4}"),
    (r"a < b", r"a > b"),
    (r"a \le b", r"a < b"),
    (r"E = m c^2", r"E = \frac{1}{2} m c^2"),
    (r"x + y = 1", r"x - y = 1"),
    (r"\frac{x}{a+b}", r"\frac{x}{a} + \frac{x}{b}"),
    (r"10^3", r"10^{-3}"),
    (r"\exp(x) + 1", r"\exp(x + 1)"),
    (r"\frac{q}{4\pi\varepsilon_0 r^2}", r"\frac{q}{4\pi\varepsilon_0 r}"),
    (r"\cos(2x)", r"1 + 2\sin^2 x"),
    (r"\sqrt[3]{x}", r"\sqrt{x}"),
]


def _pair_equivalent(a_src, b_src):
    a, b = parse(a_src), parse(b_src)
    if a.kind is Kind.RELATION and b.kind is Kind.RELATION:
        return grade_equation(a, b, CFG).equivalent
    return equivalent(a, b, CFG)


def test_criterion_06_equivalence_corpus():
    assert len(EQUIVALENT_PAIRS) == 50 and len(INEQUIVALENT_PAIRS) == 50
    false_negatives = [
        (a, b) for a, b in EQUIVALENT_PAIRS if not _pair_equivalent(a, b)
    ]
    false_positives = [
        (a, b) for a, b in INEQUIVALENT_PAIRS if _pair_equivalent(a, b)
    ]
    assert not false_negatives, f"missed equivalences: {false_negatives}"
    assert not false_positives, f"spurious equivalences: {false_positives}"
    print("PASS criterion 6: 50/50 equivalent and 50/50 inequivalent pairs classified")


def _random_tree(rng, depth=0):
    if depth >= 3 or rng.random() < 0.35:
        if rng.random() < 0.5:
            return num(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        return sym(rng.choice("xyz"))
    roll = rng.random()
    if roll < 0.40:
        kids = tuple(_random_tree(rng, depth + 1) for _ in range(rng.randint(2, 3)))
        return MathNode(Kind.ADD, None, kids)
    if roll < 0.80:
        kids = tuple(_random_tree(rng, depth + 1) for _ in range(rng.randint(2, 3)))
        return MathNode(Kind.MUL, None, kids)
    return pow_(_random_tree(rng, depth + 1), num(rng.randint(-2, 3)))


def test_criterion_07_idempotence_and_homomorphism_fuzz():
    rng = random.Random(0xC0FFEE)
    n = 100_000
    violations = 0
    t0 = time.monotonic()
    for i in range(n):
        t = _random_tree(rng)
        c = canonicalize(t).root
        if canonicalize(c).root != c:
            violations += 1
            assert False, f"idempotence broken on {t!r}"
        env = {s: Fraction(rng.randint(1, 7), rng.randint(1, 3)) for s in "xyz"}
        try:
            before = evaluate_exact(t, env)
        except ZeroDivisionError:
            continue
        try:
            after = evaluate_exact(c, env)
        except ZeroDivisionError:
            # canonical form may cancel a pole; a second sample must agree
            continue
        if before != after:
            violations += 1
            assert False, f"value changed on {t!r}: {before} != {after}"
    elapsed = time.monotonic() - t0
    assert violations == 0
    print(f"PASS criterion 7: {n} fuzzed trees, 0 violations, {elapsed:.1f} s")


def test_criterion_08_numeric_grading():
    r = grade(r"\boxed{3.0e8 \text{ m/s}}", r"299792458 \text{ m/s}",
              AnswerType.NUMERIC, CFG)
    assert r.score == 100.0

    r = grade(r"\boxed{1 \text{ eV}}", r"1.602e-19 \text{ J}", AnswerType.NUMERIC, CFG)
    assert r.score == 100.0

    r = grade(r"\boxed{1.6e-19 \text{ C}}", r"1.602e-19 \text{ J}",
              AnswerType.NUMERIC, CFG)
    assert r.score == 0.0
    assert any("DimensionMismatch" in d for d in r.diagnostics)
    print("PASS criterion 8: numeric tolerance, cross-unit, and dimension-mismatch checks")


def test_criterion_09_tuple_interval_formulas():
    r = grade(r"\boxed{(1, 2, 4)}", "(1, 2, 3)", AnswerType.TUPLE, CFG)
    assert r.score == pytest.approx(66.67, abs=0.01)

    r = grade(r"\boxed{[0, L]}", "(0, L)", AnswerType.INTERVAL, CFG)
    assert r.score == pytest.approx(75.0, abs=0.01)
    print("PASS criterion 9: tuple 66.67 +/- 0.01 and interval 75 +/- 0.01")


def test_criterion_10_spearman():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0, abs=1e-9)
    assert spearman([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0, abs=1e-9)
    assert spearman([1, 2, 3, 4], [1, 2, 4, 3]) == pytest.approx(0.8, abs=1e-9)
    print("PASS criterion 10: spearman 1.0 / -1.0 / 0.8 exactly")


def test_criterion_11_harness_determinism(tmp_path):
    data = resources.files("seedgrade.data")
    with resources.as_file(data.joinpath("minicorpus.jsonl")) as d, \
         resources.as_file(data.joinpath("minicorpus_responses.jsonl")) as r:
        items = load_dataset(d, CFG)
        responses = load_responses(r)
    assert len(items) == 12

    outs = []
    for i in range(2):
        report = grade_run(items, responses, CFG)
        outdir = tmp_path / f"run{i}"
        report.write(outdir)
        outs.append(
            (outdir / "items.jsonl").read_bytes()
            + (outdir / "report.txt").read_bytes()
        )
    assert outs[0] == outs[1]
    # every record must be valid JSON with a score in range
    for line in outs[0].split(b"\n"):
        if line.startswith(b"{"):
            rec = json.loads(line)
            assert 0.0 <= rec["score"] <= 100.0
    print("PASS criterion 11: 12-item mini-corpus reports byte-identical across runs")
