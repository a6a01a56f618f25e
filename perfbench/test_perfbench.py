"""Tests of the benchmark's own parts: the corpus generator, its labels, and
the tracer's self-time arithmetic."""

import random
from fractions import Fraction

import pytest

import corpus
from spans import Span, Tracer, layer_metrics, self_times


def _files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_generator_is_deterministic_for_a_seed(tmp_path):
    for workload in ("synth-miss", "mini"):
        a = corpus.generate(workload, 7, tmp_path / f"{workload}-a")
        b = corpus.generate(workload, 7, tmp_path / f"{workload}-b")
        assert a == b
        assert _files(tmp_path / f"{workload}-a") == _files(tmp_path / f"{workload}-b")
    assert corpus.synth_correct(7, n_items=12) == corpus.synth_correct(7, n_items=12)
    assert corpus.synth_correct(7, n_items=12) != corpus.synth_correct(8, n_items=12)


def test_generated_workloads_have_their_stated_properties():
    props = corpus.properties(*corpus.synth_correct(3))
    assert props["items"] == 300 and props["responses"] == 1200
    assert props["models_per_gt"] == 4
    assert props["dup_share"] == pytest.approx(0.25, abs=0.01)
    assert props["equivalent_share"] == 1.0
    assert 0.4 <= props["transcendental_share"] <= 0.5
    assert 10 <= props["nodes_q1_q2_q3"][0] and props["nodes_q1_q2_q3"][2] <= 60
    props = corpus.properties(*corpus.synth_miss(3))
    assert props["models_per_gt"] == 1 and props["dup_share"] == 0.0
    assert props["equivalent_share"] == 0.0
    assert 150 <= props["nodes_q1_q2_q3"][0] and props["nodes_q1_q2_q3"][2] <= 410


def _to_sympy(t, sp):
    k = t[0]
    if k == "num":
        return sp.Rational(t[1].numerator, t[1].denominator)
    if k == "sym":
        return sp.Symbol(t[1], positive=True)
    if k == "pi":
        return sp.pi
    if k == "add":
        return sp.Add(*[_to_sympy(c, sp) for c in t[1]])
    if k == "mul":
        return sp.Mul(*[_to_sympy(c, sp) for c in t[1]])
    if k == "div":
        return _to_sympy(t[1], sp) / _to_sympy(t[2], sp)
    if k == "pow":
        return _to_sympy(t[1], sp) ** t[2]
    if k == "sqrt":
        return sp.sqrt(_to_sympy(t[1], sp))
    return getattr(sp, {"arctan": "atan"}.get(t[1], t[1]))(_to_sympy(t[2], sp))


def test_labels_are_sound_against_sympy():
    """The rewrites behind `synth-correct` keep the value and the edits
    behind `synth-miss` change it, judged by sympy rather than by the
    generator's own evaluator."""
    sp = pytest.importorskip("sympy")
    rng = random.Random(11)
    check = random.Random(12)
    for j in range(12):
        pool = corpus._symbol_pool(rng, 6)
        tree = corpus.tree_near(rng, 14, pool, 0.25 if j % 2 else 0.0)
        variant = corpus.equivalent_variant(tree, rng, j)
        assert sp.simplify(_to_sympy(tree, sp) - _to_sympy(variant, sp)) == 0
        assert corpus.same_value(tree, variant, check)
    for _ in range(6):
        pool = corpus._symbol_pool(rng, 30)
        tree = corpus.polynomial(rng, 40, pool)
        edited = corpus.random_edit(tree, rng, pool)
        diff = sp.expand(_to_sympy(tree, sp) - _to_sympy(edited, sp))
        assert (diff != 0) == (not corpus.same_value(tree, edited, check))


def test_quantity_renderings_carry_the_same_value():
    rng = random.Random(5)
    for _ in range(50):
        q = corpus.random_quantity(rng)
        gt, value = corpus.render_quantity(q, rng, noisy=False)
        pred, pred_value = corpus.render_quantity(q, rng, noisy=True)
        assert value == pred_value == q[0] * Fraction(10) ** q[1]
        mant, _, rest = pred.replace("×", "\\times").partition("\\times 10^{")
        exp, _, unit = rest.partition("}")
        unit = unit.split("text{")[1].strip(" }")
        base, alt, shift = corpus.UNITS[q[2]]
        shift = 0 if unit == base else shift
        assert unit in (base, alt)
        assert Fraction(mant.strip()) * Fraction(10) ** (int(exp) + shift) == value


def _span(id, parent, name, start, end, pair=None, error=None, info=None):
    return Span(id, parent, pair, name, start, end, error, info)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, None, "root", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 0, "b", 3.0, 6.0),  # overlaps a: [1, 6] is covered once
        _span(3, 1, "c", 2.0, 3.0),
        _span(4, 0, "d", 9.5, 11.0),  # runs past its parent: clipped at 10
        _span(5, None, "other", 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx([4.5, 2.0, 3.0, 1.0, 1.5, 1.0])


def test_layer_metrics_on_a_made_up_pair():
    g = {"gt": "x", "type": "AnswerType.EXPRESSION"}
    spans = [
        _span(0, None, "grader.grade", 0.0, 10.0, pair=0, info=g),
        _span(1, 0, "parser.gt_parse", 0.0, 1.0, pair=0),
        _span(2, 1, "parser.parse", 0.2, 0.8, pair=0),
        _span(3, 0, "preprocess.normalize", 1.0, 2.0, pair=0, info={"text": "y"}),
        _span(4, 0, "parser.parse", 2.0, 3.0, pair=0, error="ParseError"),
        _span(5, 0, "parser.parse", 3.0, 4.0, pair=0),
        _span(6, 0, "canon.equiv", 4.0, 6.0, pair=0, info={"result": False}),
        _span(7, 6, "canon.equiv.float", 4.5, 5.5, pair=0),
        _span(8, 0, "ted", 6.0, 8.0, pair=0, info={"sizes": [10, 20]}),
        _span(9, None, "grader.grade", 10.0, 11.0, pair=1, info=g),
        _span(10, 9, "preprocess.normalize", 10.0, 10.5, pair=1, info={"text": "y"}),
        _span(11, 9, "canon.equiv", 10.5, 11.0, pair=1, info={"result": True}),
    ]
    m = layer_metrics(spans)
    assert m["grader.grade.calls"] == 2
    assert m["grader.grade.self_s"] == pytest.approx(2.0 + 0.0)
    assert m["parser.parse.calls"] == 3 and m["parser.parse.fail"] == 1
    assert m["parser.gt_parse.per_pair"] == 0.5
    assert m["grader.retry_share"] == 0.5
    assert m["harness.dup_share"] == 0.5
    assert m["canon.equiv.path.float"] == 1 and m["canon.equiv.path.structural"] == 1
    assert m["canon.equiv.true_share"] == 0.5
    assert m["canon.equiv.self_s"] == pytest.approx(1.0 + 0.5)
    assert m["ted.cells"] == 200 and m["ted.nodes_max"] == 20
    assert m["ted.us_per_cell"] == pytest.approx(1e6 * 2.0 / 200)
    absent = layer_metrics(spans, absent_layers=["ted", "grader.grade"])
    assert absent["ted.cells"] is None and absent["harness.dup_share"] is None
    assert absent["canon.equiv.calls"] == 2


def test_missing_functions_are_reported_absent():
    tracer = Tracer()
    tracer.install([("json", "no_such_function", "json.missing", None),
                    ("no_such_module_here", "f", "nowhere", None)])
    assert tracer.absent == ["json.missing", "nowhere"]
    tracer.uninstall()


def test_benchmark_json_names_every_printed_metric():
    import json
    from pathlib import Path

    import run

    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert all(run.END_TO_END_UNITS[m["name"]] == m["unit"] for m in bench["end_to_end"])
    layer_names = list(layer_metrics([])) + ["harness.load_dataset_s", "trace.overhead"]
    assert [m["name"] for m in bench["per_layer"]] == layer_names
    assert all(run.per_layer_unit(m["name"]) == m["unit"] for m in bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(corpus.WORKLOADS)


def test_timings_are_scaled_to_the_reference_speed():
    import run

    # the same work twice: once with the machine at half its reference speed
    batch = [{"records": 10, "pass_s": 2.0, "ref_s": 2 * run.REF_S},
             {"records": 10, "pass_s": 1.0, "ref_s": run.REF_S}]
    assert run._rate(batch) == pytest.approx(20 / 2.0)
    assert run._rate(batch, scaled=False) == pytest.approx(20 / 3.0)
