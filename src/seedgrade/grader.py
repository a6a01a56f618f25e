"""Per-answer-type grading: preprocess, parse, and score one prediction
against one ground truth. Prediction-side failures always become score-0
results; only ground-truth failures raise."""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from threading import Lock

from .canon import canonical_relation
from .config import GradeConfig
from .errors import DimensionMismatch, GradingError, GroundTruthInvalid
from .nodes import AnswerType, Kind, MathNode, TypedAnswer
from .parser import parse_answer
from .preprocess import canonicalize_latex, extract_final_answer
from .ted import GradeResult, distance_to_score, seed_score
from .units import compare_quantities


def parse_ground_truth(gt_raw: str, declared: AnswerType, cfg: GradeConfig = GradeConfig()) -> TypedAnswer:
    try:
        clean = canonicalize_latex(gt_raw, max_bracket_inserts=cfg.max_bracket_inserts)
        return parse_answer(clean, declared)
    except GradingError as exc:
        raise GroundTruthInvalid(f"ground truth {gt_raw!r} invalid: {exc}") from exc
    except RecursionError as exc:
        raise GroundTruthInvalid(f"ground truth {gt_raw!r} invalid: nesting too deep") from exc


def _internal_error(exc: Exception) -> GradeResult:
    return GradeResult.zero([f"internal-error:{type(exc).__name__}"])


def _normalize_prediction(pred_raw: str, cfg: GradeConfig) -> "str | GradeResult":
    """The normalized final answer, which is all that grading reads of a
    prediction; or the score-0 result when none can be extracted."""
    try:
        segment = extract_final_answer(pred_raw)
        return canonicalize_latex(segment, max_bracket_inserts=cfg.max_bracket_inserts).text
    except GradingError as exc:
        return GradeResult.zero([f"{type(exc).__name__}: {exc}"])
    except Exception as exc:
        return _internal_error(exc)


def _parse_prediction(text: str, declared: AnswerType):
    """TypedAnswer for the normalized prediction text, or (None, diagnostics)
    on failure.

    A failed declared-type parse is retried as a bare expression: models
    often drop tuple parentheses or restate a lone value.
    """
    diagnostics: list = []
    try:
        return parse_answer(text, declared), diagnostics
    except GradingError as exc:
        diagnostics.append(f"{type(exc).__name__}: {exc}")
    if declared is not AnswerType.EXPRESSION:
        try:
            retried = parse_answer(text, AnswerType.EXPRESSION)
            diagnostics.append("retried-as-expression")
            return retried, diagnostics
        except GradingError as exc:
            diagnostics.append(f"{type(exc).__name__}: {exc}")
    return None, diagnostics


def grade_equation(
    pred: MathNode, gt: MathNode, cfg: GradeConfig = GradeConfig(), table: "dict | None" = None
) -> GradeResult:
    """Score on the standardized `f # 0` forms: equivalent sides under the same
    relation score full credit, anything else is graded on the sides. gt is
    standardized first, through `table` (as in seed_score), and pred through
    a copy of it."""
    if pred.kind is not Kind.RELATION:
        return GradeResult.zero(["TypeMismatch: prediction is not an equation"])
    if table is None:
        table = {}
    op_g, cg = canonical_relation(gt, table)
    op_p, cp = canonical_relation(pred, dict(table))
    result = seed_score(cp, cg, cfg)
    if op_p == op_g and result.equivalent:
        return GradeResult.full(cfg, ["equation-equivalent"])
    result.equivalent = False
    result.diagnostics.append("graded-on-standardized-sides")
    if op_p != op_g:
        # relation direction counts as one more relabel on the one-sided form
        d = (0 if result.distance == 0 else float(result.distance)) + cfg.rename_cost
        result.distance = d
        result.relative_distance = d / cg.size
        result.score = distance_to_score(d, cg.size, cfg)
        result.diagnostics.append("relation-direction-mismatch")
    return result


def _grade_parts(pred_parts: list, gt_parts: list, cfg: GradeConfig, table: dict) -> GradeResult:
    n = max(len(pred_parts), len(gt_parts))
    scores = []
    scripts = []
    diagnostics = []
    all_equiv = len(pred_parts) == len(gt_parts)
    total_distance = 0.0
    for i in range(n):
        if i >= len(pred_parts) or i >= len(gt_parts):
            scores.append(0.0)
            diagnostics.append(f"component {i}: missing")
            continue
        r = seed_score(pred_parts[i], gt_parts[i], cfg, table)
        scores.append(r.score)
        scripts.extend(r.edit_script)
        total_distance += float(r.distance)
        all_equiv = all_equiv and r.equivalent
        diagnostics.extend(f"component {i}: {d}" for d in r.diagnostics)
    if len(pred_parts) != len(gt_parts):
        diagnostics.append(
            f"length mismatch: {len(pred_parts)} vs {len(gt_parts)}, averaged over {n}"
        )
    score = sum(scores) / n
    return GradeResult(
        score=score,
        equivalent=all_equiv,
        distance=0 if all_equiv else total_distance,
        relative_distance=0.0 if all_equiv else 1.0 - score / cfg.max_score,
        edit_script=scripts,
        diagnostics=diagnostics,
    )


def grade_interval(pred: TypedAnswer, gt: TypedAnswer, cfg: GradeConfig = GradeConfig()) -> GradeResult:
    pnode = pred.parts[0]
    gnode = gt.parts[0]
    if pnode.kind is not Kind.INTERVAL:
        return GradeResult.zero(["TypeMismatch: prediction is not an interval"])
    lo = seed_score(pnode.children[0], gnode.children[0], cfg, gt.subtrees)
    hi = seed_score(pnode.children[1], gnode.children[1], cfg, gt.subtrees)
    mismatched = sum(
        1 for a, b in zip(pnode.payload, gnode.payload) if a != b
    )
    factor = 1.0 - cfg.openness_penalty * mismatched / 2
    score = (lo.score + hi.score) / 2 * factor
    diagnostics = list(lo.diagnostics) + list(hi.diagnostics)
    if mismatched:
        diagnostics.append(f"boundary openness mismatch on {mismatched} endpoint(s)")
    equivalent = lo.equivalent and hi.equivalent and mismatched == 0
    return GradeResult(
        score=score,
        equivalent=equivalent,
        distance=0 if equivalent else float(lo.distance) + float(hi.distance),
        relative_distance=0.0 if equivalent else 1.0 - score / cfg.max_score,
        edit_script=lo.edit_script + hi.edit_script,
        diagnostics=diagnostics,
    )


def grade_numeric(pred: TypedAnswer, gt: TypedAnswer, cfg: GradeConfig = GradeConfig()) -> GradeResult:
    if pred.quantity is None:
        return GradeResult.zero(["TypeMismatch: prediction is not a quantity"])
    try:
        ok = compare_quantities(pred.quantity, gt.quantity, cfg.rtol)
    except DimensionMismatch as exc:
        return GradeResult.zero([f"DimensionMismatch: {exc}"])
    if ok:
        return GradeResult.full(cfg, [f"within rtol {cfg.rtol}"])
    rel = abs(pred.quantity.magnitude - gt.quantity.magnitude) / max(
        abs(gt.quantity.magnitude), 1e-300
    )
    diagnostics = [f"magnitude off by relative error {rel:.3g}"]
    if cfg.numeric_partial:
        score = cfg.max_score * max(0.0, 1.0 - rel)
        return GradeResult(
            score=score,
            equivalent=False,
            distance=rel,
            relative_distance=rel,
            diagnostics=diagnostics + ["numeric partial credit enabled"],
        )
    return GradeResult.zero(diagnostics)


def grade_parsed(pred: TypedAnswer, gt: TypedAnswer, cfg: GradeConfig = GradeConfig()) -> GradeResult:
    """Grade a parsed prediction; the ground truth's trees are canonicalized
    through its subtree table `gt.subtrees`, which the prediction reads."""
    t = gt.answer_type
    if t is AnswerType.EXPRESSION:
        if pred.answer_type is AnswerType.EXPRESSION:
            return seed_score(pred.parts[0], gt.parts[0], cfg, gt.subtrees)
        return GradeResult.zero(["TypeMismatch: expected an expression"])
    if t is AnswerType.EQUATION:
        return grade_equation(pred.parts[0], gt.parts[0], cfg, gt.subtrees)
    if t is AnswerType.TUPLE:
        # a lone expression is graded as a 1-part tuple (positional)
        return _grade_parts(list(pred.parts), list(gt.parts), cfg, gt.subtrees)
    if t is AnswerType.INTERVAL:
        if pred.answer_type is not AnswerType.INTERVAL:
            return GradeResult.zero(["TypeMismatch: expected an interval"])
        return grade_interval(pred, gt, cfg)
    if t is AnswerType.NUMERIC:
        return grade_numeric(pred, gt, cfg)
    raise AssertionError(t)


def grade_prediction(pred_raw: str, gt: TypedAnswer, cfg: GradeConfig = GradeConfig()) -> GradeResult:
    """Grade one raw prediction text against an already parsed ground truth.

    Any other exception than a GradingError while grading the prediction (a
    RecursionError on deep nesting, Python's int-to-str digit limit on a huge
    folded power) becomes a score-0 result with an `internal-error:<Type>`
    diagnostic, so that one prediction never aborts a batch run.
    """
    text = _normalize_prediction(pred_raw, cfg)
    if isinstance(text, GradeResult):
        return text
    return _grade_normalized(text, gt, cfg)


def _grade_normalized(text: str, gt: TypedAnswer, cfg: GradeConfig) -> GradeResult:
    """grade_prediction after normalization: parse, canonicalize, test
    equivalence and score."""
    try:
        pred, diagnostics = _parse_prediction(text, gt.answer_type)
        if pred is None:
            return GradeResult.zero(diagnostics)
        result = grade_parsed(pred, gt, cfg)
    except GradingError:
        raise
    except Exception as exc:
        return _internal_error(exc)
    result.diagnostics = diagnostics + result.diagnostics
    return result


@lru_cache(maxsize=1024)
def _prepared_ground_truth(gt_raw: str, declared: AnswerType, cfg: GradeConfig) -> TypedAnswer:
    """The parsed ground truth, kept for `grade` across calls. Its canonical
    trees and evaluation plans are filled on first use and kept on its nodes,
    and its subtree table on it, so a hit skips every ground-truth stage. An
    invalid ground truth raises and is not kept. 1024 entries hold a whole
    CMPhysBench run."""
    return parse_ground_truth(gt_raw, declared, cfg)


# `grade`'s results, least recently used first, keyed on (normalized
# prediction text, gt_raw, declared, cfg); the lock makes each lookup and
# insertion one step for callers on several threads
_GRADED_SIZE = 1024
_graded: "OrderedDict[tuple, GradeResult]" = OrderedDict()
_graded_lock = Lock()


def grade(
    pred_raw: str,
    gt_raw: str,
    declared: AnswerType,
    cfg: GradeConfig = GradeConfig(),
) -> GradeResult:
    """Grade one raw prediction text against one ground-truth LaTeX string.

    Two memos of the last 1024 distinct keys each serve a reward function or
    a loop over many models that grades the same answers again:
    - The parsed ground truth is kept per (gt_raw, declared, cfg), so a
      repeated ground truth costs nothing. An invalid one raises on every
      call. With each ground truth the memo keeps its canonical trees and
      its subtree table, which maps each of the ground truth's own raw
      subtrees to its canonical form: a prediction reads it, so a subtree
      it shares with the ground truth is not canonicalized again, and
      writes its own entries to a copy that ends with the call.
    - The result is kept per normalized prediction text and ground-truth
      key, so a prediction whose final answer normalizes to one already
      graded against that ground truth costs only extraction and
      normalization. A prediction with no extractable answer is not kept.
      Each call returns a fresh `GradeResult` with its own lists, so a
      caller that changes it does not change what later calls return.

    `grade_run` parses each item once itself and uses neither memo. A
    canonical tree's size and digest are computed only when read.
    """
    gt = _prepared_ground_truth(gt_raw, declared, cfg)
    text = _normalize_prediction(pred_raw, cfg)
    if isinstance(text, GradeResult):
        return text
    key = (text, gt_raw, declared, cfg)
    with _graded_lock:
        result = _graded.pop(key, None)
    if result is None:
        result = _grade_normalized(text, gt, cfg)
    with _graded_lock:
        _graded[key] = result  # now the most recently used
        if len(_graded) > _GRADED_SIZE:
            _graded.popitem(last=False)
    # a copy with its own lists; the constructor costs a third of `dataclasses.replace`
    return GradeResult(
        result.score, result.equivalent, result.distance, result.relative_distance,
        list(result.edit_script), list(result.diagnostics),
    )
