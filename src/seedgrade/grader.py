"""Per-answer-type grading: preprocess, parse, canonicalize and score one
prediction against one ground truth. Canonicalization is one stage
(`_compared_trees`; a numeric value is read from its canonical form by
`read_answer`), and the score policy (`GradeResult`,
`distance_to_score`, `seed_score`) lives here: every partial score is built
by `_distance_result` (edit-distance credit) or `_combined_parts` (the
parts of a tuple or an interval). Prediction-side failures always become
score-0 results; only ground-truth failures raise."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .canon import as_canonical, canonicalize, equivalent, real_value, standardize_relation
from .config import GradeConfig
from .errors import DimensionMismatch, GradingError, GroundTruthInvalid, Inconclusive, NoNumber
from .nodes import AnswerType, Kind, MathNode, TypedAnswer
from .parser import parse_answer, split_quantity
from .preprocess import canonicalize_latex, extract_final_answer
from .ted import tree_edit_distance
from .units import compare_quantities, parse_quantity

# every score lies in [0, MAX_SCORE]; an equivalent answer scores MAX_SCORE
MAX_SCORE = 100.0


@dataclass
class GradeResult:
    score: float
    equivalent: bool
    distance: float
    relative_distance: float
    edit_script: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    @classmethod
    def zero(cls, diagnostics) -> "GradeResult":
        return cls(
            score=0.0,
            equivalent=False,
            distance=float("inf"),
            relative_distance=float("inf"),
            diagnostics=list(diagnostics),
        )

    @classmethod
    def full(cls, diagnostics) -> "GradeResult":
        return cls(
            score=MAX_SCORE,
            equivalent=True,
            distance=0,
            relative_distance=0.0,
            diagnostics=list(diagnostics),
        )

    def to_dict(self) -> dict:
        d = float(self.distance)
        return {
            "score": round(self.score, 6),
            "equivalent": self.equivalent,
            "distance": d if d == d and abs(d) != float("inf") else None,
            "relative_distance": (
                round(self.relative_distance, 6)
                if abs(self.relative_distance) != float("inf")
                else None
            ),
            "edit_script": [str(op) for op in self.edit_script],
            "diagnostics": list(self.diagnostics),
        }


def distance_to_score(distance, gt_size: int, cfg: GradeConfig = GradeConfig()) -> float:
    """Linear partial credit: 100 at distance 0, 0 at relative distance >= cutoff."""
    if gt_size < 1:
        raise ValueError("ground-truth size must be >= 1")
    r = distance / gt_size
    return MAX_SCORE * max(0.0, 1.0 - r / cfg.zero_cutoff)


def _distance_result(distance, gt_size: int, cfg: GradeConfig, edit_script, diagnostics) -> GradeResult:
    """Edit-distance partial credit: the result for a tree at `distance` from
    a ground-truth tree of `gt_size` nodes."""
    return GradeResult(
        score=distance_to_score(distance, gt_size, cfg),
        equivalent=False,
        distance=distance,
        relative_distance=distance / gt_size,
        edit_script=list(edit_script),
        diagnostics=list(diagnostics),
    )


def seed_score(pred, gt, cfg: GradeConfig = GradeConfig()) -> GradeResult:
    """Full credit on semantic equivalence, else edit-distance partial credit.

    pred and gt are CanonicalTrees, as grade_parsed builds them, or raw
    MathNodes, which are canonicalized here. The canonical trees feed both
    the equivalence check and the edit distance.
    """
    cp, cg = as_canonical(pred), as_canonical(gt)
    diagnostics: list = []
    try:
        if equivalent(cp, cg, cfg):
            return GradeResult.full(diagnostics)
    except Inconclusive:
        diagnostics.append("equivalence-inconclusive: falling back to tree distance")
    distance, ops = tree_edit_distance(cp.root, cg.root, cfg)
    return _distance_result(distance, cg.size, cfg, ops, diagnostics)


def read_answer(text: str, declared: AnswerType) -> TypedAnswer:
    """parse_answer, or for a numeric answer its quantity: the value of its
    value part, which `canon.real_value` reads from the value's canonical
    form, in its unit product (parser.split_quantity). A value that is not a
    finite real constant (a free symbol, `\\sqrt{-1}`, a pole, past the
    float range) raises NoNumber, and so does a unit scale that is not."""
    if declared is not AnswerType.NUMERIC:
        return parse_answer(text, declared)
    value, unit = split_quantity(text)
    try:
        return TypedAnswer(declared, (), parse_quantity(real_value(value), unit))
    except (ArithmeticError, ValueError):
        raise NoNumber(f"no finite magnitude in {text.strip()!r}") from None


def parse_ground_truth(gt_raw: str, declared: AnswerType, cfg: GradeConfig = GradeConfig()) -> TypedAnswer:
    try:
        clean = canonicalize_latex(gt_raw, max_bracket_inserts=cfg.max_bracket_inserts)
        return read_answer(clean.text, declared)
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
        return read_answer(text, declared), diagnostics
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


def _grade_relation(pred: tuple, gt: tuple, cfg: GradeConfig) -> GradeResult:
    """Score two relations on their standardized `(op, f)` forms (`f # 0`):
    equivalent sides under the same relation score full credit, anything
    else is graded on the sides."""
    op_p, cp = pred
    op_g, cg = gt
    sides = seed_score(cp, cg, cfg)
    if op_p == op_g and sides.equivalent:
        return GradeResult.full(["equation-equivalent"])
    distance = sides.distance
    diagnostics = sides.diagnostics + ["graded-on-standardized-sides"]
    if op_p != op_g:
        # relation direction counts as one more relabel on the one-sided form
        distance = (0 if distance == 0 else float(distance)) + cfg.rename_cost
        diagnostics.append("relation-direction-mismatch")
    return _distance_result(distance, cg.size, cfg, sides.edit_script, diagnostics)


def _combined_parts(pred: tuple, gt: tuple, n: int, factor: float, prefix: str, notes: list,
                    cfg: GradeConfig) -> GradeResult:
    """Score canonical parts by position: the mean of their seed scores over
    `n` parts (a part one side lacks scores 0), times `factor`. Each part's
    diagnostics get `prefix`, formatted with its index; `notes` follow them,
    and a result with notes is not equivalent."""
    parts = [seed_score(p, g, cfg) for p, g in zip(pred, gt)]
    score = sum(r.score for r in parts) / n * factor
    equivalent = not notes and all(r.equivalent for r in parts)
    return GradeResult(
        score=score,
        equivalent=equivalent,
        distance=0 if equivalent else sum(float(r.distance) for r in parts),
        relative_distance=0.0 if equivalent else 1.0 - score / MAX_SCORE,
        edit_script=[op for r in parts for op in r.edit_script],
        diagnostics=[prefix.format(i) + d for i, r in enumerate(parts) for d in r.diagnostics] + notes,
    )


def grade_numeric(pred: TypedAnswer, gt: TypedAnswer, cfg: GradeConfig = GradeConfig()) -> GradeResult:
    if pred.quantity is None:
        return GradeResult.zero(["TypeMismatch: prediction is not a quantity"])
    try:
        ok = compare_quantities(pred.quantity, gt.quantity, cfg.rtol)
    except DimensionMismatch as exc:
        return GradeResult.zero([f"DimensionMismatch: {exc}"])
    if ok:
        return GradeResult.full([f"within rtol {cfg.rtol}"])
    rel = abs(pred.quantity.magnitude - gt.quantity.magnitude) / max(
        abs(gt.quantity.magnitude), 1e-300
    )
    diagnostics = [f"magnitude off by relative error {rel:.3g}"]
    if cfg.numeric_partial:
        score = MAX_SCORE * max(0.0, 1.0 - rel)
        return GradeResult(
            score=score,
            equivalent=False,
            distance=rel,
            relative_distance=rel,
            diagnostics=diagnostics + ["numeric partial credit enabled"],
        )
    return GradeResult.zero(diagnostics)


def _canonical_forms(nodes: tuple, t: AnswerType, table: dict) -> tuple:
    """The canonical forms of nodes through `table`; an equation's are
    standardized `(op, f)` pairs."""
    if t is AnswerType.EQUATION:
        return tuple(standardize_relation(r, table) for r in nodes)
    return tuple(canonicalize(n, table) for n in nodes)


def _compared_trees(pred: TypedAnswer, gt: TypedAnswer) -> tuple:
    """The canonicalize stage: the canonical forms of the first k parts of
    pred and of gt, k the smaller part count. The ground truth's are built
    through its subtree table `gt.subtrees` on first use and kept in
    `gt.trees`; the prediction's through one copy of that table, which ends
    with the call, so a subtree it shares with gt is not rewritten again."""
    t = gt.answer_type
    k = min(len(pred.parts), len(gt.parts))
    kept = gt.trees
    if len(kept) < k:
        kept = gt.trees = kept + _canonical_forms(gt.parts[len(kept):k], t, gt.subtrees)
    return _canonical_forms(pred.parts[:k], t, dict(gt.subtrees)), kept[:k]


def grade_parsed(pred: TypedAnswer, gt: TypedAnswer, cfg: GradeConfig = GradeConfig()) -> GradeResult:
    """Grade a parsed prediction: check its type against the ground truth's,
    canonicalize both (_compared_trees, the one place that canonicalizes
    compared trees; a numeric answer's value was read when it was parsed,
    see read_answer), then score the canonical trees. A tuple scores the
    mean of its parts over the longer tuple; an interval the mean of its
    two endpoints, less `openness_penalty / 2` for each endpoint whose
    openness differs."""
    t = gt.answer_type
    if t is AnswerType.NUMERIC:
        return grade_numeric(pred, gt, cfg)
    if t is AnswerType.EXPRESSION and pred.answer_type is not AnswerType.EXPRESSION:
        return GradeResult.zero(["TypeMismatch: expected an expression"])
    if t is AnswerType.EQUATION and pred.parts[0].kind is not Kind.RELATION:
        return GradeResult.zero(["TypeMismatch: prediction is not an equation"])
    if t is AnswerType.INTERVAL and pred.answer_type is not AnswerType.INTERVAL:
        return GradeResult.zero(["TypeMismatch: expected an interval"])
    p, g = _compared_trees(pred, gt)
    if t is AnswerType.EQUATION:
        return _grade_relation(p[0], g[0], cfg)
    if t is AnswerType.TUPLE:
        # a lone expression is graded as a 1-part tuple (positional)
        lp, lg = len(pred.parts), len(gt.parts)
        n = max(lp, lg)
        side = "extra" if lp > lg else "missing"
        notes = [f"component {i}: {side}" for i in range(len(p), n)]
        if lp != lg:
            notes.append(f"length mismatch: {lp} vs {lg}, averaged over {n}")
        return _combined_parts(p, g, n, 1.0, "component {}: ", notes, cfg)
    if t is AnswerType.INTERVAL:
        mismatched = sum(a != b for a, b in zip(pred.openness, gt.openness))
        notes = [f"boundary openness mismatch on {mismatched} endpoint(s)"] if mismatched else []
        return _combined_parts(p, g, 2, 1.0 - cfg.openness_penalty * mismatched / 2, "", notes, cfg)
    return seed_score(p[0], g[0], cfg)


def grade_equation(pred: MathNode, gt: MathNode, cfg: GradeConfig = GradeConfig()) -> GradeResult:
    """Grade one raw relation against another, as grade_parsed grades
    equations."""
    return grade_parsed(
        TypedAnswer(AnswerType.EQUATION, (pred,)), TypedAnswer(AnswerType.EQUATION, (gt,)), cfg
    )


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
    """The parsed ground truth, kept for the process: `load_dataset` fills
    it as it validates each row, and `grade` and `grade_run` read it, so a
    loaded ground truth is parsed once. On the kept answer `grade`'s
    canonicalize stage keeps its canonical trees (with their evaluation
    plans) and its subtree table, so a hit skips every ground-truth stage;
    `grade_run` grades against a copy of it (`TypedAnswer.fresh`) instead.
    An invalid ground truth raises and is not kept. 1024 entries hold a
    whole CMPhysBench run."""
    return parse_ground_truth(gt_raw, declared, cfg)


@lru_cache(maxsize=1024)
def _graded(text: str, gt_raw: str, declared: AnswerType, cfg: GradeConfig) -> GradeResult:
    """`grade`'s result for a normalized prediction text, kept across calls.
    `grade` calls it only once the ground truth has been prepared, so the
    lookup here is a hit of that memo."""
    return _grade_normalized(text, _prepared_ground_truth(gt_raw, declared, cfg), cfg)


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
      repeated ground truth, or one that `load_dataset` read with the same
      config, is not parsed again. An invalid one raises on every
      call. With each ground truth the memo keeps what grade_parsed's
      canonicalize stage keeps on it: its canonical trees
      (`TypedAnswer.trees`) and its subtree table (`TypedAnswer.subtrees`),
      which maps each of the ground truth's own raw subtrees to its
      canonical form. A prediction is canonicalized through one copy of
      that table per grade, so a subtree it shares with the ground truth
      is not canonicalized again, and the copy ends with the call.
    - The result is kept per normalized prediction text and ground-truth
      key, so a prediction whose final answer normalizes to one already
      graded against that ground truth costs only extraction and
      normalization. A prediction with no extractable answer is not kept.
      Each call returns a fresh `GradeResult` with its own lists, so a
      caller that changes it does not change what later calls return.

    `grade_run` reads the ground-truth memo but keeps no canonical tree in
    it, and does not use the result memo. A canonical tree's size and digest
    are computed only when read.
    """
    _prepared_ground_truth(gt_raw, declared, cfg)  # an invalid ground truth raises here
    text = _normalize_prediction(pred_raw, cfg)
    if isinstance(text, GradeResult):
        return text
    result = _graded(text, gt_raw, declared, cfg)
    # a copy with its own lists; the constructor costs a third of `dataclasses.replace`
    return GradeResult(
        result.score, result.equivalent, result.distance, result.relative_distance,
        list(result.edit_script), list(result.diagnostics),
    )
