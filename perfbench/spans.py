"""In-memory span tracer for the benchmark's traced run.

The tracer wraps seedgrade's public functions from outside the program: it
rebinds each wrapped name in every seedgrade module that imported it, so
calls made from inside the program are seen too.  A span is recorded per
call, with the span that caused it (its parent) and the graded pair it
belongs to; a function that is already on the stack (the recursive
evaluators) is counted at its outermost call only.  Spans stay in memory
until the pass ends; `layer_metrics` turns them into per-layer numbers.

A wrapped name that no longer exists (after a refactor) is listed in
`Tracer.absent` and its layer is reported as absent instead of aborting.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter


class Span:
    __slots__ = ("id", "parent", "pair", "name", "start", "end", "error", "info")

    def __init__(self, id, parent, pair, name, start, end=None, error=None, info=None):
        self.id = id
        self.parent = parent
        self.pair = pair
        self.name = name
        self.start = start
        self.end = end
        self.error = error
        self.info = info

    def to_dict(self, self_s=None) -> dict:
        d = {k: getattr(self, k) for k in self.__slots__}
        d["self_s"] = self_s
        return d


def _size(tree):
    s = getattr(tree, "size", None)
    return s() if callable(s) else s


# (module, attribute, span name, what to note from (args, result))
TARGETS = (
    ("seedgrade.harness", "grade_run", "harness.grade_run", None),
    ("seedgrade.harness", "RunReport.write", "harness.write", None),
    ("seedgrade.grader", "grade", "grader.grade", lambda a, r: {"gt": a[1], "type": str(a[2])}),
    ("seedgrade.grader", "parse_ground_truth", "parser.gt_parse", None),
    ("seedgrade.preprocess", "extract_final_answer", "preprocess.extract", None),
    ("seedgrade.preprocess", "canonicalize_latex", "preprocess.normalize", lambda a, r: {"text": r.text}),
    ("seedgrade.parser", "parse_answer", "parser.parse", None),
    ("seedgrade.canon", "canonicalize", "canon.canonicalize", lambda a, r: {"nodes": r.size}),
    ("seedgrade.canon", "equivalent", "canon.equiv", lambda a, r: {"result": bool(r)}),
    ("seedgrade.canon", "evaluate_exact", "canon.equiv.exact", None),
    ("seedgrade.canon", "evaluate_float", "canon.equiv.float", None),
    ("seedgrade.canon", "standardize_relation", "canon.relation", None),
    ("seedgrade.canon", "equation_equivalent", "canon.relation", None),
    ("seedgrade.ted", "tree_edit_distance", "ted", lambda a, r: {"sizes": [_size(a[0]), _size(a[1])]}),
    ("seedgrade.units", "parse_quantity", "units.parse", None),
    ("seedgrade.units", "compare_quantities", "units.compare", None),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._missing: list = []
        self._present: list = []
        self._stack: list = []
        self._pair = None
        self._pairs = 0
        self._undo: list = []

    def install(self, targets=TARGETS) -> None:
        for module, attr, name, note in targets:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                owner = None
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None or not callable(original):
                self._missing.append(name)
                continue
            self._present.append(name)
            wrapper = self._wrap(original, name, note)
            holders = [owner] if isinstance(owner, type) else []
            holders += [m for n, m in list(sys.modules.items())
                        if n == "seedgrade" or n.startswith("seedgrade.")]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, original))

    @property
    def absent(self) -> list:
        """Layers none of whose functions exist any more."""
        return sorted(set(self._missing) - set(self._present))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def _wrap(self, fn, name, note):
        tracer = self
        spans = self.spans
        stack = self._stack
        active = [False]
        pair_root = name == "grader.grade"

        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            if pair_root:
                tracer._pair = tracer._pairs
                tracer._pairs += 1
            span = Span(len(spans), stack[-1] if stack else None, tracer._pair, name, 0.0)
            spans.append(span)
            stack.append(span.id)
            result = None
            try:
                span.start = perf_counter()
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                active[0] = False
                if pair_root:
                    tracer._pair = None
                if note is not None and span.error is None:
                    span.info = note(args, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(selfs[span.id])) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for s in spans:
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((s.end - s.start) - covered)
    return out


LAYERS = (
    "preprocess.extract", "preprocess.normalize", "parser.parse", "parser.gt_parse",
    "canon.canonicalize", "canon.equiv", "canon.equiv.exact", "canon.equiv.float",
    "canon.relation", "ted", "units.parse", "units.compare", "grader.grade",
    "harness.grade_run", "harness.write",
)


def layer_metrics(spans, absent_layers=()) -> dict:
    """Per-layer counts and self times of one traced pass.

    Times are seconds summed over the pass; `per_pair` ratios are over the
    pairs graded (outermost `grader.grade` spans)."""
    selfs = self_times(spans)
    calls = {n: 0 for n in LAYERS}
    self_s = {n: 0.0 for n in LAYERS}
    kids: dict = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[s.id]
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    grades = [s for s in spans if s.name == "grader.grade"]
    pairs = max(1, len(grades))

    paths = {"structural": 0, "exact": 0, "float": 0, "inconclusive": 0}
    equiv_true = 0
    for s in spans:
        if s.name != "canon.equiv":
            continue
        names = {k.name for k in kids.get(s.id, ())}
        if s.error == "Inconclusive":
            paths["inconclusive"] += 1
        elif "canon.equiv.float" in names:
            paths["float"] += 1
        elif "canon.equiv.exact" in names:
            paths["exact"] += 1
        else:
            paths["structural"] += 1
        equiv_true += bool(s.info and s.info["result"])

    retried, seen, dups = 0, set(), 0
    for g in grades:
        direct = kids.get(g.id, ())
        retried += sum(k.name == "parser.parse" for k in direct) >= 2
        texts = [k.info["text"] for k in direct if k.name == "preprocess.normalize" and k.info]
        key = (g.info and g.info["gt"], g.info and g.info["type"], texts[0] if texts else None)
        dups += key in seen
        seen.add(key)

    ted = [s for s in spans if s.name == "ted" and s.info]
    cells = sum(s.info["sizes"][0] * s.info["sizes"][1] for s in ted)
    m = {
        "preprocess.extract.calls": calls["preprocess.extract"],
        "preprocess.extract.self_s": self_s["preprocess.extract"],
        "preprocess.normalize.calls": calls["preprocess.normalize"],
        "preprocess.normalize.self_s": self_s["preprocess.normalize"],
        "preprocess.fail": sum(1 for s in spans if s.error and s.name.startswith("preprocess.")),
        "parser.parse.calls": calls["parser.parse"],
        "parser.parse.self_s": self_s["parser.parse"],
        "parser.parse.fail": sum(1 for s in spans if s.error and s.name == "parser.parse"),
        "parser.gt_parse.per_pair": sum(1 for s in spans if s.name == "parser.gt_parse"
                                        and s.pair is not None) / pairs,
        "canon.canonicalize.calls": calls["canon.canonicalize"],
        "canon.canonicalize.self_s": self_s["canon.canonicalize"],
        "canon.canonicalize.per_pair": calls["canon.canonicalize"] / pairs,
        "canon.canonicalize.nodes": sum(s.info["nodes"] for s in spans
                                        if s.name == "canon.canonicalize" and s.info),
        "canon.equiv.calls": calls["canon.equiv"],
        "canon.equiv.self_s": self_s["canon.equiv"],
        "canon.equiv.true_share": equiv_true / max(1, calls["canon.equiv"]),
        **{f"canon.equiv.path.{k}": v for k, v in paths.items()},
        "canon.equiv.exact.self_s": self_s["canon.equiv.exact"],
        "canon.equiv.float.self_s": self_s["canon.equiv.float"],
        "canon.relation.calls": calls["canon.relation"],
        "canon.relation.self_s": self_s["canon.relation"],
        "ted.calls": calls["ted"],
        "ted.self_s": self_s["ted"],
        "ted.cells": cells,
        "ted.us_per_cell": 1e6 * self_s["ted"] / cells if cells else 0.0,
        "ted.nodes_max": max((max(s.info["sizes"]) for s in ted), default=0),
        "units.parse.calls": calls["units.parse"],
        "units.parse.self_s": self_s["units.parse"],
        "units.compare.calls": calls["units.compare"],
        "units.compare.self_s": self_s["units.compare"],
        "grader.grade.calls": calls["grader.grade"],
        "grader.grade.self_s": self_s["grader.grade"],
        "grader.retry_share": retried / pairs,
        "harness.grade_run.self_s": self_s["harness.grade_run"],
        "harness.write_s": self_s["harness.write"],
        "harness.dup_share": dups / pairs,
    }
    return {k: (None if _layer_of(k) in absent_layers else v) for k, v in m.items()}


_LAYER_OF = {
    "grader.retry_share": "grader.grade",
    "harness.dup_share": "grader.grade",
    "preprocess.fail": "preprocess.extract",
}


def _layer_of(metric: str) -> str:
    if metric in _LAYER_OF:
        return _LAYER_OF[metric]
    return max((n for n in LAYERS if metric.startswith((n + ".", n + "_"))), key=len)
