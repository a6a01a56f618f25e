"""Dataset ingestion, batch grading, aggregation, metric comparison, and
optional response fetching against an OpenAI-compatible endpoint."""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from .config import GradeConfig
from .errors import (
    CacheCorrupt,
    DegenerateInput,
    GroundTruthInvalid,
    HttpError,
    SchemaError,
)
from .grader import grade_prediction, parse_ground_truth
from .nodes import AnswerType
from .ted import GradeResult

TOPICS = (
    "Magnetism",
    "Superconductivity",
    "StronglyCorrelated",
    "Semiconductors",
    "TheoreticalFoundations",
    "Others",
)

ANSWER_TYPES = tuple(t.value for t in AnswerType)


@dataclass(frozen=True)
class BenchmarkItem:
    id: str
    topic: str
    answer_type: AnswerType
    problem: str
    ground_truth: str


@dataclass
class RunReport:
    records: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def mean_score(self) -> float:
        if not self.records:
            return 0.0
        return sum(r["score"] for r in self.records) / len(self.records)

    def accuracy(self) -> float:
        """SEED-exact accuracy: fraction of items scoring exactly 100."""
        if not self.records:
            return 0.0
        full = self.config.get("max_score", 100.0)
        return sum(1 for r in self.records if r["score"] == full) / len(self.records)

    def write(self, outdir) -> None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "items.jsonl", "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        with open(outdir / "report.txt", "w", encoding="utf-8") as fh:
            fh.write(render_report(self))
        with open(outdir / "config.json", "w", encoding="utf-8") as fh:
            json.dump(self.config, fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def read(cls, rundir) -> "RunReport":
        rundir = Path(rundir)
        records = []
        with open(rundir / "items.jsonl", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    records.append(json.loads(line))
        config = {}
        cfg_path = rundir / "config.json"
        if cfg_path.exists():
            config = json.loads(cfg_path.read_text("utf-8"))
        return cls(records=records, config=config)


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(lineno, "<json>", str(exc)) from exc


def load_dataset(path, cfg: GradeConfig = GradeConfig()) -> list:
    """Load and validate line-delimited benchmark items.

    Every invalid row is reported on stderr with its line number before the
    first error is raised.
    """
    items: list = []
    seen: set = set()
    problems: list = []
    for lineno, row in _read_jsonl(path):
        err = None
        for fld in ("id", "topic", "answer_type", "problem", "ground_truth"):
            if fld not in row or not isinstance(row[fld], str) or not row[fld]:
                err = SchemaError(lineno, fld, "missing or not a nonempty string")
                break
        if err is None and row["topic"] not in TOPICS:
            err = SchemaError(lineno, "topic", f"unknown topic {row['topic']!r}")
        if err is None and row["answer_type"] not in ANSWER_TYPES:
            err = SchemaError(lineno, "answer_type", f"unknown type {row['answer_type']!r}")
        if err is None and row["id"] in seen:
            err = SchemaError(lineno, "id", f"duplicate id {row['id']!r}")
        if err is None:
            declared = AnswerType(row["answer_type"])
            try:
                parse_ground_truth(row["ground_truth"], declared, cfg)
            except GroundTruthInvalid as exc:
                err = GroundTruthInvalid(str(exc), line=lineno)
        if err is not None:
            print(f"{path}: {err}", file=sys.stderr)
            problems.append(err)
            continue
        seen.add(row["id"])
        items.append(
            BenchmarkItem(
                id=row["id"],
                topic=row["topic"],
                answer_type=AnswerType(row["answer_type"]),
                problem=row["problem"],
                ground_truth=row["ground_truth"],
            )
        )
    if problems:
        raise problems[0]
    return items


def load_responses(path) -> list:
    """[(item id, model name, response text)], duplicates last-wins."""
    out: dict = {}
    for lineno, row in _read_jsonl(path):
        for fld in ("id", "model", "response"):
            if fld not in row or not isinstance(row[fld], str):
                raise SchemaError(lineno, fld, "missing or not a string")
        key = (row["id"], row["model"])
        if key in out:
            print(
                f"{path}:{lineno}: duplicate response for {key}, keeping the later one",
                file=sys.stderr,
            )
        out[key] = row["response"]
    return [(i, m, r) for (i, m), r in out.items()]


def grade_run(items, responses, cfg: GradeConfig = GradeConfig()) -> RunReport:
    """Grade every (item, model) pair. Items a model never answered score 0;
    responses without a matching item are recorded with a diagnostic. Each
    answered item's ground truth is parsed once, and its trees are
    canonicalized (an equation standardized) once and kept on them for every
    model; each distinct response text to it is graded once: grading is
    deterministic, so models that sent the same text share its result."""
    models = sorted({model for _, model, _ in responses})
    response_map = {(i, m): r for i, m, r in responses}

    def record(item_id, model, topic, answer_type, result):
        return {"id": item_id, "model": model, "topic": topic,
                "answer_type": answer_type, **result.to_dict()}

    records = []
    for item in items:
        gt = None
        graded: dict = {}  # response text -> GradeResult
        for model in models:
            text = response_map.pop((item.id, model), None)
            if text is None:
                result = GradeResult.zero(["missing response"])
            elif text in graded:
                result = graded[text]
            else:
                if gt is None:
                    gt = parse_ground_truth(item.ground_truth, item.answer_type, cfg)
                result = graded[text] = grade_prediction(text, gt, cfg)
            records.append(record(item.id, model, item.topic, item.answer_type.value, result))
    for (item_id, model), _ in sorted(response_map.items()):
        result = GradeResult.zero(["response id not in dataset"])
        records.append(record(item_id, model, "Others", "expression", result))
    records.sort(key=lambda r: (r["model"], r["id"]))
    return RunReport(records=records, config=cfg.to_dict())


def aggregate(report: RunReport, by: str) -> list:
    """Grouped (group, count, mean score, accuracy) rows in stable order."""
    if not report.records:
        raise ValueError("report is empty")
    if by not in ("topic", "answer_type", "model"):
        raise ValueError(f"cannot group by {by!r}")
    groups: dict = {}
    for rec in report.records:
        groups.setdefault(rec[by], []).append(rec["score"])
    full = report.config.get("max_score", 100.0)
    rows = []
    for group in sorted(groups):
        scores = groups[group]
        rows.append(
            {
                "group": group,
                "count": len(scores),
                "mean": sum(scores) / len(scores),
                "accuracy": sum(1 for s in scores if s == full) / len(scores),
            }
        )
    return rows


def render_report(report: RunReport) -> str:
    lines = []
    lines.append(f"items graded : {len(report.records)}")
    lines.append(f"mean score   : {report.mean_score():.2f}")
    lines.append(f"accuracy     : {report.accuracy():.4f}  (fraction scoring exactly 100)")
    for by in ("model", "topic", "answer_type"):
        lines.append("")
        lines.append(f"by {by}:")
        lines.append(f"  {'group':<24} {'n':>4} {'mean':>8} {'acc':>7}")
        for row in aggregate(report, by):
            lines.append(
                f"  {row['group']:<24} {row['count']:>4} {row['mean']:>8.2f} {row['accuracy']:>7.4f}"
            )
    return "\n".join(lines) + "\n"


# --- Spearman correlation ----------------------------------------------------

def _ranks(values) -> list:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Rank correlation with average ranks for ties."""
    x = list(x)
    y = list(y)
    if len(x) != len(y) or len(x) < 2:
        raise DegenerateInput("need two equal-length lists of at least 2 values")
    if len(set(x)) == 1 or len(set(y)) == 1:
        raise DegenerateInput("constant input has no rank correlation")
    rx = _ranks(x)
    ry = _ranks(y)
    n = len(x)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / (vx * vy) ** 0.5


# --- response fetching -------------------------------------------------------

PROMPT_TEMPLATE = (
    "You are a condensed matter physics expert. Please read the following "
    "question and provide a step-by-step solution using only the given "
    "symbols. Do not introduce any new symbols that are not provided in the "
    "problem statement. Your final answer must be presented as a readable "
    "LaTeX formula, enclosed in a \\boxed{} environment.\n\n"
)


def build_prompt(problem: str) -> str:
    return PROMPT_TEMPLATE + problem

API_KEY_ENV = "SEEDGRADE_API_KEY"


def _default_transport(url: str, headers: dict, payload: bytes):
    req = urllib.request.Request(url, data=payload, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8", "replace")


def _prompt_hash(problem: str) -> str:
    return hashlib.sha1((PROMPT_TEMPLATE + "\x00" + problem).encode()).hexdigest()


def fetch_responses(
    endpoint_config: dict,
    items,
    model_name: str,
    transport=None,
    cache_dir="response_cache",
    max_retries: int = 5,
) -> list:
    """Fetch one chat completion per item, with an on-disk resume cache.

    endpoint_config keys: url (required), backoff_base (seconds, default 1.0),
    temperature (default 0.0). The API key is read from $SEEDGRADE_API_KEY.
    """
    url = endpoint_config["url"]
    backoff_base = float(endpoint_config.get("backoff_base", 1.0))
    transport = transport or _default_transport
    cache = Path(cache_dir)
    cache.mkdir(parents=True, exist_ok=True)
    rng = random.Random(0xFE7C)
    api_key = os.environ.get(API_KEY_ENV, "")
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"

    out = []
    for item in items:
        phash = _prompt_hash(item.problem)
        key = hashlib.sha1(f"{model_name}|{item.id}|{phash}".encode()).hexdigest()
        cache_file = cache / f"{key}.json"
        if cache_file.exists():
            try:
                cached = json.loads(cache_file.read_text("utf-8"))
                text = cached["response"]
            except (json.JSONDecodeError, KeyError) as exc:
                raise CacheCorrupt(f"{cache_file}: {exc}") from exc
            out.append((item.id, model_name, text))
            continue
        payload = json.dumps(
            {
                "model": model_name,
                "temperature": endpoint_config.get("temperature", 0.0),
                "messages": [
                    {
                        "role": "user",
                        "content": build_prompt(item.problem),
                    }
                ],
            }
        ).encode("utf-8")
        status, body = None, ""
        for attempt in range(max_retries + 1):
            status, body = transport(url, headers, payload)
            if status == 200:
                break
            if status in (429, 500, 502, 503) and attempt < max_retries:
                time.sleep(backoff_base * (2**attempt) + rng.uniform(0, backoff_base))
                continue
            raise HttpError(status, body[:300])
        if status != 200:
            raise HttpError(status or 0, "retries exhausted")
        data = json.loads(body)
        text = data["choices"][0]["message"]["content"]
        cache_file.write_text(
            json.dumps(
                {
                    "model": model_name,
                    "item_id": item.id,
                    "prompt_hash": phash,
                    "response": text,
                },
                sort_keys=True,
            ),
            "utf-8",
        )
        out.append((item.id, model_name, text))
    return out
