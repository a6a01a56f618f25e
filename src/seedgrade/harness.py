"""Dataset ingestion, batch grading, aggregation, metric comparison, and
optional response fetching against an OpenAI-compatible endpoint."""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import sys
import threading
import time
import traceback
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from . import errors
from .config import GradeConfig
from .errors import (
    CacheCorrupt,
    DegenerateInput,
    GradingError,
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


FORK_AFTER_S = 0.05  # serial grading time after which a run splits its remaining items


def grade_run(items, responses, cfg: GradeConfig = GradeConfig()) -> RunReport:
    """Grade every (item, model) pair. Items a model never answered score 0;
    responses without a matching item are recorded with a diagnostic. Each
    answered item's ground truth is parsed once, and its trees are
    canonicalized (an equation standardized) once and kept on them for every
    model; each distinct response text to it is graded once: grading is
    deterministic, so models that sent the same text share its result.

    A run still grading after FORK_AFTER_S splits its remaining items across
    forked worker processes, one per usable CPU (see `_grade_parallel`); the
    records are the same as the serial loop's."""
    start = time.perf_counter()
    models = sorted({model for _, model, _ in responses})
    response_map = {(i, m): r for i, m, r in responses}
    work = [(item, [(model, response_map.pop((item.id, model), None)) for model in models])
            for item in items]
    records = []
    n = 0  # items graded serially, until the run has taken FORK_AFTER_S
    while n < len(work) and time.perf_counter() - start <= FORK_AFTER_S:
        records += _grade_item(*work[n], cfg)
        n += 1
    workers = _worker_count(len(work) - n)
    if workers > 1:
        records += _grade_parallel(work[n:], workers, cfg)
    else:
        for item, answers in work[n:]:
            records += _grade_item(item, answers, cfg)
    for (item_id, model), _ in sorted(response_map.items()):
        result = GradeResult.zero(["response id not in dataset"])
        records.append(_record(item_id, model, "Others", "expression", result))
    records.sort(key=lambda r: (r["model"], r["id"]))
    return RunReport(records=records, config=cfg.to_dict())


def _record(item_id, model, topic, answer_type, result) -> dict:
    return {"id": item_id, "model": model, "topic": topic,
            "answer_type": answer_type, **result.to_dict()}


def _grade_item(item, answers, cfg) -> list:
    """The records of one item; answers is [(model, response text or None)]."""
    gt = None
    graded: dict = {}  # response text -> GradeResult
    records = []
    for model, text in answers:
        if text is None:
            result = GradeResult.zero(["missing response"])
        elif text in graded:
            result = graded[text]
        else:
            if gt is None:
                gt = parse_ground_truth(item.ground_truth, item.answer_type, cfg)
            result = graded[text] = grade_prediction(text, gt, cfg)
        records.append(_record(item.id, model, item.topic, item.answer_type.value, result))
    return records


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker_count(remaining: int) -> int:
    """Processes to grade `remaining` items with: this one alone unless the
    host has a spare CPU and this process can fork safely (forking a process
    with other live threads can deadlock the child on a lock they held)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(_usable_cpus(), remaining)


MAX_TASKS = 1024  # tasks queued for the workers; 2 bytes each, so the queue fits in any pipe


def _tasks(work) -> list:
    """`work`'s indices in tasks for the workers to take one at a time:
    costliest items first, at most MAX_TASKS tasks of about equal length.
    An item costs the length of its distinct response texts and of its
    ground truth, and nothing when no model answered it."""
    costs = []
    for item, answers in work:
        texts = {text for _, text in answers if text is not None}
        costs.append(sum(map(len, texts)) + len(item.ground_truth) if texts else 0)
    order = sorted(range(len(work)), key=costs.__getitem__, reverse=True)
    size = -(-len(order) // MAX_TASKS)
    return [order[k:k + size] for k in range(0, len(order), size)]


def _grade_tasks(work, tasks, queue: int, cfg):
    """Grade the tasks whose numbers this process reads from the `queue`
    pipe until it is empty: ([(index, records)], None or (index, exception)).
    After an item fails, only items before it are graded, so that the first
    failing item of the run is among those the workers report."""
    done: list = []
    error = None
    while number := os.read(queue, 2):
        for i in tasks[int.from_bytes(number, "little")]:
            if error is not None and i > error[0]:
                continue
            try:
                done.append((i, _grade_item(*work[i], cfg)))
            except Exception as exc:
                error = (i, exc)
    return done, error


def _pin(cpus, k: int) -> None:
    """Keep this process on the k-th of `cpus` (round robin). A scheduler can
    leave a forked child on its parent's CPU for hundreds of milliseconds
    while another CPU idles, so unpinned workers sometimes share one CPU."""
    if cpus:
        try:
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        except OSError:  # a CPU gone offline, or a host that forbids it
            pass


def _error_to_json(exc) -> dict:
    if isinstance(exc, GradingError) and getattr(errors, type(exc).__name__, None) is type(exc):
        return {"type": type(exc).__name__, "args": exc.args, "attrs": vars(exc)}
    return {"traceback": "".join(traceback.format_exception(exc))}


def _error_from_json(data) -> Exception:
    """The exception a worker sent: a seedgrade error as the same type with
    the same message and attributes, anything else as a RuntimeError that
    carries the worker's traceback."""
    if "type" not in data:
        return RuntimeError(f"grading worker failed:\n{data['traceback']}")
    cls = getattr(errors, data["type"])
    exc = cls.__new__(cls)
    exc.args = tuple(data["args"])
    vars(exc).update(data["attrs"])
    return exc


def _grade_parallel(work, workers: int, cfg) -> list:
    """Grade `work` in `workers` processes: this one and workers - 1 forked
    children, each pinned to its own usable CPU where the host allows it.
    The items are queued as tasks of whole items (`_tasks`) in a pipe, and
    each process takes the next task when it is free, so a slow CPU grades
    fewer items and each distinct response text is still graded once per
    item. A child sends its records back through a pipe as JSON and ends
    with `os._exit`, never returning into the caller. Returns the records in
    item order, as the serial loop gives them; raises the error of the first
    item that failed, as the serial loop would. On any error, and on
    KeyboardInterrupt, every child is killed and reaped before this returns
    or raises."""
    tasks = _tasks(work)
    queue, wfd = os.pipe()
    with os.fdopen(wfd, "wb") as out:  # at most 2 KiB into an empty pipe: never blocks
        out.write(b"".join(t.to_bytes(2, "little") for t in range(len(tasks))))
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    children: dict = {}  # pid -> read end of its pipe
    try:
        _pin(affinity, 0)
        for k in range(1, workers):
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the others take its tasks
                os.close(rfd)
                os.close(wfd)
                break
            if pid == 0:  # child
                code = 1
                try:
                    os.close(rfd)
                    _pin(affinity, k)
                    done, error = _grade_tasks(work, tasks, queue, cfg)
                    if error is not None:
                        error = (error[0], _error_to_json(error[1]))
                    with os.fdopen(wfd, "wb") as out:
                        out.write(json.dumps([done, error]).encode())
                    code = 0
                finally:
                    os._exit(code)
            os.close(wfd)
            children[pid] = os.fdopen(rfd, "rb")
        parts = [_grade_tasks(work, tasks, queue, cfg)]
        for pid in list(children):
            with children[pid] as reader:
                payload = reader.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            try:
                done, error = json.loads(payload)
            except ValueError:
                raise RuntimeError(f"grading worker {pid} ended without a result "
                                   f"(wait status {status})") from None
            if error is not None:
                error = (error[0], _error_from_json(error[1]))
            parts.append((done, error))
    finally:
        for pid, reader in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            reader.close()
        os.close(queue)
        if affinity:
            try:
                os.sched_setaffinity(0, affinity)
            except OSError:
                pass
    by_index: list = [None] * len(work)
    failures = []
    for done, error in parts:
        for i, records in done:
            by_index[i] = records
        if error is not None:
            failures.append(error)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [rec for records in by_index for rec in records]


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
