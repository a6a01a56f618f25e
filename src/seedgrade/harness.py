"""Dataset ingestion, batch grading, aggregation and metric comparison."""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from .config import GradeConfig
from .errors import DegenerateInput, GroundTruthInvalid, SchemaError
from .grader import MAX_SCORE, GradeResult, _prepared_ground_truth, grade_prediction
from .nodes import AnswerType

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
        return sum(1 for r in self.records if r["score"] == MAX_SCORE) / len(self.records)

    def write(self, outdir) -> None:
        report = render_report(self)  # raises on an empty report, before any file is made
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "items.jsonl", "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        (outdir / "report.txt").write_text(report, encoding="utf-8")
        config = json.dumps(self.config, sort_keys=True, indent=2) + "\n"
        (outdir / "config.json").write_text(config, encoding="utf-8")

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
    first error is raised. Each ground truth is validated by parsing it
    through the ground-truth memo that `grade` and `grade_run` read
    (grader._prepared_ground_truth), so neither parses it again.
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
                _prepared_ground_truth(row["ground_truth"], declared, cfg)
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


FORK_AFTER_S = 0.05  # projected serial time of the tasks left past which a run forks workers


def grade_run(items, responses, cfg: GradeConfig = GradeConfig()) -> RunReport:
    """Grade every (item, model) pair. Items a model never answered score 0;
    responses without a matching item are recorded with a diagnostic.

    Before any item is graded, each answered item's ground truth is looked
    up, in item order, in the ground-truth memo that `load_dataset` filled
    (an item it did not load is parsed once, into the memo), so an invalid
    one raises here, the first in item order, and no worker is forked. An
    unanswered item's ground truth is never parsed. Its trees are
    canonicalized (an equation standardized) once for every model, on a
    copy of the parse (`TypedAnswer.fresh`) that ends with the item (see
    grader.grade_parsed). Each distinct response text to it is graded once:
    grading is deterministic, so models that sent the same text share its
    result. The result memo of `grade` is not used.

    Items are graded from one task queue; forked workers join in once the
    tasks left are projected to take over FORK_AFTER_S (see `_grade_work`)."""
    models = sorted({model for _, model, _ in responses})
    response_map = {(i, m): r for i, m, r in responses}
    work = []  # (item, its kept ground-truth parse or None if unanswered, answers)
    for item in items:
        answers = [(model, response_map.pop((item.id, model), None)) for model in models]
        answered = any(text is not None for _, text in answers)
        gt = _prepared_ground_truth(item.ground_truth, item.answer_type, cfg) if answered else None
        work.append((item, gt, answers))
    records = _grade_work(work, cfg)
    for (item_id, model), _ in sorted(response_map.items()):
        result = GradeResult.zero(["response id not in dataset"])
        records.append(_record(item_id, model, "Others", "expression", result))
    records.sort(key=lambda r: (r["model"], r["id"]))
    return RunReport(records=records, config=cfg.to_dict())


def _record(item_id, model, topic, answer_type, result) -> dict:
    return {"id": item_id, "model": model, "topic": topic,
            "answer_type": answer_type, **result.to_dict()}


def _grade_item(item, gt, answers, cfg) -> list:
    """The records of one item; gt is its kept ground-truth parse (None when
    no model answered it), answers is [(model, response text or None)]."""
    if gt is not None:
        gt = gt.fresh()  # the trees built on the copy end with the item
    graded: dict = {}  # response text -> GradeResult
    records = []
    for model, text in answers:
        if text is None:
            result = GradeResult.zero(["missing response"])
        elif text in graded:
            result = graded[text]
        else:
            result = graded[text] = grade_prediction(text, gt, cfg)
        records.append(_record(item.id, model, item.topic, item.answer_type.value, result))
    return records


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


MAX_TASKS = 1024  # tasks queued per run; 2 bytes each, so the queue fits in any pipe


def _tasks(work) -> tuple:
    """`work`'s indices in at most MAX_TASKS tasks, and each task's cost: the
    length of its items' distinct response texts and ground truths (0 for an
    unanswered item). The cheapest answered item goes first and alone, to set
    the rate a run projects the rest at; the rest follow costliest first."""
    costs = []
    for item, _, answers in work:
        texts = {text for _, text in answers if text is not None}
        costs.append(sum(map(len, texts)) + len(item.ground_truth) if texts else 0)
    order = sorted(range(len(work)), key=costs.__getitem__, reverse=True)
    answered = len(costs) - costs.count(0)
    first = [[order.pop(answered - 1)]] if answered else []
    size = len(order) // (MAX_TASKS - 1) + 1
    tasks = first + [order[k:k + size] for k in range(0, len(order), size)]
    return tasks, [sum(costs[i] for i in task) for task in tasks]


def _queued(queue: int):
    """The task numbers this process reads from the `queue` pipe until it is empty."""
    while number := os.read(queue, 2):
        yield int.from_bytes(number, "little")


def _grade_tasks(work, tasks, numbers, cfg) -> list:
    """[(index, records)] of the items of the tasks whose numbers `numbers` yields."""
    return [(i, _grade_item(*work[i], cfg)) for t in numbers for i in tasks[t]]


def _pin(cpus, k: int) -> None:
    """Keep this process on the k-th of `cpus` (round robin). A scheduler can
    leave a forked child on its parent's CPU for hundreds of milliseconds
    while another CPU idles, so unpinned workers sometimes share one CPU."""
    if cpus:
        try:
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        except OSError:  # a CPU gone offline, or a host that forbids it
            pass


def _grade_work(work, cfg) -> list:
    """Grade `work` from one queue of tasks of whole items (`_tasks`) in a
    pipe. Before each task it takes, until it forks, this process projects
    the time the tasks left would take it alone: its time so far × cost left
    ÷ cost graded (0 before its first task). The first time that passes
    FORK_AFTER_S, it forks a child per other usable CPU to share the queue,
    each process pinned to its own CPU where the host allows it; a child
    sends back its [(index, records)] as JSON and ends with `os._exit`.
    Grading raises nothing for a valid ground truth, and `grade_run` checked
    them all, so a child that raises has met a bug: it prints the traceback
    to stderr and exits 1, and this process raises a RuntimeError for the
    child that ended without a result. Returns the records in item order.
    On any error or KeyboardInterrupt, every child is killed and reaped first."""
    tasks, costs = _tasks(work)
    queue, wfd = os.pipe()  # written raw: a buffered file adds ~0.4 MB to a forked process
    os.write(wfd, b"".join(t.to_bytes(2, "little") for t in range(len(tasks))))
    os.close(wfd)
    affinity: list = []  # the CPUs this process may use, read when it pins itself
    children: dict = {}  # pid -> read end of its pipe

    def taken():  # the numbers of the tasks this process takes
        start, done, left = time.perf_counter(), 0, sum(costs)
        for n, t in enumerate(_queued(queue)):
            if left and (done and (time.perf_counter() - start) * left / done) > FORK_AFTER_S:
                break
            yield t
            done, left = done + costs[t], left - costs[t]
        else:
            return
        # forking with other live threads can deadlock a child on a lock they held
        alone = not hasattr(os, "fork") or threading.active_count() > 1
        workers = 1 if alone else min(_usable_cpus(), len(tasks) - n)
        if workers > 1:
            if hasattr(os, "sched_setaffinity"):
                affinity.extend(sorted(os.sched_getaffinity(0)))
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
                    done = _grade_tasks(work, tasks, _queued(queue), cfg)
                    with os.fdopen(wfd, "wb") as out:
                        out.write(json.dumps(done).encode())
                    code = 0
                except Exception:
                    traceback.print_exc()
                    sys.stderr.flush()  # os._exit flushes nothing
                finally:
                    os._exit(code)
            os.close(wfd)
            children[pid] = os.fdopen(rfd, "rb")
        yield t
        yield from _queued(queue)

    try:
        done = _grade_tasks(work, tasks, taken(), cfg)
        for pid in list(children):
            with children[pid] as reader:
                payload = reader.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            try:
                done += json.loads(payload)
            except ValueError:
                raise RuntimeError(f"grading worker {pid} ended without a result "
                                   f"(wait status {status})") from None
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
    done.sort(key=lambda d: d[0])
    return [rec for _, records in done for rec in records]


def aggregate(report: RunReport, by: str) -> list:
    """Grouped (group, count, mean score, accuracy) rows in stable order."""
    if not report.records:
        raise ValueError("report is empty")
    if by not in ("topic", "answer_type", "model"):
        raise ValueError(f"cannot group by {by!r}")
    groups: dict = {}
    for rec in report.records:
        groups.setdefault(rec[by], []).append(rec["score"])
    rows = []
    for group in sorted(groups):
        scores = groups[group]
        rows.append(
            {
                "group": group,
                "count": len(scores),
                "mean": sum(scores) / len(scores),
                "accuracy": sum(1 for s in scores if s == MAX_SCORE) / len(scores),
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
