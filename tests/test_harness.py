import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from importlib import resources

import pytest

import seedgrade
from seedgrade import grader, harness
from seedgrade.config import GradeConfig
from seedgrade.errors import DegenerateInput, GroundTruthInvalid, SchemaError
from seedgrade.harness import (
    BenchmarkItem,
    RunReport,
    aggregate,
    grade_run,
    load_dataset,
    load_responses,
    render_report,
    spearman,
)
from seedgrade.nodes import AnswerType
from test_grader import CRASHERS

GOOD_ROW = {
    "id": "q1",
    "topic": "Magnetism",
    "answer_type": "expression",
    "problem": "p",
    "ground_truth": "2x",
}


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


class TestLoadDataset:
    def test_round_trip(self, tmp_path):
        items = load_dataset(write_jsonl(tmp_path / "d.jsonl", [GOOD_ROW]))
        assert items == [
            BenchmarkItem("q1", "Magnetism", AnswerType.EXPRESSION, "p", "2x")
        ]

    def test_bad_topic(self, tmp_path, capsys):
        row = dict(GOOD_ROW, topic="Astrology")
        with pytest.raises(SchemaError) as exc:
            load_dataset(write_jsonl(tmp_path / "d.jsonl", [row]))
        assert exc.value.line == 1
        assert "Astrology" in capsys.readouterr().err

    def test_duplicate_id(self, tmp_path):
        with pytest.raises(SchemaError) as exc:
            load_dataset(write_jsonl(tmp_path / "d.jsonl", [GOOD_ROW, GOOD_ROW]))
        assert exc.value.line == 2

    def test_bad_ground_truth_reports_line(self, tmp_path):
        rows = [GOOD_ROW, dict(GOOD_ROW, id="q2", ground_truth="\\frac{")]
        with pytest.raises(GroundTruthInvalid) as exc:
            load_dataset(write_jsonl(tmp_path / "d.jsonl", rows))
        assert exc.value.line == 2

    def test_deep_ground_truth_reports_line(self, tmp_path):
        row = dict(GOOD_ROW, ground_truth="(" * 1000 + "x" + ")" * 1000)
        with pytest.raises(GroundTruthInvalid, match="nesting too deep") as exc:
            load_dataset(write_jsonl(tmp_path / "d.jsonl", [row]))
        assert exc.value.line == 1

    def test_oversized_literal_ground_truth_reports_line(self, tmp_path):
        rows = [GOOD_ROW, dict(GOOD_ROW, id="q2", ground_truth="9" * 5000)]
        with pytest.raises(GroundTruthInvalid, match="number of at most") as exc:
            load_dataset(write_jsonl(tmp_path / "d.jsonl", rows))
        assert exc.value.line == 2

    def test_out_of_range_quantity_ground_truth_reports_line(self, tmp_path):
        row = dict(GOOD_ROW, answer_type="numeric", ground_truth=r"3 \times 10^{400} \text{ m}")
        with pytest.raises(GroundTruthInvalid, match="no finite magnitude") as exc:
            load_dataset(write_jsonl(tmp_path / "d.jsonl", [row]))
        assert exc.value.line == 1

    def test_delta_before_subscripted_symbol(self, tmp_path):
        row = dict(GOOD_ROW, ground_truth=r"\Delta T_c")
        items = load_dataset(write_jsonl(tmp_path / "d.jsonl", [row]))
        report = grade_run(items, [("q1", "m", r"\boxed{\Delta T_{c}}")])
        assert [r["score"] for r in report.records] == [100.0]

    def test_every_bad_row_reported(self, tmp_path, capsys):
        rows = [
            dict(GOOD_ROW, topic="Nope"),
            dict(GOOD_ROW, id="q2", answer_type="essay"),
        ]
        with pytest.raises(SchemaError):
            load_dataset(write_jsonl(tmp_path / "d.jsonl", rows))
        err = capsys.readouterr().err
        assert "line 1" in err and "line 2" in err

    def test_bad_json(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(SchemaError):
            load_dataset(path)


class TestLoadResponses:
    def test_duplicate_last_wins(self, tmp_path, capsys):
        rows = [
            {"id": "q1", "model": "m", "response": "old"},
            {"id": "q1", "model": "m", "response": "new"},
        ]
        got = load_responses(write_jsonl(tmp_path / "r.jsonl", rows))
        assert got == [("q1", "m", "new")]
        assert "duplicate" in capsys.readouterr().err


class TestGradeRun:
    def _items(self):
        return [
            BenchmarkItem("q1", "Magnetism", AnswerType.EXPRESSION, "p", "2x"),
            BenchmarkItem("q2", "Others", AnswerType.EXPRESSION, "p", "3y"),
        ]

    def test_missing_response_scores_zero(self):
        report = grade_run(self._items(), [("q1", "m", r"\boxed{2x}")])
        by_id = {r["id"]: r for r in report.records}
        assert by_id["q1"]["score"] == 100.0
        assert by_id["q2"]["score"] == 0.0
        assert "missing response" in by_id["q2"]["diagnostics"]

    def test_unknown_response_id_recorded(self):
        report = grade_run(self._items(), [("q9", "m", "x")])
        extra = [r for r in report.records if r["id"] == "q9"]
        assert extra and extra[0]["score"] == 0.0

    def test_score_zero_records_serialized(self):
        report = grade_run(self._items(), [("q1", "m", r"\boxed{2x}"), ("q9", "m", "x")])
        by_id = {r["id"]: r for r in report.records}
        zero = {"score": 0.0, "equivalent": False, "distance": None,
                "relative_distance": None, "edit_script": []}
        assert by_id["q2"] == {"id": "q2", "model": "m", "topic": "Others",
                               "answer_type": "expression", **zero,
                               "diagnostics": ["missing response"]}
        assert by_id["q9"] == {"id": "q9", "model": "m", "topic": "Others",
                               "answer_type": "expression", **zero,
                               "diagnostics": ["response id not in dataset"]}

    def test_identical_responses_graded_once(self, monkeypatch):
        responses = [
            ("q1", "m1", r"\boxed{2x}"), ("q1", "m2", r"\boxed{3x}"), ("q1", "m3", r"\boxed{2x}"),
            ("q2", "m1", r"\boxed{3y + 1}"), ("q2", "m2", r"\boxed{3y + 1}"), ("q2", "m3", "y"),
        ]
        # one run per model: no item has a duplicate response within a run
        alone = []
        for model in ("m1", "m2", "m3"):
            alone += grade_run(self._items(), [r for r in responses if r[1] == model]).records
        calls = []

        def counting(text, gt, cfg):
            calls.append((text, gt))
            return real(text, gt, cfg)

        real = harness.grade_prediction
        monkeypatch.setattr(harness, "grade_prediction", counting)
        report = grade_run(self._items(), responses)
        assert report.records == sorted(alone, key=lambda r: (r["model"], r["id"]))
        assert len(calls) == 4  # 2 distinct texts for q1, 2 for q2

    def test_inconclusive_equation_does_not_abort_run(self):
        items = [
            BenchmarkItem("q1", "Magnetism", AnswerType.EQUATION, "p", "y = 1"),
            BenchmarkItem("q2", "Others", AnswerType.EXPRESSION, "p", "3y"),
        ]
        responses = [("q1", "m", r"\boxed{y = \frac{1}{\sin(0)}}"), ("q2", "m", r"\boxed{3y}")]
        report = grade_run(items, responses)
        by_id = {r["id"]: r for r in report.records}
        assert sorted(by_id) == ["q1", "q2"]
        assert 0.0 <= by_id["q1"]["score"] <= 100.0
        assert any(d.startswith("equivalence-inconclusive") for d in by_id["q1"]["diagnostics"])
        assert by_id["q2"]["score"] == 100.0

    @pytest.mark.parametrize("pred,error", CRASHERS)
    def test_internal_error_does_not_abort_run(self, pred, error):
        responses = [("q1", "m", pred), ("q2", "m", r"\boxed{3y}")]
        report = grade_run(self._items(), responses)
        by_id = {r["id"]: r for r in report.records}
        assert sorted(by_id) == ["q1", "q2"]
        assert by_id["q1"]["score"] == 0.0
        assert by_id["q1"]["diagnostics"] == [f"internal-error:{error}"]
        assert by_id["q2"]["score"] == 100.0

    def test_ground_truth_parsed_once_per_answered_item(self, monkeypatch):
        parsed = []
        original = grader.parse_ground_truth

        def counted(gt_raw, declared, cfg=GradeConfig()):
            parsed.append(gt_raw)
            return original(gt_raw, declared, cfg)

        monkeypatch.setattr(grader, "parse_ground_truth", counted)
        responses = [("q1", m, r"\boxed{2x}") for m in ("a", "b", "c")]
        report = grade_run(self._items(), responses)
        assert len(report.records) == 6
        assert parsed == ["2x"]  # q2 has no response, so it is never parsed

    def test_loaded_ground_truths_never_parsed_again(self, monkeypatch):
        cfg = GradeConfig()
        data = resources.files("seedgrade.data")
        with resources.as_file(data.joinpath("minicorpus.jsonl")) as d, \
             resources.as_file(data.joinpath("minicorpus_responses.jsonl")) as r:
            items = load_dataset(d, cfg)
            responses = load_responses(r)
        parsed = []
        original = grader.parse_ground_truth
        monkeypatch.setattr(grader, "parse_ground_truth",
                            lambda *args: parsed.append(args[0]) or original(*args))
        report = serial_run(monkeypatch, items, responses)
        assert len(report.records) == len(items) * 2
        by_id = {item.id: item for item in items}
        for item_id, _, text in responses:
            grader.grade(text, by_id[item_id].ground_truth, by_id[item_id].answer_type, cfg)
        assert parsed == []

    def test_deterministic(self):
        responses = [("q2", "m", r"\boxed{3y}"), ("q1", "m", r"\boxed{x}")]
        a = grade_run(self._items(), responses)
        b = grade_run(self._items(), list(reversed(responses)))
        assert a.records == b.records

    def test_write_and_read(self, tmp_path):
        report = grade_run(self._items(), [("q1", "m", r"\boxed{2x}")])
        report.write(tmp_path / "run")
        again = RunReport.read(tmp_path / "run")
        assert again.records == report.records
        assert render_report(again) == render_report(report)


@contextlib.contextmanager
def time_limit(seconds):
    def expired(*_):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):  # not a child of this process any more
            os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def forked(monkeypatch):
    """Make grade_run split its items at once across 3 processes; yields the
    pids of the children it forks."""
    monkeypatch.setattr(harness, "FORK_AFTER_S", -1.0)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield pids
    assert_reaped(pids)


def serial_run(monkeypatch, items, responses):
    with monkeypatch.context() as m:
        m.setattr(harness, "FORK_AFTER_S", float("inf"))
        return grade_run(items, responses)


def generated_run(n=240):
    """n items, mostly expressions with every tenth an equation, answered by
    three models: m1 skips every fifth item, m2 misses every third, m3 repeats
    m1's text on odd items; two responses name no item."""
    items, responses = [], []
    for k in range(n):
        a, p = k % 7 + 1, k % 4 + 2
        if k % 10 == 0:
            kind, gt = AnswerType.EQUATION, rf"y = {a}x^{{{p}}} + {k}"
            right, near = rf"{a}x^{{{p}}} + {k} = y", rf"y = {a + 1}x^{{{p}}} + {k}"
        else:
            kind, gt = AnswerType.EXPRESSION, rf"\frac{{{a}x}}{{y + {k}}} + z^{{{p}}}"
            right = rf"z^{{{p}}} + \frac{{{a}x}}{{{k} + y}}"
            near = rf"\frac{{{a + 1}x}}{{y + {k}}} + z^{{{p}}}"
        item = BenchmarkItem(f"q{k:03d}", harness.TOPICS[k % 6], kind, "p", gt)
        items.append(item)
        if k % 5:
            responses.append((item.id, "m1", rf"so \boxed{{{right}}}"))
        responses.append((item.id, "m2", rf"\boxed{{{near if k % 3 == 0 else right}}}"))
        if k % 2:
            responses.append((item.id, "m3", rf"so \boxed{{{right}}}"))
    responses += [("ghost1", "m1", "x"), ("ghost2", "m3", "y")]
    return items, responses


class TestParallelGradeRun:
    def test_minicorpus_byte_identical(self, forked, monkeypatch, tmp_path):
        data = resources.files("seedgrade.data")
        with resources.as_file(data.joinpath("minicorpus.jsonl")) as d, \
             resources.as_file(data.joinpath("minicorpus_responses.jsonl")) as r:
            items = load_dataset(d)
            responses = load_responses(r)
        serial_run(monkeypatch, items, responses).write(tmp_path / "serial")
        grade_run(items, responses).write(tmp_path / "forked")
        assert len(forked) == 2
        for name in ("items.jsonl", "report.txt", "config.json"):
            assert (tmp_path / "forked" / name).read_bytes() == \
                (tmp_path / "serial" / name).read_bytes()

    def test_generated_run_identical(self, forked, monkeypatch):
        items, responses = generated_run()
        serial = serial_run(monkeypatch, items, responses)
        report = grade_run(items, responses)
        assert len(forked) == 2
        assert report.records == serial.records
        diagnostics = {d for r in serial.records for d in r["diagnostics"]}
        assert {"missing response", "response id not in dataset"} <= diagnostics
        assert {r["score"] for r in serial.records} > {0.0, 100.0}

    def test_tasks_of_several_items(self, forked, monkeypatch):
        monkeypatch.setattr(harness, "MAX_TASKS", 7)
        items, responses = generated_run(60)
        serial = serial_run(monkeypatch, items, responses)
        assert grade_run(items, responses).records == serial.records
        assert len(forked) == 2

    def test_bad_ground_truth_raises_as_serial(self, forked, monkeypatch):
        items = [
            BenchmarkItem("q1", "Others", AnswerType.EXPRESSION, "p", "x + y + z"),
            BenchmarkItem("q2", "Others", AnswerType.EXPRESSION, "p", "\\frac{"),
            BenchmarkItem("q3", "Others", AnswerType.EXPRESSION, "p", "x"),
        ]
        responses = [(it.id, "m", r"\boxed{x}") for it in items]
        with pytest.raises(GroundTruthInvalid) as serial:
            serial_run(monkeypatch, items, responses)
        with pytest.raises(GroundTruthInvalid) as exc:
            grade_run(items, responses)
        assert forked == []
        assert str(exc.value) == str(serial.value)
        assert exc.value.line == serial.value.line

    def test_first_failing_item_is_raised(self, forked):
        items = [BenchmarkItem(f"q{k}", "Others", AnswerType.EXPRESSION, "p", "\\frac{" + "x" * k)
                 for k in range(6)]
        responses = [(it.id, "m", r"\boxed{x}") for it in items]
        with pytest.raises(GroundTruthInvalid, match="frac\\{'"):
            grade_run(items, responses)
        assert forked == []

    def test_invalid_ground_truth_grades_no_item(self, forked, monkeypatch):
        items, responses = generated_run(30)
        items[17] = BenchmarkItem(items[17].id, "Others", AnswerType.EXPRESSION, "p", "\\frac{")
        graded, real = [], harness.grade_prediction
        monkeypatch.setattr(harness, "grade_prediction",
                            lambda *args: graded.append(args) or real(*args))
        with pytest.raises(GroundTruthInvalid, match="frac\\{'"):
            grade_run(items, responses)
        assert graded == [] and forked == []

    def test_worker_that_raises_prints_its_traceback(self, forked, monkeypatch, capfd):
        parent = os.getpid()
        real = harness.grade_prediction

        def failing(text, gt, cfg):
            if os.getpid() != parent:
                raise ZeroDivisionError("a bug in grading")
            return real(text, gt, cfg)

        monkeypatch.setattr(harness, "grade_prediction", failing)
        items, responses = generated_run(30)
        with time_limit(20), pytest.raises(RuntimeError, match="ended without a result"):
            grade_run(items, responses)
        assert len(forked) == 2
        err = capfd.readouterr().err
        assert "Traceback" in err and "ZeroDivisionError: a bug in grading" in err

    def test_dead_worker_raises(self, forked, monkeypatch):
        parent = os.getpid()
        calls = []
        real = harness.grade_prediction

        def dying(text, gt, cfg):
            calls.append(text)
            if os.getpid() != parent and len(calls) == 2:
                os._exit(1)
            return real(text, gt, cfg)

        monkeypatch.setattr(harness, "grade_prediction", dying)
        items, responses = generated_run(30)
        with time_limit(20), pytest.raises(RuntimeError, match="ended without a result"):
            grade_run(items, responses)
        assert len(forked) == 2

    def test_interrupt_kills_workers(self, forked, monkeypatch):
        parent = os.getpid()

        def stuck(text, gt, cfg):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(harness, "grade_prediction", stuck)
        items, responses = generated_run(30)
        with time_limit(20), pytest.raises(KeyboardInterrupt):
            grade_run(items, responses)
        assert len(forked) == 2

    def test_idle_workers_take_the_tasks_of_a_busy_one(self, forked, monkeypatch):
        parent = os.getpid()
        calls = []
        real = harness.grade_prediction

        def slow_here(text, gt, cfg):
            if os.getpid() == parent:
                calls.append(text)
                time.sleep(0.5)
            return real(text, gt, cfg)

        items, responses = generated_run(30)
        serial = serial_run(monkeypatch, items, responses)
        monkeypatch.setattr(harness, "grade_prediction", slow_here)
        assert grade_run(items, responses).records == serial.records
        assert len(forked) == 2
        assert 1 <= len(calls) <= 3  # one item, while the children grade the other 29

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                        reason="needs CPU affinity calls and two usable CPUs")
    def test_workers_pinned_apart_and_affinity_restored(self, forked, monkeypatch, tmp_path):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        log = tmp_path / "cpus"
        real = harness.grade_prediction

        def logged(text, gt, cfg):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {sorted(os.sched_getaffinity(0))}\n")
            time.sleep(0.01)  # slow enough that both processes take tasks
            return real(text, gt, cfg)

        monkeypatch.setattr(harness, "grade_prediction", logged)
        before = os.sched_getaffinity(0)
        items, responses = generated_run(30)
        grade_run(items, responses)
        assert len(forked) == 1
        assert os.sched_getaffinity(0) == before
        cpus = {pid: json.loads(c) for pid, c in (ln.split(" ", 1) for ln in log.read_text().splitlines())}
        assert len(cpus) == 2
        assert all(len(c) == 1 for c in cpus.values())
        assert len({c[0] for c in cpus.values()}) == 2

    def test_refused_pinning_still_grades(self, forked, monkeypatch):
        def refuse(pid, cpus):
            raise OSError("not allowed")

        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        items, responses = generated_run(30)
        serial = serial_run(monkeypatch, items, responses)
        assert grade_run(items, responses).records == serial.records
        assert len(forked) == 2

    def test_serial_with_one_cpu_or_another_thread(self, forked, monkeypatch):
        items, responses = generated_run(20)
        serial = serial_run(monkeypatch, items, responses)
        with monkeypatch.context() as m:
            m.setattr(harness, "_usable_cpus", lambda: 1)
            assert grade_run(items, responses).records == serial.records
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert grade_run(items, responses).records == serial.records
        finally:
            stop.set()
            thread.join(5)
        assert not thread.is_alive()
        assert forked == []


class TestSplitRule:
    """Which process grades what: the cheapest answered item first, in this
    process, and workers forked only once the tasks left are projected to
    take this process alone more than FORK_AFTER_S."""

    @staticmethod
    def _items(sizes):
        return [BenchmarkItem(f"q{k}", "Others", AnswerType.EXPRESSION, "p",
                              " + ".join(f"x_{j}" for j in range(n)))
                for k, n in enumerate(sizes)]

    def test_parent_grades_the_cheapest_answered_item_then_forks(self, forked, monkeypatch,
                                                                 tmp_path):
        items = self._items([5, 3, 8, 1, 6, 4])  # q3, the shortest, has no answer
        responses = [(it.id, m, rf"\boxed{{{it.ground_truth} + 1}}")
                     for it in items if it.id != "q3" for m in ("m1", "m2")]
        serial = serial_run(monkeypatch, items, responses)
        monkeypatch.setattr(harness, "FORK_AFTER_S", 1e-9)
        log = tmp_path / "calls"
        real, fixture_fork = harness.grade_prediction, os.fork

        def logged(text, gt, cfg):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {text}\n")
            return real(text, gt, cfg)

        def logged_fork():
            with open(log, "a") as fh:
                fh.write("fork\n")
            return fixture_fork()

        monkeypatch.setattr(harness, "grade_prediction", logged)
        monkeypatch.setattr(os, "fork", logged_fork)
        assert grade_run(items, responses).records == serial.records
        assert len(forked) == 2
        lines = log.read_text().splitlines()
        before = lines[:lines.index("fork")]
        assert before == [f"{os.getpid()} {responses[2][2]}"]  # q1, the one distinct text

    @pytest.mark.parametrize("step,forks", [(0.02, False), (0.03, True)])
    def test_fork_only_past_the_projected_bound(self, forked, monkeypatch, step, forks):
        # three answered items of one cost and three unanswered ones (cost 0),
        # each graded text taking `step` seconds: the projection is 2 x step
        # before the second task and step before the third
        items = self._items([2, 2, 2, 1, 1, 1])
        responses = [(it.id, "m", r"\boxed{x_0 + x_2}") for it in items[:3]]
        serial = serial_run(monkeypatch, items, responses)
        monkeypatch.setattr(harness, "FORK_AFTER_S", 0.05)
        now = [0.0]
        real = harness.grade_prediction

        def timed(text, gt, cfg):
            now[0] += step
            return real(text, gt, cfg)

        monkeypatch.setattr(harness.time, "perf_counter", lambda: now[0])
        monkeypatch.setattr(harness, "grade_prediction", timed)
        assert grade_run(items, responses).records == serial.records
        assert len(forked) == (2 if forks else 0)

    def test_unanswered_item_is_never_the_first_task(self):
        items = self._items([4, 1, 3, 2])
        answers = [("m", r"\boxed{x}"), ("m", None), ("m", r"\boxed{x}"), ("m", r"\boxed{x}")]
        tasks, costs = harness._tasks([(it, None, [a]) for it, a in zip(items, answers)])
        assert tasks == [[3], [0], [2], [1]]
        assert costs[-1] == 0 and 0 < costs[0] < costs[2] < costs[1]
        unanswered = [(it, None, [("m", None)]) for it in items]
        assert harness._tasks(unanswered) == ([[0], [1], [2], [3]], [0, 0, 0, 0])

    def test_run_with_no_answered_item_never_forks(self, forked, monkeypatch):
        items = self._items([3, 1, 2])
        responses = [("ghost", "m", r"\boxed{x}")]
        serial = serial_run(monkeypatch, items, responses)
        report = grade_run(items, responses)
        assert report.records == serial.records
        assert [r["diagnostics"] for r in report.records] == \
            [["response id not in dataset"]] + [["missing response"]] * 3
        assert forked == []

    def test_empty_run(self, forked):
        assert harness._tasks([]) == ([], [])
        assert grade_run([], []).records == []
        report = grade_run([], [("q9", "m", "x")])
        assert report.records == [{"id": "q9", "model": "m", "topic": "Others",
                                   "answer_type": "expression", "score": 0.0,
                                   "equivalent": False, "distance": None,
                                   "relative_distance": None, "edit_script": [],
                                   "diagnostics": ["response id not in dataset"]}]
        assert report.config == GradeConfig().to_dict()
        assert forked == []


class TestAggregate:
    def test_groups_sorted(self):
        report = RunReport(
            records=[
                {"id": "1", "model": "b", "topic": "T", "answer_type": "expression", "score": 100.0},
                {"id": "1", "model": "a", "topic": "T", "answer_type": "expression", "score": 50.0},
            ],
            config=GradeConfig().to_dict(),
        )
        rows = aggregate(report, "model")
        assert [r["group"] for r in rows] == ["a", "b"]
        assert rows[1]["accuracy"] == 1.0

    def test_bad_key(self):
        with pytest.raises(ValueError):
            aggregate(RunReport(records=[{"score": 1.0}]), "vibes")


class TestSpearman:
    def test_perfect(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_reversed(self):
        assert spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)

    def test_ties_average_rank(self):
        assert spearman([1, 1, 2], [1, 1, 2]) == pytest.approx(1.0)

    def test_constant_raises(self):
        with pytest.raises(DegenerateInput):
            spearman([1, 1, 1], [1, 2, 3])

    def test_short_raises(self):
        with pytest.raises(DegenerateInput):
            spearman([1], [1])


def test_import_loads_no_network_modules():
    # the HTTP client stack: a `request` module, `http.*` and `email.*`
    code = ("import seedgrade, sys; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('http', 'email') or m.endswith('.request')))")
    src = os.path.dirname(os.path.dirname(seedgrade.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
