import json

import pytest

from seedgrade import harness
from seedgrade.config import GradeConfig
from seedgrade.errors import (
    CacheCorrupt,
    DegenerateInput,
    GroundTruthInvalid,
    HttpError,
    SchemaError,
)
from seedgrade.harness import (
    BenchmarkItem,
    RunReport,
    aggregate,
    fetch_responses,
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
        row = dict(GOOD_ROW, ground_truth="(" * 200 + "x" + ")" * 200)
        with pytest.raises(GroundTruthInvalid, match="nesting too deep") as exc:
            load_dataset(write_jsonl(tmp_path / "d.jsonl", [row]))
        assert exc.value.line == 1

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
        original = harness.parse_ground_truth

        def counted(gt_raw, declared, cfg=GradeConfig()):
            parsed.append(gt_raw)
            return original(gt_raw, declared, cfg)

        monkeypatch.setattr(harness, "parse_ground_truth", counted)
        responses = [("q1", m, r"\boxed{2x}") for m in ("a", "b", "c")]
        report = grade_run(self._items(), responses)
        assert len(report.records) == 6
        assert parsed == ["2x"]  # q2 has no response, so it is never parsed

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


def _ok_body(text="\\boxed{2x}"):
    return json.dumps({"choices": [{"message": {"content": text}}]})


class TestFetch:
    ITEM = BenchmarkItem("q1", "Magnetism", AnswerType.EXPRESSION, "what is x+x?", "2x")
    EP = {"url": "https://api.example/v1/chat/completions", "backoff_base": 0.0}

    def test_fetch_writes_cache(self, tmp_path):
        calls = []

        def transport(url, headers, payload):
            calls.append(json.loads(payload))
            return 200, _ok_body()

        got = fetch_responses(self.EP, [self.ITEM], "m1", transport, tmp_path)
        assert got == [("q1", "m1", "\\boxed{2x}")]
        assert calls[0]["model"] == "m1"
        assert "x+x" in calls[0]["messages"][0]["content"]
        assert "\\boxed{}" in calls[0]["messages"][0]["content"]

    def test_cached_item_skips_network(self, tmp_path):
        def transport(url, headers, payload):
            return 200, _ok_body()

        fetch_responses(self.EP, [self.ITEM], "m1", transport, tmp_path)

        def no_network(url, headers, payload):
            raise AssertionError("network touched despite warm cache")

        got = fetch_responses(self.EP, [self.ITEM], "m1", no_network, tmp_path)
        assert got == [("q1", "m1", "\\boxed{2x}")]

    def test_prompt_change_busts_cache(self, tmp_path):
        def transport(url, headers, payload):
            return 200, _ok_body("first")

        fetch_responses(self.EP, [self.ITEM], "m1", transport, tmp_path)
        changed = BenchmarkItem("q1", "Magnetism", AnswerType.EXPRESSION, "different", "2x")
        hits = []

        def transport2(url, headers, payload):
            hits.append(1)
            return 200, _ok_body("second")

        got = fetch_responses(self.EP, [changed], "m1", transport2, tmp_path)
        assert hits and got[0][2] == "second"

    def test_retry_on_429_then_success(self, tmp_path):
        statuses = [429, 429, 200]

        def transport(url, headers, payload):
            s = statuses.pop(0)
            return s, _ok_body() if s == 200 else "slow down"

        got = fetch_responses(self.EP, [self.ITEM], "m1", transport, tmp_path)
        assert got[0][2] == "\\boxed{2x}"

    def test_hard_error_raises(self, tmp_path):
        def transport(url, headers, payload):
            return 401, "who are you"

        with pytest.raises(HttpError) as exc:
            fetch_responses(self.EP, [self.ITEM], "m1", transport, tmp_path)
        assert exc.value.status == 401

    def test_retries_exhausted(self, tmp_path):
        def transport(url, headers, payload):
            return 503, "down"

        with pytest.raises(HttpError):
            fetch_responses(self.EP, [self.ITEM], "m1", transport, tmp_path, max_retries=2)

    def test_corrupt_cache_raises(self, tmp_path):
        def transport(url, headers, payload):
            return 200, _ok_body()

        fetch_responses(self.EP, [self.ITEM], "m1", transport, tmp_path)
        for f in tmp_path.glob("*.json"):
            f.write_text("{broken")
        with pytest.raises(CacheCorrupt):
            fetch_responses(self.EP, [self.ITEM], "m1", transport, tmp_path)

    def test_api_key_header(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEEDGRADE_API_KEY", "sk-test")
        seen = {}

        def transport(url, headers, payload):
            seen.update(headers)
            return 200, _ok_body()

        fetch_responses(self.EP, [self.ITEM], "m1", transport, tmp_path)
        assert seen.get("Authorization") == "Bearer sk-test"
