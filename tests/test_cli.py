import json

import pytest

from seedgrade.cli import main

DATASET = [
    {"id": "q1", "topic": "Magnetism", "answer_type": "expression",
     "problem": "p", "ground_truth": "2x"},
    {"id": "q2", "topic": "Others", "answer_type": "tuple",
     "problem": "p", "ground_truth": "(1, 2)"},
]
RESPONSES = [
    {"id": "q1", "model": "m", "response": "\\boxed{x + x}"},
    {"id": "q2", "model": "m", "response": "\\boxed{(1, 3)}"},
]


@pytest.fixture
def corpus(tmp_path):
    d = tmp_path / "dataset.jsonl"
    r = tmp_path / "responses.jsonl"
    d.write_text("".join(json.dumps(row) + "\n" for row in DATASET))
    r.write_text("".join(json.dumps(row) + "\n" for row in RESPONSES))
    return d, r


class TestGradeCommand:
    def test_success_json(self, capsys):
        rc = main(["grade", "--pred", "\\boxed{x+y}", "--gt", "y+x", "--type", "expression"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["score"] == 100.0
        assert out["equivalent"] is True

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("zero_cutoff = 0.01\n")
        rc = main(["grade", "--pred", "\\boxed{3x}", "--gt", "2x",
                   "--type", "expression", "--config", str(cfg)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["score"] == 0.0

    def test_usage_error_exit_1(self):
        assert main(["grade", "--pred", "x"]) == 1
        assert main(["grade", "--pred", "x", "--gt", "x", "--type", "poem"]) == 1
        assert main(["not-a-command"]) == 1
        # there is no fetch subcommand: grading needs no network
        assert main(["fetch", "--dataset", "d.jsonl", "--model", "m", "--out", "r.jsonl",
                     "--endpoint", "https://api.example/v1/chat/completions"]) == 1

    def test_bad_costs_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        for text in [
            "rename_cost = 3\nkind_change_cost = 3\n",
            "trials = 0\n",
            "zero_cutoff = 0\n",
            "numeric_partial = ture\n",
            "max_score = -5\n",
            "openness_penalty = 3\n",
            "max_bracket_inserts = -1\n",
        ]:
            cfg.write_text(text)
            # an equivalent pair needs no edit distance, yet the config is refused
            rc = main(["grade", "--pred", "\\boxed{x+y}", "--gt", "y+x",
                       "--type", "expression", "--config", str(cfg)])
            assert rc == 1, text
            assert "bad config file" in capsys.readouterr().err

    def test_data_error_exit_2(self):
        assert main(["grade", "--pred", "x", "--gt", "\\frac{", "--type", "expression"]) == 2


class TestRunReportCorrelate:
    def test_full_workflow(self, corpus, tmp_path, capsys):
        d, r = corpus
        out = tmp_path / "run"
        assert main(["run", "--dataset", str(d), "--responses", str(r),
                     "--out", str(out)]) == 0
        assert (out / "items.jsonl").exists()
        capsys.readouterr()

        assert main(["report", "--run", str(out), "--by", "answer_type"]) == 0
        table = capsys.readouterr().out
        assert "expression" in table and "tuple" in table

        assert main(["correlate", "--a", str(out), "--b", str(out)]) == 0
        assert "spearman = 1.000000" in capsys.readouterr().out

    def test_missing_dataset_exit_2(self, tmp_path):
        assert main(["run", "--dataset", str(tmp_path / "nope.jsonl"),
                     "--responses", str(tmp_path / "nope2.jsonl"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_out_of_range_ground_truth_exit_2(self, tmp_path, capsys):
        d = tmp_path / "dataset.jsonl"
        d.write_text(json.dumps({"id": "q1", "topic": "Others", "answer_type": "numeric",
                                 "problem": "p", "ground_truth": r"3 \times 10^{400} \text{ m}"}) + "\n")
        r = tmp_path / "responses.jsonl"
        r.write_text(json.dumps({"id": "q1", "model": "m", "response": r"\boxed{3 \text{ m}}"}) + "\n")
        assert main(["run", "--dataset", str(d), "--responses", str(r),
                     "--out", str(tmp_path / "o")]) == 2
        assert "no finite magnitude" in capsys.readouterr().err

    def test_bad_config_exit_1(self, corpus, tmp_path):
        d, r = corpus
        cfg = tmp_path / "c.cfg"
        cfg.write_text("nonsense = 5\n")
        assert main(["run", "--dataset", str(d), "--responses", str(r),
                     "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 1

    def test_empty_dataset_writes_nothing(self, tmp_path, capsys):
        d = tmp_path / "dataset.jsonl"
        r = tmp_path / "responses.jsonl"
        d.write_text("")
        r.write_text("")
        out = tmp_path / "o"
        assert main(["run", "--dataset", str(d), "--responses", str(r), "--out", str(out)]) == 2
        assert "report is empty" in capsys.readouterr().err
        assert not out.exists()
