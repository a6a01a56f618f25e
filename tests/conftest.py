import pytest

from seedgrade import grader
from seedgrade.config import GradeConfig


@pytest.fixture(autouse=True)
def _cold_grade_memos():
    """Start every test with both `grade()` memos empty, so that a test never
    sees ground truths or results graded by an earlier one."""
    grader._prepared_ground_truth.cache_clear()
    grader._graded.cache_clear()


@pytest.fixture
def broken_stage(monkeypatch):
    """A prediction whose parse raises ValueError, as a bug in a grading
    stage would; every other prediction grades as before."""
    pred = r"\boxed{z}"
    text = grader._normalize_prediction(pred, GradeConfig())
    real = grader._parse_prediction

    def parse(t, declared):
        if t == text:
            raise ValueError("a bug in a grading stage")
        return real(t, declared)

    monkeypatch.setattr(grader, "_parse_prediction", parse)
    return pred
