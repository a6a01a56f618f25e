import pytest

from seedgrade import grader


@pytest.fixture(autouse=True)
def _cold_grade_memos():
    """Start every test with both `grade()` memos empty, so that a test never
    sees ground truths or results graded by an earlier one."""
    grader._prepared_ground_truth.cache_clear()
    grader._graded.cache_clear()
