import pytest

from seedgrade import grader


@pytest.fixture(autouse=True)
def _cold_ground_truth_memo():
    """Start every test with an empty `grade()` memo, so that a test never
    sees ground truths parsed and canonicalized by an earlier one."""
    grader._prepared_ground_truth.cache_clear()
