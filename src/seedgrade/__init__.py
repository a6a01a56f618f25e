"""Partial-credit grading of LaTeX physics answers.

Pipeline: noisy model output -> answer extraction -> LaTeX normalization ->
expression tree -> canonical form -> semantic equivalence check or tree edit
distance -> score in [0, 100].
"""

from .config import GradeConfig
from .errors import GradingError
from .grader import GradeResult, grade, parse_ground_truth, seed_score
from .harness import grade_run, load_dataset, load_responses, spearman
from .nodes import AnswerType, Kind, MathNode
from .ted import tree_edit_distance

__all__ = [
    "AnswerType",
    "GradeConfig",
    "GradeResult",
    "GradingError",
    "Kind",
    "MathNode",
    "grade",
    "grade_run",
    "load_dataset",
    "load_responses",
    "parse_ground_truth",
    "seed_score",
    "spearman",
    "tree_edit_distance",
]

__version__ = "0.1.0"
