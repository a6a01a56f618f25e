"""Exception hierarchy for the grading pipeline.

Everything raised on purpose derives from GradingError so batch code can
catch one type and convert prediction-side failures into score-0 records.
"""

from __future__ import annotations


class GradingError(Exception):
    """Base class for all pipeline errors."""


# --- preprocessing ---------------------------------------------------------

class EmptyResponse(GradingError):
    """No candidate answer segment could be found in the response text."""


class Unbalanceable(GradingError):
    """Bracket balancing would need more insertions than the configured limit."""


# --- parsing ---------------------------------------------------------------

class UnknownCommand(GradingError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown LaTeX command {name!r} at position {position}")
        self.name = name
        self.position = position


class ParseError(GradingError):
    def __init__(self, position: int, expectation: str):
        super().__init__(f"parse error at token {position}: expected {expectation}")
        self.position = position
        self.expectation = expectation


class TypeMismatch(GradingError):
    """Parsed structure contradicts the declared answer type."""


# --- canonicalization / equivalence ---------------------------------------

class NotARelation(GradingError):
    """standardize_relation called on a non-relation node."""


class Inconclusive(GradingError):
    """Randomized evaluation could not find any singularity-free sample."""


# --- units -----------------------------------------------------------------

class UnknownUnit(GradingError):
    def __init__(self, token: str):
        super().__init__(f"unknown unit token {token!r}")
        self.token = token


class NoNumber(GradingError):
    """Quantity string contains no numeric literal."""


class DimensionMismatch(GradingError):
    """Compared quantities live in different SI dimensions."""


# --- grading / harness -----------------------------------------------------

class GroundTruthInvalid(GradingError):
    """A dataset ground truth failed to parse; this is a dataset bug."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class SchemaError(GradingError):
    def __init__(self, line: int, field: str, message: str = ""):
        detail = f": {message}" if message else ""
        super().__init__(f"line {line}: bad field {field!r}{detail}")
        self.line = line
        self.field = field


class DegenerateInput(GradingError):
    """Correlation input is constant or too short."""
