"""Run configuration shared by every grading stage: equivalence sampling,
edit costs, score mapping, and preprocessing limits."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


@dataclass(frozen=True)
class GradeConfig:
    # numeric answers
    rtol: float = 1e-2
    numeric_partial: bool = False
    # score mapping
    max_score: float = 100.0
    zero_cutoff: float = 1.0
    # edit costs
    insert_cost: int = 1
    delete_cost: int = 1
    rename_cost: int = 1
    kind_change_cost: int = 2
    # randomized equivalence
    trials: int = 8
    eval_rtol: float = 1e-9
    seed: int = 2718
    # intervals
    openness_penalty: float = 0.25
    # preprocessing
    max_bracket_inserts: int = 3

    def __post_init__(self):
        if min(self.insert_cost, self.delete_cost, self.rename_cost, self.kind_change_cost) < 0:
            raise ValueError("edit costs must be nonnegative")
        if not (
            self.rename_cost
            <= self.kind_change_cost
            <= self.insert_cost + self.delete_cost
        ):
            raise ValueError("need rename <= kind_change <= insert + delete")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.zero_cutoff > 0:
            raise ValueError("zero_cutoff must be positive")
        if not (math.isfinite(self.max_score) and self.max_score > 0):
            raise ValueError("max_score must be finite and positive")
        if not 0 <= self.openness_penalty <= 1:
            raise ValueError("openness_penalty must lie in [0, 1]")
        if self.max_bracket_inserts < 0:
            raise ValueError("max_bracket_inserts must be nonnegative")
        if not (math.isfinite(self.rtol) and self.rtol > 0):
            raise ValueError("rtol must be finite and positive")
        if not (math.isfinite(self.eval_rtol) and self.eval_rtol >= 0):
            raise ValueError("eval_rtol must be finite and nonnegative")

    def relabel(self, a, b):
        """Edit cost of turning node a into node b."""
        if a.kind is not b.kind:
            return self.kind_change_cost
        return 0 if a.label() == b.label() else self.rename_cost

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, value in self.to_dict().items():
                fh.write(f"{name} = {value}\n")

    @classmethod
    def load(cls, path) -> "GradeConfig":
        """Read the documented `key = value` config format."""
        cfg = cls()
        overrides = {}
        types = {f.name: f.type for f in fields(cls)}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                key = key.strip()
                value = value.strip()
                if key not in types:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
                current = getattr(cfg, key)
                if isinstance(current, bool):
                    if value.lower() not in _BOOLS:
                        raise ValueError(f"{path}:{lineno}: {key} is not a boolean: {value!r}")
                    overrides[key] = _BOOLS[value.lower()]
                elif isinstance(current, int):
                    overrides[key] = int(value)
                else:
                    overrides[key] = float(value)
        return replace(cfg, **overrides)
