"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error (bad dataset rows,
unreadable ground truths, degenerate correlation input).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import GradeConfig
from .errors import GradingError
from .grader import grade
from .harness import (
    RunReport,
    aggregate,
    grade_run,
    load_dataset,
    load_responses,
    render_report,
    spearman,
)
from .nodes import AnswerType


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="seedgrade", description="Partial-credit LaTeX answer grading")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("grade", help="grade one prediction against one ground truth")
    p.add_argument("--pred", required=True, help="prediction text (raw model output)")
    p.add_argument("--gt", required=True, help="ground-truth LaTeX")
    p.add_argument(
        "--type",
        required=True,
        choices=[t.value for t in AnswerType],
        help="declared answer type",
    )
    p.add_argument("--config", help="key = value config file")

    p = sub.add_parser("run", help="grade a response file against a dataset")
    p.add_argument("--dataset", required=True, help="benchmark items, one JSON object per line")
    p.add_argument("--responses", required=True, help="model responses, one JSON object per line")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--out", required=True, help="output directory for the run report")

    p = sub.add_parser("report", help="aggregate a finished run")
    p.add_argument("--run", required=True, help="run directory written by `run`")
    p.add_argument("--by", required=True, choices=["topic", "answer_type", "model"])

    p = sub.add_parser("correlate", help="Spearman rank correlation of two runs")
    p.add_argument("--a", required=True, help="first run directory")
    p.add_argument("--b", required=True, help="second run directory")

    return parser


def _load_config(path) -> GradeConfig:
    if not path:
        return GradeConfig()
    try:
        return GradeConfig.load(path)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"bad config file: {exc}") from exc


def _run_scores(rundir) -> dict:
    report = RunReport.read(rundir)
    return {(r["id"], r["model"]): r["score"] for r in report.records}


def _dispatch(args) -> int:
    if args.command == "grade":
        cfg = _load_config(args.config)
        result = grade(args.pred, args.gt, AnswerType(args.type), cfg)
        print(json.dumps(result.to_dict(), sort_keys=True, indent=2))
        return 0

    if args.command == "run":
        cfg = _load_config(args.config)
        items = load_dataset(args.dataset, cfg)
        responses = load_responses(args.responses)
        report = grade_run(items, responses, cfg)
        report.write(args.out)
        print(render_report(report), end="")
        print(f"\nwrote {Path(args.out) / 'items.jsonl'}")
        return 0

    if args.command == "report":
        report = RunReport.read(args.run)
        print(f"{'group':<24} {'n':>4} {'mean':>8} {'acc':>7}")
        for row in aggregate(report, args.by):
            print(
                f"{row['group']:<24} {row['count']:>4} {row['mean']:>8.2f} {row['accuracy']:>7.4f}"
            )
        return 0

    if args.command == "correlate":
        sa = _run_scores(args.a)
        sb = _run_scores(args.b)
        shared = sorted(set(sa) & set(sb))
        rho = spearman([sa[k] for k in shared], [sb[k] for k in shared])
        print(f"n = {len(shared)}")
        print(f"spearman = {rho:.6f}")
        return 0

    raise AssertionError(args.command)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except GradingError as exc:
        print(f"data error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"data error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
