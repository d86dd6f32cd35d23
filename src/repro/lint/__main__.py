"""``python -m repro.lint [paths]`` — lint the tree against RL001–RL007.

The whole project, as CI and tier-1 run it::

    python -m repro.lint src tests benchmarks examples --exclude tests/lint_fixtures

Exit status 0 when clean, 1 when any violation is found, 2 on usage
errors.  ``--format json`` emits a machine-readable report (used by the
CI lint job's artifact), ``--list-rules`` documents the rule set.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.lint.engine import LintEngine, all_rules
from repro.lint.reporters import json_report, text_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based invariant linter for the repro codebase",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--exclude",
        metavar="PATH",
        action="append",
        default=[],
        help="skip files under PATH (repeatable)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        for rule in sorted(all_rules(), key=lambda rule: rule.id):
            scope = ", ".join(rule.scope) if rule.scope else "(everywhere)"
            print(f"{rule.id}  {rule.name}: {rule.summary}")
            print(f"       scope: {scope}")
        return 0
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    engine = LintEngine(select=select, ignore=ignore)
    violations = engine.lint_paths(args.paths, args.exclude)
    if args.format == "json":
        print(json_report(violations))
    else:
        print(text_report(violations))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
