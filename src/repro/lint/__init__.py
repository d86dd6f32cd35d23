"""repro.lint — static invariants + runtime determinism sanitizer.

Two complementary enforcement layers for the guarantees the rest of the
codebase silently relies on:

* the **AST linter** (``python -m repro.lint [paths]``) with the
  codebase-specific rules RL001–RL006 and the architecture guard table
  RL007 — see :mod:`repro.lint.rules`/:mod:`repro.lint.project_rules`/
  :mod:`repro.lint.guards` and the "Correctness tooling" section of the
  README;
* the **determinism sanitizer** (:mod:`repro.lint.sanitizer`) — a
  runtime tripwire harness that proves RL001 dynamically by
  monkeypatching the ambient clock/RNG entry points and running a sim
  :class:`~repro.sim.engine.Scenario` under them.

The linter is zero-dependency (stdlib ``ast`` only) so CI can run it
before installing anything.
"""

from repro.lint.engine import (
    LintEngine,
    ModuleInfo,
    ProjectRule,
    Rule,
    Violation,
    all_rules,
    register,
)
from repro.lint.reporters import json_report, text_report

__all__ = [
    "LintEngine",
    "ModuleInfo",
    "ProjectRule",
    "Rule",
    "Violation",
    "all_rules",
    "register",
    "text_report",
    "json_report",
    "lint_paths",
]


def lint_paths(*paths: str) -> list[Violation]:
    """Convenience: lint ``paths`` (default rule set, default scopes)."""
    return LintEngine().lint_paths(paths or ("src",))
