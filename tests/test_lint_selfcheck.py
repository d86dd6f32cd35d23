"""The tree lints itself: ``python -m repro.lint src tests benchmarks
examples --exclude tests/lint_fixtures`` must exit 0.

Also exercises the CLI surface (exit codes, JSON report, rule listing)
and — when mypy happens to be installed — the strict-subset type gate
that CI runs (``mypy --config-file mypy.ini``).
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.lint import LintEngine, json_report, lint_paths, text_report

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"


def run_cli(*args):
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
    )


class TestSelfCheck:
    def test_src_tree_is_clean(self):
        violations = lint_paths(str(SRC))
        assert violations == [], text_report(violations)

    def test_cli_exits_zero_on_src(self):
        result = run_cli("src")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 violations" in result.stdout

    def test_cli_exits_zero_on_the_whole_project(self):
        # The command CI's lint job runs: every rule, the architecture
        # guard table (RL007) included, over all code outside the fixtures.
        result = run_cli(
            "src", "tests", "benchmarks", "examples", "--exclude", "tests/lint_fixtures"
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 violations" in result.stdout

    def test_exclude_skips_the_fixtures(self):
        result = run_cli("tests/lint_fixtures", "--exclude", "tests/lint_fixtures")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_cli_exits_one_on_violations(self):
        result = run_cli("--select", "RL001", str(FIXTURES / "rl001_bad.py"))
        assert result.returncode == 1
        assert "RL001" in result.stdout

    def test_cli_json_report(self):
        result = run_cli(
            "--select", "RL001", "--format", "json", str(FIXTURES / "rl001_bad.py")
        )
        payload = json.loads(result.stdout)
        assert payload["count"] == len(payload["violations"]) > 0
        first = payload["violations"][0]
        assert {"rule", "path", "line", "message"} <= set(first)

    def test_cli_lists_all_rules(self):
        result = run_cli("--list-rules")
        assert result.returncode == 0
        for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007"):
            assert rule_id in result.stdout

    def test_ignore_flag_drops_a_rule(self):
        engine = LintEngine(ignore=["RL001"])
        assert engine.lint_paths([FIXTURES / "rl001_bad.py"]) == []

    def test_json_report_is_stable(self):
        violations = LintEngine(select=["RL001"]).lint_paths(
            [FIXTURES / "rl001_bad.py"]
        )
        assert json.loads(json_report(violations))["count"] == len(violations)


class TestTypeGate:
    @pytest.mark.skipif(
        shutil.which("mypy") is None, reason="mypy not installed (CI-only gate)"
    )
    def test_strict_subset_passes_mypy(self):
        result = subprocess.run(
            ["mypy", "--config-file", "mypy.ini"],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert result.returncode == 0, result.stdout + result.stderr
