"""RL007, the architecture guard table: one trip and one clean fixture
tree per guard under ``tests/lint_fixtures/guards/<guard>/``.

Each tree is a miniature project (``src/repro/...``, ``tests/``,
``README.md``, ``.github/workflows/ci.yml``) linted with itself as the
project root.  The trip tree holds what the guard forbids; the clean tree
holds the legitimate neighbours, including the substring look-alikes
(``_client_views``, ``hexdigest()``, a docstring that says "never import
msgpack") that a text search would have flagged.
"""

import pathlib

import pytest

from repro.lint import LintEngine
from repro.lint.guards import GUARDS

GUARD_TREES = pathlib.Path(__file__).parent / "lint_fixtures" / "guards"
GUARD_NAMES = sorted({guard.guard for guard in GUARDS})
KINDS = {"import", "name", "word", "call", "except", "path", "one-site"}


def lint_tree(tree):
    return LintEngine(select=["RL007"], root=tree).lint_paths([tree])


def test_every_guard_has_both_fixture_trees():
    assert sorted(path.name for path in GUARD_TREES.iterdir()) == GUARD_NAMES
    for name in GUARD_NAMES:
        assert (GUARD_TREES / name / "trip").is_dir()
        assert (GUARD_TREES / name / "clean").is_dir()


def test_table_entries_are_well_formed():
    assert len(GUARD_NAMES) == 11
    assert len({guard.why for guard in GUARDS}) == len(GUARDS)
    for guard in GUARDS:
        assert guard.kind in KINDS, guard
        assert guard.patterns and guard.pr > 0 and guard.why
        assert (guard.kind == "path") == (not guard.scope), guard


@pytest.mark.parametrize("name", GUARD_NAMES)
def test_trip_tree_trips_every_entry_of_its_guard(name):
    violations = lint_tree(GUARD_TREES / name / "trip")
    assert {v.rule for v in violations} == {"RL007"}
    assert all(v.message.startswith(f"{name} (PR ") for v in violations), violations
    tripped = {guard.why for guard in GUARDS if any(guard.why in v.message for v in violations)}
    assert tripped == {guard.why for guard in GUARDS if guard.guard == name}


@pytest.mark.parametrize("name", GUARD_NAMES)
def test_clean_tree_passes(name):
    assert lint_tree(GUARD_TREES / name / "clean") == []


def test_one_site_guard_reports_a_missing_home_site(tmp_path):
    home = tmp_path / "src" / "repro" / "replication" / "network.py"
    home.parent.mkdir(parents=True)
    home.write_text("class DeliveryCore:\n    pass\n")
    (violation,) = lint_tree(tmp_path)
    assert violation.path == str(home)
    assert "has no site here" in violation.message


def test_one_site_guard_reports_a_second_site_in_its_home(tmp_path):
    home = tmp_path / "src" / "repro" / "replication" / "network.py"
    home.parent.mkdir(parents=True)
    home.write_text(
        "def a(self, m):\n    return self._authenticator.verify(m)\n"
        "def b(self, m):\n    return self._authenticator.verify(m)\n"
    )
    (violation,) = lint_tree(tmp_path)
    assert violation.line == 4


def test_pragma_suppresses_a_guard_line(tmp_path):
    space = tmp_path / "src" / "repro" / "tspace" / "space.py"
    space.parent.mkdir(parents=True)
    pragma = "# repro-lint: " + "disable=RL007"  # split: not a pragma of this file
    space.write_text(f"order = sorted(ids)  {pragma}\n")
    assert lint_tree(tmp_path) == []


def test_files_outside_the_root_are_not_guarded(tmp_path):
    stray = tmp_path / "matching.py"
    stray.write_text("def _field_matches(a, b):\n    return all(a)\n")
    engine = LintEngine(select=["RL007"], root=GUARD_TREES / "matching-kernel" / "clean")
    assert engine.lint_paths([stray]) == []
