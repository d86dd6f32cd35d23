"""Every repository path the CI gates name must exist.

A gate that names a deleted file does not shrink, it dies: ``mypy``
stops with "can't read file" before checking anything, and every job
that ``needs:`` the failed one is skipped.  This pins the paths in
``mypy.ini``'s ``files`` and every ``src/``, ``tests/``, ``examples/``
and ``benchmarks/`` path ``.github/workflows/ci.yml`` names.
"""

import configparser
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: A path token in a workflow line; a pytest node id's ``::test`` suffix
#: and surrounding quotes or punctuation are not part of it.
CI_PATH = re.compile(r"(?<![\w./-])(?:src|tests|examples|benchmarks)/[\w./-]*")


def mypy_files():
    config = configparser.ConfigParser()
    config.read(ROOT / "mypy.ini")
    return [entry.strip() for entry in config["mypy"]["files"].split(",") if entry.strip()]


def ci_paths():
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    return sorted({match.rstrip("./") for match in CI_PATH.findall(text)})


def test_the_sources_name_paths_at_all():
    assert len(mypy_files()) >= 5
    assert "examples/diagnosis_tour.py" in ci_paths()


@pytest.mark.parametrize("path", mypy_files())
def test_every_mypy_file_exists(path):
    assert (ROOT / path).exists(), f"mypy.ini names {path}, which does not exist"


@pytest.mark.parametrize("path", ci_paths())
def test_every_ci_path_exists(path):
    assert (ROOT / path).exists(), f"ci.yml names {path}, which does not exist"
