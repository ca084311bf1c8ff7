"""The package version is stated twice: ``[project].version`` in
pyproject.toml and ``maghardy.__version__``, which every CLI report embeds.
A bump in only one place would mislabel the reports."""

from pathlib import Path

import pytest

import maghardy

tomllib = pytest.importorskip("tomllib")


def test_version_matches_pyproject():
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert maghardy.__version__ == project["version"]
