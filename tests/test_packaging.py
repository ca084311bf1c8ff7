"""pyproject.toml against the package: the version is stated twice,
``[project].version`` and ``maghardy.__version__``, which every CLI report
embeds, and a bump in only one place would mislabel the reports.  The
installed ``maghardy`` script must run the entry that ``python -m
maghardy.cli`` runs."""

import ast
import importlib.util
from pathlib import Path

import pytest

import maghardy

tomllib = pytest.importorskip("tomllib")


def _project():
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_version_matches_pyproject():
    assert maghardy.__version__ == _project()["version"]


def test_console_script_is_the_entry_that_main_calls():
    module, _, attr = _project()["scripts"]["maghardy"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
    source = Path(importlib.util.find_spec(module).origin).read_text()
    (block,) = [
        node
        for node in ast.parse(source).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert [ast.unparse(node) for node in block.body] == [f"sys.exit({attr}())"]
