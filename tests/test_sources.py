"""Every Python source of the project parses with the grammar of the oldest
Python that ``pyproject.toml`` promises (3.10), whatever Python runs the
tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for folder in ("src", "tests", "tools", "perfbench")
                 for path in (ROOT / folder).rglob("*.py"))


def test_the_sources_are_found():
    assert {p.parent.name for p in SOURCES} >= {"coulomb_sc", "tests", "tools", "perfbench"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_with_the_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
