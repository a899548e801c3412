"""The oldest supported Python (pyproject's requires-python) must parse every
source file, which the 3.10 CI job checks only when it can download 3.10."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for folder in ("src", "tests", "perfbench") for path in (ROOT / folder).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_sources_parse_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
