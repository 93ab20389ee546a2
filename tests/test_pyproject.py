import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "mottbox").glob("*.py"))


def _requires_python() -> tuple:
    # the minimum of pyproject's requires-python, read without tomllib, which Python 3.10 lacks
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE).groups()
    return int(major), int(minor)


def test_feature_version_refuses_newer_grammar():
    # so the test below can fail: an assignment expression is not 3.7 grammar
    with pytest.raises(SyntaxError):
        ast.parse("(x := 1)", feature_version=(3, 7))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_package_parses_at_the_oldest_python_it_accepts(path):
    # the grammar only: a library call newer than requires-python, such as math.cbrt
    # (3.11), parses at 3.10 and would fail only when run there
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=_requires_python())
