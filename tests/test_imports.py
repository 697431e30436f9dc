"""The library stays standard-library only: every module under
src/hexident imports nothing but hexident itself, __future__ and the
standard library."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hexident"
ALLOWED = {"hexident", "__future__"} | set(sys.stdlib_module_names)


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    assert sorted(set(_imported_roots(path)) - ALLOWED) == []
