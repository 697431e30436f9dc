"""The library stays standard-library only: every module under
src/hexident imports nothing but hexident itself, __future__ and the
standard library.  No module rebinds a builtin's name."""

import ast
import builtins
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hexident"
ALLOWED = {"hexident", "__future__"} | set(sys.stdlib_module_names)

BUILTINS = {name for name in dir(builtins) if not name.startswith("_")}
# perfbench calls the window enumerator by this name
SHADOWS_ALLOWED = {("lemma_lab.py", "enumerate")}


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


def _bound_names(path):
    """Every name a def, class, assignment, loop or with target, import
    alias, except clause or argument binds in the module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.arg):
            yield node.arg, node.lineno
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.split(".")[0], 0
        elif isinstance(node, ast.ExceptHandler) and node.name:
            yield node.name, node.lineno


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_module_shadows_no_builtin(path):
    # a shadowed builtin silently changes every later call by that name in
    # the module
    found = [(name, line) for name, line in _bound_names(path)
             if name in BUILTINS and (path.name, name) not in SHADOWS_ALLOWED]
    assert found == []
