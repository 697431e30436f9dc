"""The library stays standard-library only: every module under
src/hexident imports nothing but hexident itself, __future__ and the
standard library.  No module rebinds a builtin's name, and nothing the
library defines goes unused by the library and its benchmark."""

import ast
import builtins
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hexident"
BENCH = SRC.parent.parent / "perfbench"
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


def test_every_source_parses_as_python_3_10():
    # the package supports Python 3.10 (pyproject.toml); the grammar check
    # runs on any newer interpreter
    files = [*SRC.rglob("*.py"), *BENCH.rglob("*.py"), *Path(__file__).parent.rglob("*.py")]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


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


def test_no_bare_call_of_a_shadowed_builtin():
    # inside a module that rebinds a builtin's name, a call by the bare
    # name reaches the module's own definition: enumerate(...) written in
    # lemma_lab runs the window enumerator, not the builtin
    for module, name in sorted(SHADOWS_ALLOWED):
        path = SRC / module
        calls = [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name]
        assert calls == [], (module, name)


# public calls that only the tests make: each is part of the documented
# toolkit, kept for users and for the tests that check the library by it
ONLY_TESTS_CALL = {
    "PeriodicCode.identifier",  # N[v] intersected with the code
    "PeriodicCode.is_identifying",  # verify() as a bool
    "thin_code",  # a code minus some vertices
    "WindowConfig.as_mapping",  # a window assignment as a dict
    "save_template",  # writes the window format parse_template reads
    "brute_force_minimum",  # the unpruned minimum the search is checked against
    "plant_isolated_pair",  # a code that must fail verification on one pair
}


def _definitions(path):
    """Every module-level function and class of a module, and every method
    but the dunders that Python calls implicitly, as Class.method."""
    for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.endswith("__"):
                    yield node.name + "." + sub.name


def test_every_library_definition_is_referenced():
    # a name read anywhere in the library or the benchmark counts as a
    # reference; a definition that no such line reads is dead code that
    # still has to be trusted
    used = set()
    for path in sorted(SRC.rglob("*.py")) + sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {name for path in sorted(SRC.rglob("*.py")) for name in _definitions(path)
              if name.rsplit(".", 1)[-1] not in used}
    assert sorted(unused - ONLY_TESTS_CALL) == []
    # an allowlisted name that gains a library caller leaves the list
    assert sorted(ONLY_TESTS_CALL - unused) == []
