"""Every name a shiftlab module imports is used in that module, and every
import sits at module level."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "shiftlab")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted("%s (line %d)" % (name, line)
                  for name, line in imported.items() if name not in used)


def nested_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    return sorted("%s (line %d)" % (alias.name, node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and node not in tree.body
                  for alias in node.names)


def _read(module: str) -> str:
    with open(os.path.join(SRC, module), encoding="utf-8") as f:
        return f.read()


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports(_read(module)) == []


@pytest.mark.parametrize("module", MODULES)
def test_imports_at_module_level(module):
    assert nested_imports(_read(module)) == []


def test_checker_flags_an_unused_name():
    src = "from __future__ import annotations\nimport os, sys\nfrom x import a, b as c\nos.sep\nc()\n"
    assert unused_imports(src) == ["a (line 3)", "sys (line 2)"]


def test_checker_flags_a_nested_import():
    src = "import os\ndef f():\n    import sys\n    if os:\n        from x import a\n"
    assert nested_imports(src) == ["a (line 5)", "sys (line 3)"]
