"""Every name a shiftlab or test module imports is used in that module,
every shiftlab import sits at module level, and every public name has a
caller."""

import ast
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "shiftlab")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
BENCH = os.path.join(ROOT, "bench")
TESTS = os.path.join(ROOT, "tests")
# The package modules and the test modules, for the unused-import check.
IMPORTING = ([(SRC, m) for m in MODULES]
             + [(TESTS, f) for f in sorted(os.listdir(TESTS)) if f.endswith(".py")])


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


def public_definitions(source: str) -> list[str]:
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def names_used(source: str) -> set[str]:
    """Names read in code, as variables or attributes; a definition, a
    comment or a docstring does not count."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}


def uncalled(defined: list[str], used: set[str], text: str) -> list[str]:
    """The defined names neither used in code nor named as a word in text."""
    return [name for name in defined
            if name not in used and not re.search(r"\b%s\b" % name, text)]


def _read(module: str, directory: str = SRC) -> str:
    with open(os.path.join(directory, module), encoding="utf-8") as f:
        return f.read()


@pytest.mark.parametrize("directory, module", IMPORTING,
                         ids=[m if d == SRC else "tests/" + m for d, m in IMPORTING])
def test_no_unused_imports(directory, module):
    assert unused_imports(_read(module, directory)) == []


@pytest.mark.parametrize("module", MODULES)
def test_imports_at_module_level(module):
    assert nested_imports(_read(module)) == []


def test_checker_flags_an_unused_name():
    src = "from __future__ import annotations\nimport os, sys\nfrom x import a, b as c\nos.sep\nc()\n"
    assert unused_imports(src) == ["a (line 3)", "sys (line 2)"]


def test_checker_flags_a_nested_import():
    src = "import os\ndef f():\n    import sys\n    if os:\n        from x import a\n"
    assert nested_imports(src) == ["a (line 5)", "sys (line 3)"]


def test_every_public_name_has_a_caller():
    """A public function or class is used by the package, or named by the
    benchmark, the acceptance battery or the README."""
    used = set().union(*(names_used(_read(m)) for m in MODULES))
    text = "\n".join([_read(os.path.join("tests", "test_acceptance.py"), ROOT),
                      _read("README.md", ROOT)]
                     + [_read(f, BENCH) for f in sorted(os.listdir(BENCH))
                        if f.endswith(".py")])
    defined = [name for m in MODULES for name in public_definitions(_read(m))]
    assert uncalled(defined, used, text) == []


def test_caller_check_flags_a_name_only_defined():
    src = ('def used():\n    pass\ndef lonely():\n    "used, lonely"\n'
           'class Named:\n    pass\nused()\n')
    assert public_definitions(src) == ["used", "lonely", "Named"]
    assert uncalled(public_definitions(src), names_used(src), "see Named") == ["lonely"]
