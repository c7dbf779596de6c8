"""Lint gate: no module imports a name it never uses.

An AST scan of ``src/nmrbaker/``, ``tests/`` and ``demos/``: every name
an ``import`` binds must be referenced somewhere else in the module.
``from __future__`` imports are exempt, and so is ``__init__.py``: its
one import is there to load the submodules, so that ``import nmrbaker``
makes ``nmrbaker.<module>`` available, and nothing in the file reads the
names it binds.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src/nmrbaker", "tests", "demos") for p in (ROOT / d).glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_scan_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b as c\nsys.exit(c)\n") == [
        "line 1: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
