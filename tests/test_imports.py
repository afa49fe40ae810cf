"""Every module-level import in the package is read by the module that makes it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gaugesim"
# __init__.py imports names to re-export them
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source):
    """{name: line} for each name a module-level import binds that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in bound.items() if name not in read}


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom x import a, b as c\nc()\n")
    assert unused_imports(source) == {"math": 2, "os": 3, "a": 4}


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == {}
