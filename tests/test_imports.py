"""Every module-level import in the package is read by the module that makes it,
and every module-level function and class is read by the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gaugesim"
# __init__.py imports names to re-export them
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")

# module-level names no package code reads, each kept for a reason
UNREAD_BY_DESIGN = {
    "collapse.plan_joint_probability": "the exact plan probability the acceptance tests check",
    "catalog.super_ghz_step2_gauges": "the step-2 fixtures the acceptance tests name",
    "solver.reconstruct": "gauge invariance of reconstruction, an acceptance check",
    "model.product_system": "the tests' independent product builder",
}


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


def _reads(node):
    """The names `node` reads, as a `Name` or as an attribute."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def unread_definitions(sources):
    """Sorted "module.name" of each module-level def or class in `sources`, {module: text},
    that no code reads outside its own definition and `__init__` does not re-export."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    exported = {alias.asname or alias.name for node in trees.pop("__init__", ast.Module([])).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    defined = [(module, node) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    unread = []
    for module, node in defined:
        elsewhere = (other for tree in trees.values() for other in tree.body if other is not node)
        if node.name not in exported and not any(node.name in _reads(o) for o in elsewhere):
            unread.append(f"{module}.{node.name}")
    return sorted(unread)


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom x import a, b as c\nc()\n")
    assert unused_imports(source) == {"math": 2, "os": 3, "a": 4}


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == {}


def test_the_check_sees_an_unread_definition():
    sources = {
        "__init__": "from .a import shown\n",
        "a": ("def shown(): pass\n"
              "def used(): pass\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Unread:\n    '''used, but only in this docstring'''\n"),
        "b": "import a\n\ndef caller():\n    return a.used()\n\ncaller()\n",
    }
    assert unread_definitions(sources) == ["a.Unread", "a.recursive"]


def test_no_unread_definition():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unread_definitions(sources) == sorted(UNREAD_BY_DESIGN)
