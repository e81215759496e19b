"""Every module-level import in ``src/evlhts`` is used by its module.

No linter ships with the project, so this AST check stands in for the
unused-import rule: a refactor that moves code out of a module must take
the imports that code needed with it.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "evlhts"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in read]


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport math\nmath.pi\n") == ["line 1: os"]
    assert unused_imports("from .hts import TargetSet\nx: TargetSet\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
