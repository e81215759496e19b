"""Every module-level import in ``src/evlhts`` is used by its module.

No linter ships with the project, so this AST check stands in for the
unused-import rule: a refactor that moves code out of a module must take
the imports that code needed with it.  A last check keeps the thread
pool's import off the CLI's start.
"""

import ast
import os
import pathlib
import subprocess
import sys

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


def test_cli_start_imports_no_thread_pool():
    # engine.run_blocked imports concurrent.futures on its first run on
    # more than one thread; at module level it, and the logging it pulls
    # in, would cost every CLI start
    code = "import sys, evlhts.cli; print('concurrent.futures' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
