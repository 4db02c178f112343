"""Cold-start guards: the package imports and runs without scipy or numpy,
and every module reads each name it imports."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wellpoles


def _loaded(code: str, package: str, cwd=None) -> str:
    """The sorted list, as printed, of the modules of `package` loaded after
    running `code` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(wellpoles.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = (
        f"{code}\nimport sys\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path), cwd=cwd,
        capture_output=True, text=True, check=True,
    )
    return proc.stdout.strip()


@pytest.mark.parametrize("module", ["wellpoles", "wellpoles.cli"])
def test_import_leaves_scipy_unloaded(module):
    # scipy.optimize alone costs most of a cold CLI start; it is a test-only
    # oracle and must not come back into the runtime import graph
    assert _loaded(f"import {module}", "scipy") == "[]"


@pytest.mark.parametrize("code", [
    "import wellpoles",
    "import wellpoles.cli",
    "from wellpoles import cli\n"
    "assert cli.main(['chart', '--U', '2', '--svg', 'c.svg', '--out', 'c.json']) == 0",
], ids=["wellpoles", "wellpoles.cli", "chart"])
def test_runtime_leaves_numpy_unloaded(code, tmp_path):
    # numpy is a test-only dependency: the package computes on math/cmath
    # scalars and Python lists, and importing numpy would double a cold start
    assert _loaded(code, "numpy", cwd=tmp_path) == "[]"


def test_import_leaves_the_command_line_unloaded():
    # the command table and argparse belong to the entry point; `import
    # wellpoles` is what a library caller pays for at start-up
    assert "wellpoles.cli" not in _loaded("import wellpoles", "wellpoles")
    assert _loaded("import wellpoles", "argparse") == "[]"


@pytest.mark.parametrize("code", [
    "import wellpoles",
    "import wellpoles.cli",
    "from wellpoles import cli\n"
    "assert cli.main(['chart', '--U', '2', '--svg', 'c.svg', '--out', 'c.json']) == 0",
], ids=["wellpoles", "wellpoles.cli", "chart"])
@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
def test_runtime_leaves_dataclasses_unloaded(code, module, tmp_path):
    # the records are plain slots classes: importing dataclasses, and the
    # inspect, ast and dis it loads, took most of a cold start
    assert _loaded(code, module, cwd=tmp_path) == "[]"


def _unread_imports(path: Path) -> list[str]:
    """The names bound by path's top-level imports that the module never
    reads, skipping an import whose line carries ``# noqa: F401``."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or (
                isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__"):
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            marked = any("# noqa: F401" in lines[n - 1] for n in (stmt.lineno, alias.lineno))
            if name != "*" and name not in read and not marked:
                unread.append(name)
    return unread


def test_every_import_is_read():
    # no linter is a dependency, so this stands in for one; a package's
    # __init__ imports its exports, which it need not read
    src = Path(wellpoles.__file__).resolve().parent
    tests = Path(__file__).resolve().parent
    paths = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    unread = [f"{path.parent.name}/{path.name}: {name}"
              for path in paths + sorted(tests.glob("*.py")) for name in _unread_imports(path)]
    assert unread == []
