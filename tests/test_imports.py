"""Cold-start guards: the package imports and runs without scipy or numpy."""

from __future__ import annotations

import os
import subprocess
import sys

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
