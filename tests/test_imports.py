"""Cold-start guard: the package imports without scipy."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import wellpoles


@pytest.mark.parametrize("module", ["wellpoles", "wellpoles.cli"])
def test_import_leaves_scipy_unloaded(module):
    # scipy.optimize alone costs most of a cold CLI start; it is a test-only
    # oracle and must not come back into the runtime import graph
    src = os.path.dirname(os.path.dirname(wellpoles.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"
