"""Each closed-form rule has one owning module.

The bound-state thresholds and counts live in ``rootfinder``, next to the
axis cells they read, and ``chart`` reaches them only through public
names. The anchor phases n*(pi/2) and their exact test live in
``smatrix``. These checks read the package source, so a second copy of
either rule fails here before it drifts from the first.
"""

from __future__ import annotations

import ast
from pathlib import Path

import wellpoles

SRC = Path(wellpoles.__file__).resolve().parent


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(), filename=name)


def test_chart_imports_no_private_rootfinder_name():
    private = [
        alias.name
        for node in ast.walk(_tree("chart.py"))
        if isinstance(node, ast.ImportFrom) and node.module == "rootfinder" and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def _assigns(tree: ast.Module, name: str) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if any(isinstance(t, ast.Name) and t.id == name for t in ast.walk(target)):
                return True
    return False


def test_only_smatrix_assigns_half_pi():
    owners = sorted(p.name for p in SRC.glob("*.py") if _assigns(_tree(p.name), "HALF_PI"))
    assert owners == ["smatrix.py"]
