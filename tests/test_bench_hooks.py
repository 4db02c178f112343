"""The benchmark's span hooks name functions that exist in the package.

``perfbench/tracing.py`` wraps every function in its ``TRACED`` list by
name. A deleted or renamed function would only surface when a traced
benchmark run crashes, so the names are checked here. The span payloads
read some arguments by position, so those positions are checked too: a
moved parameter would not crash, it would skew the per-layer metrics.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not TRACING.is_file(), reason="benchmark source not present")
def test_every_traced_function_resolves():
    traced = _load_tracing().TRACED
    assert traced
    missing = [
        f"{modname}.{fn_name}"
        for _, modname, fn_name in traced
        if not callable(getattr(importlib.import_module(modname), fn_name, None))
    ]
    assert missing == []


def _positional(fn) -> list[str]:
    return [
        name for name, p in inspect.signature(fn).parameters.items()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]


def test_payload_argument_positions():
    from wellpoles import _kernels, trajectory

    # args[1] > 0 marks a forward trace
    assert _positional(trajectory.trace)[:2] == ["seed", "direction"]
    # len(args[0]) is the grid size
    assert _positional(_kernels.axis_phi)[0] == "kappas"
    assert _positional(_kernels.grid_denom_dk)[0] == "ks"
