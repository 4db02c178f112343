"""The benchmark's span hooks and ops call the package as it is.

``perfbench/tracing.py`` wraps every function in its ``TRACED`` list by
name. A deleted or renamed function would only surface when a traced
benchmark run crashes, so the names are checked here. The span payloads
read some arguments and the corrector's result by position, so those
positions are checked too: a moved parameter or a reshaped result would
not crash, it would skew the per-layer metrics.
The ops in ``perfbench/workloads.py`` call a few functions with fixed
argument shapes; a removed parameter would turn every op into a failure,
so those shapes are bound against the signatures here. One op of each
workload is also run with its check and its digest bytes, which read
fields of the package's results: a reshaped field would otherwise first
show as failed checks or a crashed benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_newton_pole_result_positions():
    # result[1] and result[2] are the iteration count and converged flag
    # behind kernel.newton_pole.iters_per_call and converged_frac; a
    # reshaped return would skew them without a crash
    from wellpoles import _kernels

    for max_iter in (50, 1):
        # the well (m, a, U) = (1, 1.5, 2): q = 1.5 k, s = 2 m a^2 U = 9
        result = _kernels.newton_pole(1.5 * 1.85j, 9.0 + 0j, _kernels.CH_PLUS, max_iter)
        assert isinstance(result, tuple) and len(result) == 4
        assert type(result[1]) is int and 0 < result[1] <= max_iter
        assert type(result[2]) is bool
        assert result[2] is (max_iter == 50)


# (function, positional count, keywords) as perfbench/workloads.py calls them
_WORKLOAD_CALLS = [
    ("build_chart", 2, ("certify",)),
    ("depth_sweep", 2, ("m", "a")),
    ("threshold_flip", 3, ("m", "a", "tol")),
    ("critical_depth", 1, ("attractive", "m", "a", "index")),
    ("RunConfig", 0, ("m", "a", "U", "channel", "svg")),
    ("chart_document", 2, ()),
]


@pytest.mark.parametrize("name,n_args,keywords", _WORKLOAD_CALLS,
                         ids=[c[0] for c in _WORKLOAD_CALLS])
def test_workload_call_shapes_bind(name, n_args, keywords):
    import wellpoles

    # bind raises TypeError for a missing, surplus or unknown argument
    inspect.signature(getattr(wellpoles, name)).bind(
        *[None] * n_args, **dict.fromkeys(keywords))


@pytest.mark.skipif(not (PERFBENCH / "workloads.py").is_file(),
                    reason="benchmark source not present")
@pytest.mark.parametrize("name", ["atlas", "deep", "depth-study"])
def test_first_op_of_each_workload_passes_its_checks(name, monkeypatch):
    # an op may fail on its own report (an uncertified chart), never on a
    # check of what it presented as valid; its digest bytes read further
    # fields (a depth op's transition labels and descriptions)
    import wellpoles

    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").WORKLOADS[name]
    inp = workload.panel(1)[0]
    out = workload.op(wellpoles, inp)
    causes = workload.check(wellpoles, inp, out)
    assert not [c for c in causes if c.startswith("check:")], causes
    data = workload.to_bytes(out)
    assert isinstance(data, bytes) and data
