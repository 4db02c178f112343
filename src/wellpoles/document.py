"""Output documents of every command: canonical JSON, strict parsing, CSV.

Emission is byte-deterministic: keys are sorted, separators fixed, floats
written with 17 significant digits (full round-trip precision), complex
momenta as [re, im] pairs. The stdlib serializer cannot pin float
formatting, so a recursive emitter does it here. A list whose items are
all floats, or all complex numbers, is the bulk of a chart (its sample
arrays): it is written in one %-template pass over its values, with the
same bytes the per-value formatter gives. Scalars and mixed lists go
value by value. The trajectory CSV goes through the same bulk formatter.
"""

from __future__ import annotations

import csv
import io
import json
import math
from itertools import compress, count, filterfalse
from json.encoder import encode_basestring_ascii

import numpy as np

from .chart import CriticalDepth, PoleChart, SweepResult, WorkingWindow
from .config import RunConfig
from .errors import DocumentError

SCHEMA_VERSION = "1"


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise DocumentError(f"cannot serialize non-finite value {x!r}")
    if x == int(x) and abs(x) < 1e17:
        return f"{int(x)}.0"
    return format(x, ".17g")


# one %-template per value of a row, each ending in the separator that
# follows it; an integral value below 1e17 takes the "%.1f" form of its
# template instead, which prints it as "N.0"
_FLOAT_ROW = ("%.17g,",)
_PAIR_ROW = ("[%.17g,", "%.17g],")


def _fmt_rows(values: list[float], row: tuple[str, ...]) -> str:
    """Floats, row-major with len(row) per row, in one %-template pass.

    Each value is written as `_fmt_float` writes it, and a non-finite one
    raises the same DocumentError.
    """
    if not all(map(math.isfinite, values)):
        _fmt_float(next(filterfalse(math.isfinite, values)))  # raises
    width = len(row)
    forms = list(row) * (len(values) // width)
    values = list(values)
    for i in compress(count(), map(float.is_integer, values)):
        if abs(values[i]) < 1e17:
            forms[i] = row[i % width].replace("%.17g", "%.1f")
            values[i] += 0.0  # -0.0 becomes 0.0, as int(-0.0) does
    return "".join(forms) % tuple(values)


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, complex):
        out.append("[")
        out.append(_fmt_float(obj.real))
        out.append(",")
        out.append(_fmt_float(obj.imag))
        out.append("]")
    elif isinstance(obj, (list, tuple)):
        kinds = set(map(type, obj))
        if kinds == {float}:
            out.append("[" + _fmt_rows(obj, _FLOAT_ROW)[:-1] + "]")
            return
        if kinds == {complex}:
            parts = np.array(obj).view(np.float64).tolist()  # re, im, re, ...
            out.append("[" + _fmt_rows(parts, _PAIR_ROW)[:-1] + "]")
            return
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise DocumentError(f"non-string key {key!r}")
            if i:
                out.append(",")
            out.append(encode_basestring_ascii(key))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    else:
        raise DocumentError(f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """Serialize to canonical JSON: sorted keys, fixed float format."""
    out: list[str] = []
    _emit(obj, out)
    out.append("\n")
    return "".join(out)


def _pole_dict(pole) -> dict:
    return {
        "k": complex(pole.k),
        "alpha": float(pole.coupling.alpha),
        "kind": pole.kind.value,
        "multiplicity": pole.multiplicity,
        "residual": float(pole.residual),
    }


def _window_dict(w: WorkingWindow) -> dict:
    return {"re_max": w.re_max, "im_min": w.im_min, "im_max": w.im_max}


def chart_document(chart: PoleChart, config: RunConfig | None = None) -> dict:
    """The full chart as a plain dict ready for canonical serialization."""
    trajectories = []
    for traj in chart.trajectories:
        trajectories.append({
            "closure": traj.closure.kind.value,
            "exit_forward": (
                traj.closure.forward_reason.value
                if traj.closure.forward_reason else None
            ),
            "exit_backward": (
                traj.closure.backward_reason.value
                if traj.closure.backward_reason else None
            ),
            "seed": _pole_dict(traj.seed),
            "merged_seeds": [_pole_dict(p) for p in traj.merged_seeds],
            "alphas": traj.alphas.tolist(),
            "ks": traj.ks.tolist(),
            "anchors": [{"index": n, "k": complex(k)} for n, k in traj.anchors],
            "axis_crossings": [
                {"alpha": float(a), "k": complex(k)}
                for a, k in traj.axis_crossings
            ],
        })
    completeness = None
    if chart.completeness is not None:
        completeness = {
            "window": _window_dict(chart.completeness["window"]),
            "window_count": chart.completeness["window_count"],
            "trajectory_count": chart.completeness.get("trajectory_count", 0),
            "complete": chart.completeness["complete"],
            "inventory": [
                complex(k) for k in chart.completeness.get("inventory", [])
            ],
        }
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "pole_chart",
        "potential": {"m": chart.spec.m, "a": chart.spec.a, "U": chart.spec.U},
        "channel": chart.channel.value,
        "topology": dict(chart.topology),
        "seeds": [_pole_dict(p) for p in chart.seeds],
        "trajectories": trajectories,
        "collisions": [
            {
                "alpha": float(ev.alpha),
                "k": complex(ev.k),
                "kind": ev.kind,
                "branches": [
                    {"label": lbl, "k": complex(k)} for lbl, k in ev.branches
                ],
            }
            for ev in chart.collisions
        ],
        "warnings": [
            {"code": w.code, "message": w.message} for w in chart.warnings
        ],
        "near_contacts": [
            {
                "alpha_index": c.alpha_index,
                "k_first": complex(c.k_first),
                "k_second": complex(c.k_second),
                "distance": float(c.distance),
            }
            for c in chart.near_contacts
        ],
        "completeness": completeness,
        "provenance": _provenance(config),
    }
    return doc


def _provenance(config: RunConfig | None) -> dict:
    return {
        "package": "wellpoles",
        "config": config.to_dict() if config is not None else None,
    }


def _command_document(kind: str, config: RunConfig, **fields) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        **fields,
        "provenance": _provenance(config),
    }


def axis_poles_document(poles, config: RunConfig) -> dict:
    """The axis poles of the configured well, channel and real coupling."""
    return _command_document(
        "axis_poles", config,
        potential={"m": config.m, "a": config.a, "U": config.U},
        channel=config.channel,
        gamma=config.gamma,
        poles=[
            {
                "k": complex(p.k),
                "kind": p.kind.value,
                "multiplicity": p.multiplicity,
                "residual": float(p.residual),
            }
            for p in poles
        ],
    )


def _critical_dict(cd: CriticalDepth) -> dict:
    return {
        "U": cd.U,
        "k": complex(cd.k),
        "attractive": cd.attractive,
        "transition": cd.transition,
        "pair_count": cd.pair_count,
    }


def critical_depth_document(cd: CriticalDepth, config: RunConfig) -> dict:
    """One pair collision depth."""
    return _command_document(
        "critical_depth", config,
        channel=cd.channel.value, index=cd.index, **_critical_dict(cd),
    )


def bound_threshold_document(
    U: float, config: RunConfig,
    flip: float | None = None, flip_agrees: bool | None = None,
) -> dict:
    """The n-th bound state threshold; with `flip`, the bisected depth at
    which the bound state count changes and whether the two agree."""
    checked = {} if flip is None else {"flip": flip, "flip_agrees": flip_agrees}
    return _command_document(
        "bound_threshold", config,
        channel=config.channel, n=config.n, U=U, **checked,
    )


def depth_sweep_document(result: SweepResult, config: RunConfig) -> dict:
    """Sweep entries and their attributed topology transitions."""
    return _command_document(
        "depth_sweep", config,
        channel=config.channel,
        entries=[
            {
                "U_requested": e.U_requested,
                "U_used": e.U_used,
                "nudged": e.nudged,
                "topology": dict(e.topology),
                "attractive_poles": [complex(k) for k in e.attractive_poles],
                "warnings": [
                    {"code": w.code, "message": w.message} for w in e.warnings
                ],
            }
            for e in result.entries
        ],
        transitions=[
            {
                "u_below": t.u_below,
                "u_above": t.u_above,
                "description": t.description,
                "critical": (
                    None if t.critical is None else _critical_dict(t.critical)
                ),
            }
            for t in result.transitions
        ],
    )


def verification_document(
    tolerances: dict, worst: dict, failures: list[dict], config: RunConfig,
) -> dict:
    """The scattering-identity self-check; it passes with no failures."""
    return _command_document(
        "verification", config,
        passed=not failures,
        samples=config.samples,
        seed=config.seed,
        tolerances=dict(tolerances),
        worst_residuals=worst,
        failures=failures,
    )


_TOP_KEYS = {
    "schema_version", "kind", "potential", "channel", "topology", "seeds",
    "trajectories", "collisions", "warnings", "near_contacts",
    "completeness", "provenance",
}
_TRAJ_KEYS = {
    "closure", "exit_forward", "exit_backward", "seed", "merged_seeds",
    "alphas", "ks", "anchors", "axis_crossings",
}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DocumentError(message)


def parse_chart_document(text: str) -> dict:
    """Parse and validate a chart document; unknown fields are an error."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    _require(not unknown, f"unknown fields: {', '.join(sorted(unknown))}")
    missing = _TOP_KEYS - set(doc)
    _require(not missing, f"missing fields: {', '.join(sorted(missing))}")
    _require(doc["schema_version"] == SCHEMA_VERSION,
             f"unsupported schema version {doc['schema_version']!r}")
    _require(doc["kind"] == "pole_chart", f"not a pole chart: {doc['kind']!r}")
    pot = doc["potential"]
    _require(isinstance(pot, dict) and set(pot) == {"m", "a", "U"},
             "potential must hold exactly m, a, U")
    _require(doc["channel"] in ("plus", "minus"),
             f"unknown channel {doc['channel']!r}")
    _require(isinstance(doc["trajectories"], list), "trajectories must be a list")
    for i, traj in enumerate(doc["trajectories"]):
        _require(isinstance(traj, dict), f"trajectory {i} must be an object")
        bad = set(traj) - _TRAJ_KEYS
        _require(not bad, f"trajectory {i} unknown fields: {', '.join(sorted(bad))}")
        miss = _TRAJ_KEYS - set(traj)
        _require(not miss, f"trajectory {i} missing fields: {', '.join(sorted(miss))}")
        _require(len(traj["alphas"]) == len(traj["ks"]),
                 f"trajectory {i} sample arrays disagree")
        for k in traj["ks"]:
            _require(isinstance(k, list) and len(k) == 2,
                     f"trajectory {i} momenta must be [re, im] pairs")
    return doc


def axis_poles_csv(channel: str, poles) -> str:
    """Axis poles of one channel as CSV, one row per pole."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["channel", "alpha", "re_k", "im_k", "kind", "multiplicity"]
    )
    for p in poles:
        writer.writerow([
            channel,
            _fmt_float(p.coupling.alpha),
            _fmt_float(p.k.real),
            _fmt_float(p.k.imag),
            p.kind.value,
            p.multiplicity,
        ])
    return buf.getvalue()


def poles_csv(chart: PoleChart) -> str:
    """Seed pole inventory as CSV."""
    return axis_poles_csv(chart.channel.value, chart.seeds)


def trajectories_csv(chart: PoleChart) -> str:
    """All trajectory samples as CSV, one row per (trajectory, sample)."""
    parts = ["trajectory,closure,alpha,re_k,im_k\n"]
    for i, traj in enumerate(chart.trajectories):
        rows = np.column_stack((traj.alphas, traj.ks.real, traj.ks.imag))
        row = (f"{i},{traj.closure.kind.value},%.17g,", "%.17g,", "%.17g\n")
        parts.append(_fmt_rows(rows.ravel().tolist(), row))
    return "".join(parts)
