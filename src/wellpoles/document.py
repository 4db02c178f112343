"""Output documents of every command: canonical JSON, strict parsing, CSV.

Emission is byte-deterministic: keys are sorted, separators fixed, floats
written with 17 significant digits (full round-trip precision), complex
momenta as [re, im] pairs. The stdlib serializer cannot pin float
formatting, so a recursive emitter does it here. The bulk of a chart is
written in one %-template pass over its values, with the same bytes the
per-value formatter gives: a list whose items are all floats or all
complex numbers (the sample lists), and a list of records, dicts that
share one key set with each field of one exact type int, float, complex
or str (anchors, axis crossings, seeds, collision branches, warnings).
Scalars and any other list go value by value. The trajectory CSV goes
through the same bulk formatter, so one rule writes every float.
"""

from __future__ import annotations

import json
import math
from itertools import chain, compress, count, filterfalse
from json.encoder import encode_basestring_ascii

from .chart import CriticalDepth, PoleChart, SweepResult, WorkingWindow
from .config import RunConfig
from .errors import DocumentError

SCHEMA_VERSION = "2"


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise DocumentError(f"cannot serialize non-finite value {x!r}")
    if x == int(x) and abs(x) < 1e17:
        return f"{int(x)}.0"
    return format(x, ".17g")


# one %-template per value of a row, with the text around the value; a
# float goes in through "%.17g", and an integral one below 1e17 takes the
# "%.1f" form of its template instead, which prints it as "N.0"
_FLOAT = "%.17g"
_FLOAT_ROW = (_FLOAT + ",",)
_PAIR_ROW = ("[" + _FLOAT + ",", _FLOAT + "],")


def _fmt_rows(values: list, row: tuple[str, ...]) -> str:
    """Values, row-major with len(row) per row, in one %-template pass.

    Each template of a row holds one %-conversion. A value whose
    conversion is "%.17g" must be a float, and is written as `_fmt_float`
    writes it: a non-finite one raises the same DocumentError, the first
    in row-major order. Any other value goes in as its conversion writes it.
    """
    width = len(row)
    rows = len(values) // width
    forms = list(row) * rows
    values = list(values)
    is_float = [_FLOAT in form for form in row]
    if all(is_float):
        floats, where = values, None
    else:
        mask = is_float * rows
        floats = list(compress(values, mask))
        where = list(compress(count(), mask))
    if not all(map(math.isfinite, floats)):
        _fmt_float(next(filterfalse(math.isfinite, floats)))  # raises
    for i in compress(count(), map(float.is_integer, floats)):
        if where is not None:
            i = where[i]
        if abs(values[i]) < 1e17:
            forms[i] = row[i % width].replace(_FLOAT, "%.1f")
            values[i] += 0.0  # -0.0 becomes 0.0, as int(-0.0) does
    return "".join(forms) % tuple(values)


# the conversions of a record field of each type: a complex value is its
# two parts, a string goes in as its JSON text
_FIELD_FORMS = {
    int: ("%d",),
    float: (_FLOAT,),
    complex: ("[" + _FLOAT + ",", _FLOAT + "]"),
    str: ("%s",),
}


def _fmt_records(records: list) -> str | None:
    """Dicts that share one key set, each field of one exact type int,
    float, complex or str in every dict, as `_fmt_rows` rows; None for any
    other list of dicts, which is written value by value instead.

    A key holding "%" is left to the per-value writer, so the only
    %-sequences in a row are its conversions.
    """
    keys = sorted(records[0])
    if not keys or not all(type(key) is str and "%" not in key for key in keys):
        return None
    try:
        columns = [[rec[key] for rec in records] for key in keys]
    except KeyError:
        return None
    if set(map(len, records)) != {len(keys)}:
        return None
    row: list[str] = []
    flat: list[list] = []
    for key, column in zip(keys, columns):
        kinds = set(map(type, column))
        kind = kinds.pop()
        if kinds or kind not in _FIELD_FORMS:
            return None
        first, *rest = _FIELD_FORMS[kind]
        row += [("," if row else "{") + encode_basestring_ascii(key) + ":" + first, *rest]
        if kind is complex:
            flat += [[z.real for z in column], [z.imag for z in column]]
        elif kind is str:
            flat.append(list(map(encode_basestring_ascii, column)))
        else:
            flat.append(column)
    row[-1] += "},"
    return _fmt_rows(list(chain.from_iterable(zip(*flat))), tuple(row))


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
        bulk = None
        if kinds == {float}:
            bulk = _fmt_rows(obj, _FLOAT_ROW)
        elif kinds == {complex}:
            bulk = _fmt_rows([x for z in obj for x in (z.real, z.imag)], _PAIR_ROW)
        elif kinds == {dict}:
            bulk = _fmt_records(obj)
        if bulk is not None:
            out.append("[" + bulk[:-1] + "]")
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
        reason = traj.closure.reason
        trajectories.append({
            "closure": traj.closure.kind.value,
            "exit": reason.value if reason else None,
            "seed": _pole_dict(traj.seed),
            "merged_seeds": [_pole_dict(p) for p in traj.merged_seeds],
            "alphas": traj.alphas,
            "ks": traj.ks,
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
            "trajectory_count": chart.completeness["trajectory_count"],
            "complete": chart.completeness["complete"],
            "inventory": [complex(k) for k in chart.completeness["inventory"]],
        }
    return _command_document(
        "pole_chart", config,
        potential={"m": chart.spec.m, "a": chart.spec.a, "U": chart.spec.U},
        channel=chart.channel.value,
        topology=dict(chart.topology),
        seeds=[_pole_dict(p) for p in chart.seeds],
        trajectories=trajectories,
        collisions=[
            {
                "alpha": float(ev.alpha),
                "k": complex(ev.k),
                "kind": ev.kind,
                "branches": [
                    {"label": lbl, "k": complex(q / chart.spec.a)} for lbl, q in ev.branches
                ],
            }
            for ev in chart.collisions
        ],
        warnings=[
            {"code": w.code, "message": w.message} for w in chart.warnings
        ],
        completeness=completeness,
    )


# the config keys each kind of document's command reads; a key it ignores,
# or an output sink (out, svg, format), would change its bytes and nothing
# it computes
_READS = {
    "axis_poles": ("m", "a", "U", "channel", "gamma"),
    "pole_chart": ("m", "a", "U", "channel", "certify"),
    "critical_depth": ("m", "a", "channel", "gamma", "index"),
    "bound_threshold": ("m", "a", "channel", "n"),
    "depth_sweep": ("m", "a", "channel", "depths", "certify"),
    "verification": ("m", "a", "U", "samples", "seed"),
}


def _provenance(kind: str, config: RunConfig | None) -> dict:
    return {
        "package": "wellpoles",
        "config": config.to_dict(_READS[kind]) if config is not None else None,
    }


def _command_document(kind: str, config: RunConfig | None, **fields) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        **fields,
        "provenance": _provenance(kind, config),
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
    "trajectories", "collisions", "warnings", "completeness", "provenance",
}
_TRAJ_KEYS = {
    "closure", "exit", "seed", "merged_seeds", "alphas", "ks", "anchors",
    "axis_crossings",
}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DocumentError(message)


def parse_chart_document(text: str) -> dict:
    """Parse and validate a chart document.

    Raises DocumentError on text that is not JSON, NaN and Infinity
    included, on unknown or missing fields and on fields of the
    wrong type: the potential, the phases and the momentum pairs hold
    numbers (never bools), the topology maps to ints, every record list
    holds objects, and the completeness block is null or an object.
    """
    try:
        doc = json.loads(text, parse_constant=_no_constant)
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
    _require(all(map(_is_number, pot.values())), "potential values must be numbers")
    _require(doc["channel"] in ("plus", "minus"),
             f"unknown channel {doc['channel']!r}")
    topology = doc["topology"]
    _require(isinstance(topology, dict) and all(map(_is_int, topology.values())),
             "topology must be an object of ints")
    for key in ("seeds", "collisions", "warnings"):
        _require(_is_object_list(doc[key]), f"{key} must be a list of objects")
    _require(doc["completeness"] is None or isinstance(doc["completeness"], dict),
             "completeness must be null or an object")
    _require(isinstance(doc["trajectories"], list), "trajectories must be a list")
    for i, traj in enumerate(doc["trajectories"]):
        _require(isinstance(traj, dict), f"trajectory {i} must be an object")
        bad = set(traj) - _TRAJ_KEYS
        _require(not bad, f"trajectory {i} unknown fields: {', '.join(sorted(bad))}")
        miss = _TRAJ_KEYS - set(traj)
        _require(not miss, f"trajectory {i} missing fields: {', '.join(sorted(miss))}")
        for key in ("merged_seeds", "anchors", "axis_crossings"):
            _require(_is_object_list(traj[key]), f"trajectory {i} {key} must be a list of objects")
        for key in ("alphas", "ks"):
            _require(isinstance(traj[key], list), f"trajectory {i} {key} must be a list")
        _require(len(traj["alphas"]) == len(traj["ks"]),
                 f"trajectory {i} sample arrays disagree")
        _require(all(map(_is_number, traj["alphas"])),
                 f"trajectory {i} phases must be numbers")
        for k in traj["ks"]:
            _require(isinstance(k, list) and len(k) == 2 and all(map(_is_number, k)),
                     f"trajectory {i} momenta must be [re, im] pairs of numbers")
    return doc


def _no_constant(name: str):
    """json.loads' hook for NaN, Infinity and -Infinity, which it takes by
    default though JSON has no such number and no document holds one."""
    raise DocumentError(f"not valid JSON: {name} is not a JSON number")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_object_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(e, dict) for e in x)


def axis_poles_csv(channel: str, poles) -> str:
    """Axis poles of one channel as CSV, one row per pole."""
    # no field holds a comma, quote or newline, so none needs quoting
    rows = ["channel,alpha,re_k,im_k,kind,multiplicity\n"]
    for p in poles:
        fields = (p.coupling.alpha, p.k.real, p.k.imag)
        rows.append(f"{channel},{','.join(map(_fmt_float, fields))},"
                    f"{p.kind.value},{p.multiplicity}\n")
    return "".join(rows)


def trajectories_csv(chart: PoleChart) -> str:
    """All trajectory samples as CSV, one row per (trajectory, sample)."""
    parts = ["trajectory,closure,alpha,re_k,im_k\n"]
    for i, traj in enumerate(chart.trajectories):
        values = [x for al, k in zip(traj.alphas, traj.ks) for x in (al, k.real, k.imag)]
        row = (f"{i},{traj.closure.kind.value},%.17g,", "%.17g,", "%.17g\n")
        parts.append(_fmt_rows(values, row))
    return "".join(parts)
