"""Command line interface.

One table, `_COMMANDS`, names each subcommand's document kind, handler,
output flags and help. A subcommand takes --config, --out, a flag for each
config key its document records (`document._READS`) and its output flags,
and no other: a flag it would not read is a usage error.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 numerical failure. Errors, usage errors included, go to stderr as
one-line JSON so shell pipelines can parse them.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from pathlib import Path

from .chart import build_chart, critical_depth, depth_sweep, threshold_flip
from .config import _FIELD_NAMES, RunConfig, load_config_file, merge_config
from .document import (
    _READS,
    axis_poles_csv,
    axis_poles_document,
    bound_threshold_document,
    canonical_dumps,
    chart_document,
    critical_depth_document,
    depth_sweep_document,
    trajectories_csv,
    verification_document,
)
from .errors import DocumentError, WellpolesError
from .rootfinder import bound_threshold, scan_axis
from .smatrix import (
    Channel,
    ComplexCoupling,
    PotentialSpec,
    unitarity_residual,
    verify_relations,
)
from .svgplot import chart_svg


def _write(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)


def _spec(cfg: RunConfig) -> PotentialSpec:
    return PotentialSpec(m=cfg.m, a=cfg.a, U=cfg.U)


def _cmd_axis(cfg: RunConfig) -> int:
    poles = scan_axis(_spec(cfg), ComplexCoupling(cfg.alpha), Channel.parse(cfg.channel))
    if cfg.format == "csv":
        _write(axis_poles_csv(cfg.channel, poles), cfg)
        return 0
    _write(canonical_dumps(axis_poles_document(poles, cfg)), cfg)
    return 0


def _cmd_chart(cfg: RunConfig) -> int:
    chart = build_chart(_spec(cfg), Channel.parse(cfg.channel), certify=cfg.certify)
    if cfg.svg:
        Path(cfg.svg).write_text(chart_svg(chart))
    if cfg.format == "csv":
        _write(trajectories_csv(chart), cfg)
    else:
        _write(canonical_dumps(chart_document(chart, cfg)), cfg)
    return 0


def _cmd_critical(cfg: RunConfig) -> int:
    cd = critical_depth(
        Channel.parse(cfg.channel),
        attractive=(cfg.gamma == 1),
        m=cfg.m, a=cfg.a, index=cfg.index,
    )
    _write(canonical_dumps(critical_depth_document(cd, cfg)), cfg)
    return 0


def _cmd_threshold(cfg: RunConfig, check: bool | None = None) -> int:
    channel = Channel.parse(cfg.channel)
    u_n = bound_threshold(channel, cfg.n, m=cfg.m, a=cfg.a)
    flip = agree = None
    if check:
        # halfway to the neighbouring thresholds (0 below the first), with
        # the tolerance and the agreement test relative to u_n
        below = bound_threshold(channel, cfg.n - 1, m=cfg.m, a=cfg.a) if cfg.n > 1 else 0.0
        above = bound_threshold(channel, cfg.n + 1, m=cfg.m, a=cfg.a)
        flip = threshold_flip(channel, 0.5 * (below + u_n), 0.5 * (u_n + above),
                              m=cfg.m, a=cfg.a, tol=1e-6 * u_n)
        agree = abs(flip - u_n) < 1e-4 * u_n
    doc = bound_threshold_document(u_n, cfg, flip=flip, flip_agrees=agree)
    _write(canonical_dumps(doc), cfg)
    return 1 if agree is False else 0


def _cmd_sweep(cfg: RunConfig) -> int:
    if not cfg.depths:
        raise DocumentError("sweep needs --depths or a config 'depths' list")
    result = depth_sweep(
        Channel.parse(cfg.channel), list(cfg.depths), m=cfg.m, a=cfg.a,
        certify=cfg.certify,
    )
    _write(canonical_dumps(depth_sweep_document(result, cfg)), cfg)
    return 0


_VERIFY_TOL = {
    "transpose_inverse": 1e-10,
    "hermitian_adjoint": 1e-10,
    "conjugation": 1e-10,
    "diagonalization": 1e-10,
    "factorization": 1e-12,
    "real_unitarity": 1e-12,
}


def _cmd_verify(cfg: RunConfig) -> int:
    spec = _spec(cfg)
    rng = random.Random(cfg.seed)
    worst = {name: 0.0 for name in _VERIFY_TOL}
    failures: list[dict] = []

    def record(check: str, k: complex, alpha: float, residual: float) -> None:
        # a residual that is not finite (nan where it overflowed) fails as null
        if math.isfinite(residual):
            worst[check] = max(worst[check], residual)
            if residual < _VERIFY_TOL[check]:
                return
        failures.append({
            "check": check,
            "residual": residual if math.isfinite(residual) else None,
            "k": k,
            "alpha": alpha,
        })

    for _ in range(cfg.samples):
        k = complex(rng.uniform(-6, 6), rng.uniform(-3, 3))
        alpha = rng.uniform(0, 2 * math.pi)
        try:
            rel = verify_relations(k, ComplexCoupling(alpha), spec)
        except WellpolesError:
            continue
        for name, residual in rel.items():
            record(name, k, alpha, residual)
    for _ in range(cfg.samples):
        k = complex(rng.uniform(1e-3, 8.0), 0.0)
        alpha = 0.0 if rng.random() < 0.5 else math.pi
        try:
            residual = unitarity_residual(k, ComplexCoupling(alpha), spec)
        except WellpolesError:
            continue
        record("real_unitarity", k, alpha, residual)
    doc = verification_document(_VERIFY_TOL, worst, failures, cfg)
    _write(canonical_dumps(doc), cfg)
    return 0 if doc["passed"] else 1


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a DocumentError, which `main` writes as the
    one-line JSON of every other error, instead of printing usage text."""

    def error(self, message: str):
        raise DocumentError(message)


def _depth_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad depth list: {exc}") from exc


# the flag of each key a command can take: its argparse keywords, for
# --key, or --no-key for a switch that stores False. Every flag defaults to
# None, so a key left off the command line keeps its value from the config
# file or RunConfig; RunConfig alone checks the values of channel, gamma and
# format
_FLAGS = {
    "m": {"type": float, "help": "particle mass"},
    "a": {"type": float, "help": "half width of the well"},
    "U": {"type": float, "help": "well depth (positive)"},
    "channel": {"help": "parity channel: plus or minus"},
    "gamma": {"type": int, "help": "real coupling sign: +1 or -1"},
    "certify": {"action": "store_false", "help": "skip the completeness certificate"},
    "index": {"type": int, "help": "which collision, counting from 1 in depth"},
    "n": {"type": int, "help": "bound state index, from 1"},
    "depths": {"type": _depth_list, "help": "comma separated depth list"},
    "samples": {"type": int, "help": "number of random samples"},
    "seed": {"type": int, "help": "random generator seed"},
    "config": {"help": "JSON config file"},
    "out": {"help": "output file (default stdout)"},
    "format": {"help": "output format: json or csv"},
    "svg": {"help": "also render an SVG here"},
    "check": {"action": "store_true", "help": "verify by bisecting the bound state count"},
}


# each command: the kind of document it writes, whose `_READS` are its
# config flags; its handler; its output flags besides --out; its help
_COMMANDS = {
    "axis": ("axis_poles", _cmd_axis, ("format",),
             "poles on the imaginary momentum axis at a real coupling, "
             "enumerated in closed form"),
    "chart": ("pole_chart", _cmd_chart, ("format", "svg"),
              "full trajectory chart under coupling phase rotation"),
    "critical": ("critical_depth", _cmd_critical, (),
                 "depth at which an axis pole pair coalesces at k = -i/a"),
    "threshold": ("bound_threshold", _cmd_threshold, ("check",),
                  "depth at which the n-th bound state appears"),
    "sweep": ("depth_sweep", _cmd_sweep, (),
              "charts over a list of depths with transition attribution"),
    "verify": ("verification", _cmd_verify, (),
               "self-check of the scattering identities on random samples"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wellpoles",
        description=(
            "Pole spectrum and coupling-rotation trajectories of the "
            "symmetric rectangular well"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (kind, _, sinks, text) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for key in (*_READS[kind], "config", "out", *sinks):
            spec = _FLAGS[key]
            prefix = "--no-" if spec.get("action") == "store_false" else "--"
            command.add_argument(prefix + key, dest=key, default=None, **spec)
    return parser


def _error_json(exc: BaseException) -> str:
    return canonical_dumps(
        {"error": {"type": type(exc).__name__, "message": str(exc)}}
    )


def main(argv: list[str] | None = None) -> int:
    try:
        flags = vars(_build_parser().parse_args(argv))
        handler = _COMMANDS[flags.pop("command")][1]
        path = flags.pop("config")
        # a flag that is no config key, such as --check, goes to the handler
        options = {key: flags.pop(key) for key in set(flags) - _FIELD_NAMES}
        cfg = merge_config(load_config_file(path) if path else {}, flags)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 2
    except (DocumentError, ValueError) as exc:
        sys.stderr.write(_error_json(exc))
        return 2
    try:
        return handler(cfg, **options)
    except (DocumentError, ValueError) as exc:
        sys.stderr.write(_error_json(exc))
        return 2
    except WellpolesError as exc:
        sys.stderr.write(_error_json(exc))
        return 3
    except OSError as exc:
        sys.stderr.write(_error_json(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
