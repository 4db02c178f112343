"""Command line interface.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 numerical failure. Errors go to stderr as one-line JSON so shell
pipelines can parse them.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from pathlib import Path

from .chart import (
    bound_threshold,
    build_chart,
    critical_depth,
    depth_sweep,
    threshold_flip,
    working_window,
)
from .config import RunConfig, load_config_file, merge_config
from .document import (
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
from .rootfinder import scan_axis
from .smatrix import (
    Channel,
    ComplexCoupling,
    PotentialSpec,
    denom_full,
    denom_minus,
    denom_plus,
    interior_momentum,
    parity_channels,
    s_full,
    s_minus,
    s_plus,
    verify_relations,
)
from .svgplot import chart_svg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wellpoles",
        description=(
            "Pole spectrum and coupling-rotation trajectories of the "
            "symmetric rectangular well"
        ),
    )
    sub = parser.add_subparsers(dest="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--m", type=float, default=None, help="particle mass")
    common.add_argument("--a", type=float, default=None, help="half width of the well")
    common.add_argument("--U", type=float, default=None, help="well depth (positive)")
    common.add_argument("--channel", choices=("plus", "minus"), default=None,
                        help="parity channel")
    common.add_argument("--gamma", choices=("+1", "-1"), default=None,
                        help="real coupling sign")
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--out", default=None, help="output file (default stdout)")
    common.add_argument("--format", choices=("json", "csv"), default=None,
                        help="output format")

    p_axis = sub.add_parser(
        "axis", parents=[common],
        help="poles on the imaginary momentum axis at a real coupling, "
             "enumerated in closed form",
    )

    p_chart = sub.add_parser(
        "chart", parents=[common],
        help="full trajectory chart under coupling phase rotation",
    )
    p_chart.add_argument("--svg", default=None, help="also render an SVG here")
    p_chart.add_argument("--no-certify", action="store_true",
                         help="skip the completeness certificate")

    p_critical = sub.add_parser(
        "critical", parents=[common],
        help="depth at which an axis pole pair coalesces at k = -i/a",
    )
    p_critical.add_argument("--index", type=int, default=None,
                            help="which collision, counting from 1 in depth")

    p_threshold = sub.add_parser(
        "threshold", parents=[common],
        help="depth at which the n-th bound state appears",
    )
    p_threshold.add_argument("--n", type=int, default=None,
                             help="bound state index, from 1")
    p_threshold.add_argument("--check", action="store_true",
                             help="verify by bisecting the bound state count")

    p_sweep = sub.add_parser(
        "sweep", parents=[common],
        help="charts over a list of depths with transition attribution",
    )
    p_sweep.add_argument("--depths", default=None,
                         help="comma separated depth list")

    p_verify = sub.add_parser(
        "verify", parents=[common],
        help="self-check of the scattering identities on random samples",
    )
    p_verify.add_argument("--samples", type=int, default=None,
                          help="number of random samples")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="random generator seed")

    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else {}
    cli_values = {}
    for key in ("m", "a", "U", "channel", "out", "format", "index", "samples",
                "seed", "n", "svg"):
        if hasattr(args, key):
            cli_values[key] = getattr(args, key)
    if getattr(args, "gamma", None) is not None:
        cli_values["gamma"] = int(args.gamma)
    if getattr(args, "no_certify", False):
        cli_values["certify"] = False
    if getattr(args, "depths", None) is not None:
        try:
            cli_values["depths"] = tuple(
                float(part) for part in args.depths.split(",") if part.strip()
            )
        except ValueError as exc:
            raise DocumentError(f"bad --depths list: {exc}") from exc
    return merge_config(file_values, cli_values)


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


def _cmd_threshold(cfg: RunConfig) -> int:
    channel = Channel.parse(cfg.channel)
    u_n = bound_threshold(channel, cfg.n, m=cfg.m, a=cfg.a)
    _write(canonical_dumps(bound_threshold_document(u_n, cfg)), cfg)
    return 0


def _cmd_threshold_checked(cfg: RunConfig) -> int:
    channel = Channel.parse(cfg.channel)
    u_n = bound_threshold(channel, cfg.n, m=cfg.m, a=cfg.a)
    # halfway to the neighbouring thresholds (0 below the first), with the
    # tolerance and the agreement test relative to u_n
    below = bound_threshold(channel, cfg.n - 1, m=cfg.m, a=cfg.a) if cfg.n > 1 else 0.0
    above = bound_threshold(channel, cfg.n + 1, m=cfg.m, a=cfg.a)
    flip = threshold_flip(channel, 0.5 * (below + u_n), 0.5 * (u_n + above),
                          m=cfg.m, a=cfg.a, tol=1e-6 * u_n)
    agree = abs(flip - u_n) < 1e-4 * u_n
    doc = bound_threshold_document(u_n, cfg, flip=flip, flip_agrees=agree)
    _write(canonical_dumps(doc), cfg)
    return 0 if agree else 1


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

    def record(check: str, k: complex, alpha: float, *residuals: float) -> None:
        # the largest residual, nan if any is (max() may skip a nan); one
        # that is not finite, or whose arithmetic overflowed, fails as null
        residual = math.nan if any(map(math.isnan, residuals)) else max(residuals)
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
        coupling = ComplexCoupling(alpha)
        try:
            rel = verify_relations(k, coupling, spec)
        except WellpolesError:
            continue
        except OverflowError:
            rel = dict.fromkeys(("transpose_inverse", "hermitian_adjoint", "conjugation"), math.nan)
        for name, residual in rel.items():
            record(name, k, alpha, residual)
        try:
            value = s_full(k, coupling, spec)
            sp = s_plus(k, coupling, spec)
            sm = s_minus(k, coupling, spec)
        except WellpolesError:
            continue
        try:
            hat_p, hat_m = parity_channels(value)
            diag = (abs(hat_p - sp) / (1.0 + abs(sp)), abs(hat_m - sm) / (1.0 + abs(sm)))
            kk = interior_momentum(k, coupling, spec).K
            df = denom_full(k, coupling, spec)
            dp = denom_plus(k, coupling, spec)
            dm = denom_minus(k, coupling, spec)
            term_scale = 1.0 + 2 * abs(k) * abs(kk) + abs(k) ** 2 + abs(kk) ** 2
            e2 = math.exp(-2.0 * abs((spec.a * kk).imag))
            fact = abs(df - 2 * dp * dm) * e2 / term_scale
        except OverflowError:
            diag, fact = (math.nan,), math.nan
        record("diagonalization", k, alpha, *diag)
        record("factorization", k, alpha, fact)
    for _ in range(cfg.samples):
        k = complex(rng.uniform(1e-3, 8.0), 0.0)
        alpha = 0.0 if rng.random() < 0.5 else math.pi
        coupling = ComplexCoupling(alpha)
        try:
            unitarity = (abs(abs(s_plus(k, coupling, spec)) - 1.0),
                         abs(abs(s_minus(k, coupling, spec)) - 1.0))
        except WellpolesError:
            continue
        except OverflowError:
            unitarity = (math.nan,)
        record("real_unitarity", k, alpha, *unitarity)
    doc = verification_document(_VERIFY_TOL, worst, failures, cfg)
    _write(canonical_dumps(doc), cfg)
    return 0 if doc["passed"] else 1


def _error_json(exc: BaseException) -> str:
    return canonical_dumps(
        {"error": {"type": type(exc).__name__, "message": str(exc)}}
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = _resolve_config(args)
    except (DocumentError, ValueError) as exc:
        sys.stderr.write(_error_json(exc))
        return 2
    handler = {
        "axis": _cmd_axis,
        "chart": _cmd_chart,
        "critical": _cmd_critical,
        "threshold": (
            _cmd_threshold_checked if getattr(args, "check", False)
            else _cmd_threshold
        ),
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
    }[args.command]
    try:
        return handler(cfg)
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
