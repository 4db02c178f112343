"""Static SVG rendering of a pole chart.

Pure text assembly, deterministic byte-for-byte for a given chart: fixed
3-decimal coordinates, no timestamps, no scripts. Trajectories are
polylines colored by closure kind; anchor markers distinguish the two real
couplings (filled at the attractive phase, hollow at the repulsive one);
small triangles show the trace direction; collision points get crosses.

Every point is mapped to the screen by one function of a list of points,
with no call per point, and each polyline and each curve's set of anchor
markers is written in one %-template pass.
"""

from __future__ import annotations

import math
from itertools import chain

from .chart import PoleChart

_COLORS = {
    "closed_2pi": "#2563eb",
    "closed_4pi": "#059669",
    "open": "#6b7280",
}
_AXIS = "#9ca3af"
_TEXT = "#374151"
_WIDTH, _HEIGHT = 880, 680


def _nice_step(span: float) -> float:
    if span <= 0:
        return 1.0
    raw = span / 8.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _f(x: float) -> str:
    return f"{x:.3f}"


def _tick_label(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.4g}"


def chart_svg(chart: PoleChart) -> str:
    """Render the chart to an SVG string."""
    width, height, margin = _WIDTH, _HEIGHT, 52.0
    pts = [k for t in chart.trajectories for k in t.ks] or [complex(-1, -1), complex(1, 1)]
    res, ims = [k.real for k in pts], [k.imag for k in pts]
    re_lo, re_hi = min(res), max(res)
    im_lo, im_hi = min(ims), max(ims)
    pad_re = 0.08 * (re_hi - re_lo) or 1.0
    pad_im = 0.08 * (im_hi - im_lo) or 1.0
    re_lo, re_hi = re_lo - pad_re, re_hi + pad_re
    im_lo, im_hi = im_lo - pad_im, im_hi + pad_im

    span_re, span_im = re_hi - re_lo, im_hi - im_lo
    plot_w, plot_h, bottom = width - 2 * margin, height - 2 * margin, height - margin

    def screen(points):
        """Screen x and y of complex points, without a call per point."""
        return (
            [margin + (z.real - re_lo) / span_re * plot_w for z in points],
            [bottom - (z.imag - im_lo) / span_im * plot_h for z in points],
        )

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    parts.append(
        f"<title>pole chart: {chart.channel.value} channel, "
        f"U={chart.spec.U:g}, a={chart.spec.a:g}, m={chart.spec.m:g}</title>"
    )
    parts.append(f'<rect width="{width}" height="{height}" fill="#ffffff"/>')

    # frame and grid ticks
    parts.append(
        f'<rect x="{_f(margin)}" y="{_f(margin)}" '
        f'width="{_f(width - 2 * margin)}" height="{_f(height - 2 * margin)}" '
        f'fill="none" stroke="{_AXIS}" stroke-width="1"/>'
    )
    step = _nice_step(re_hi - re_lo)
    tick = math.ceil(re_lo / step) * step
    while tick <= re_hi:
        (x,), _ = screen([complex(tick, 0.0)])
        parts.append(
            f'<line x1="{_f(x)}" y1="{_f(height - margin)}" x2="{_f(x)}" '
            f'y2="{_f(height - margin + 5)}" stroke="{_AXIS}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_f(x)}" y="{_f(height - margin + 18)}" '
            f'font-family="sans-serif" font-size="11" fill="{_TEXT}" '
            f'text-anchor="middle">{_tick_label(tick)}</text>'
        )
        tick += step
    step = _nice_step(im_hi - im_lo)
    tick = math.ceil(im_lo / step) * step
    while tick <= im_hi:
        _, (y,) = screen([complex(0.0, tick)])
        parts.append(
            f'<line x1="{_f(margin - 5)}" y1="{_f(y)}" x2="{_f(margin)}" '
            f'y2="{_f(y)}" stroke="{_AXIS}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_f(margin - 8)}" y="{_f(y + 4)}" '
            f'font-family="sans-serif" font-size="11" fill="{_TEXT}" '
            f'text-anchor="end">{_tick_label(tick)}</text>'
        )
        tick += step

    # coordinate axes where they cross the view
    (x0,), (y0,) = screen([0j])
    if re_lo < 0 < re_hi:
        parts.append(
            f'<line x1="{_f(x0)}" y1="{_f(margin)}" x2="{_f(x0)}" '
            f'y2="{_f(height - margin)}" stroke="{_AXIS}" '
            f'stroke-width="1" stroke-dasharray="4,4"/>'
        )
    if im_lo < 0 < im_hi:
        parts.append(
            f'<line x1="{_f(margin)}" y1="{_f(y0)}" x2="{_f(width - margin)}" '
            f'y2="{_f(y0)}" stroke="{_AXIS}" '
            f'stroke-width="1" stroke-dasharray="4,4"/>'
        )
    parts.append(
        f'<text x="{_f(width - margin)}" y="{_f(height - margin + 34)}" '
        f'font-family="sans-serif" font-size="12" fill="{_TEXT}" '
        f'text-anchor="end">Re k</text>'
    )
    parts.append(
        f'<text x="{_f(margin - 38)}" y="{_f(margin - 10)}" '
        f'font-family="sans-serif" font-size="12" fill="{_TEXT}">Im k</text>'
    )

    # trajectories
    for traj in chart.trajectories:
        color = _COLORS.get(traj.closure.kind.value, "#000000")
        n = len(traj.ks)
        xs, ys = screen(traj.ks)
        coords = ("%.3f,%.3f " * n)[:-1] % tuple(chain.from_iterable(zip(xs, ys)))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.6"/>'
        )
        # direction markers at two interior samples
        for idx in (n // 3, (2 * n) // 3):
            if not (0 < idx < n - 1):
                continue
            dx = xs[idx + 1] - xs[idx - 1]
            dy = ys[idx + 1] - ys[idx - 1]
            if dx == 0 and dy == 0:
                continue
            angle = math.degrees(math.atan2(dy, dx))
            x, y = xs[idx], ys[idx]
            parts.append(
                f'<polygon points="-5,-3.5 4,0 -5,3.5" fill="{color}" '
                f'transform="translate({_f(x)},{_f(y)}) rotate({_f(angle)})"/>'
            )
        # anchors: filled at the attractive coupling, hollow at the repulsive
        real = [(n_idx, k) for n_idx, k in traj.anchors if n_idx % 2 == 0]
        if real:
            filled = (f'<circle cx="%.3f" cy="%.3f" r="4" fill="{color}" '
                      f'stroke="#ffffff" stroke-width="1"/>')
            hollow = (f'<circle cx="%.3f" cy="%.3f" r="4" fill="#ffffff" '
                      f'stroke="{color}" stroke-width="1.5"/>')
            forms = "\n".join([filled if n_idx % 4 == 0 else hollow for n_idx, _ in real])
            mx, my = screen([k for _, k in real])
            parts.append(forms % tuple(chain.from_iterable(zip(mx, my))))

    # collisions
    cx, cy = screen([ev.k for ev in chart.collisions])
    for x, y in zip(cx, cy):
        parts.append(
            f'<path d="M {_f(x - 5)} {_f(y - 5)} L {_f(x + 5)} {_f(y + 5)} '
            f'M {_f(x - 5)} {_f(y + 5)} L {_f(x + 5)} {_f(y - 5)}" '
            f'stroke="#dc2626" stroke-width="2" fill="none"/>'
        )

    # legend
    ly = margin + 8
    topology = chart.topology
    for kind in ("closed_2pi", "closed_4pi", "open"):
        count = topology.get(kind, 0)
        if count == 0:
            continue
        parts.append(
            f'<line x1="{_f(margin + 10)}" y1="{_f(ly)}" '
            f'x2="{_f(margin + 34)}" y2="{_f(ly)}" '
            f'stroke="{_COLORS[kind]}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_f(margin + 40)}" y="{_f(ly + 4)}" '
            f'font-family="sans-serif" font-size="11" fill="{_TEXT}">'
            f"{kind} ({count})</text>"
        )
        ly += 16

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
