"""Minimal self-contained SVG line charts.

No external renderer is assumed: output is plain SVG with inline styling,
formatted deterministically so reruns are byte-identical.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_MARGIN_LEFT = 62.0
_MARGIN_RIGHT = 18.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 44.0


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def line_chart_svg(series, title: str, x_label: str, y_label: str,
                   width: int = 720, height: int = 420) -> str:
    """Render `series` (label, xs, ys) triples as a single SVG document."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(0.0, min(ys_all)), max(ys_all)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x):
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title)}</text>',
    ]

    for tx in _ticks(x_lo, x_hi):
        x = px(tx)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_TOP:.2f}" x2="{x:.2f}" '
            f'y2="{_MARGIN_TOP + plot_h:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MARGIN_TOP + plot_h + 16:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        parts.append(
            f'<line x1="{_MARGIN_LEFT:.2f}" y1="{y:.2f}" '
            f'x2="{_MARGIN_LEFT + plot_w:.2f}" y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 6:.2f}" y="{y + 3:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_fmt(ty)}</text>'
        )

    parts.append(
        f'<rect x="{_MARGIN_LEFT:.2f}" y="{_MARGIN_TOP:.2f}" width="{plot_w:.2f}" '
        f'height="{plot_h:.2f}" fill="none" stroke="#333333" stroke-width="1"/>'
    )

    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        ax = _MARGIN_LEFT + (np.asarray(xs, dtype=float) - x_lo) / (x_hi - x_lo) * plot_w
        ay = _MARGIN_TOP + plot_h - (np.asarray(ys, dtype=float) - y_lo) / (y_hi - y_lo) * plot_h
        points = " ".join(map("{:.2f},{:.2f}".format, ax.tolist(), ay.tolist()))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        if label:
            ly = _MARGIN_TOP + 14 + 14 * idx
            lx = _MARGIN_LEFT + plot_w - 150
            parts.append(
                f'<line x1="{lx:.2f}" y1="{ly - 3:.2f}" x2="{lx + 18:.2f}" y2="{ly - 3:.2f}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
            parts.append(
                f'<text x="{lx + 23:.2f}" y="{ly:.2f}" font-family="sans-serif" '
                f'font-size="10">{escape(label)}</text>'
            )

    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.2f}" y="{height - 10:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="14" y="{_MARGIN_TOP + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 14 {_MARGIN_TOP + plot_h / 2:.2f})">{escape(y_label)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
