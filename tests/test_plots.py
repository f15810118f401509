"""Tests for the SVG line charts: polyline coordinates and byte stability."""

import hashlib
import re

import numpy as np
import pytest

from bayeskit.plots import line_chart_svg

from oracles import lcg_uniforms

_MARGINS = (62.0, 18.0, 34.0, 44.0)  # left, right, top, bottom


def per_point_polylines(series, width=720, height=420):
    """Each series' `points` attribute, one formatted point at a time."""
    left, right, top, bottom = _MARGINS
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(0.0, min(ys_all)), max(ys_all)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    plot_w, plot_h = width - left - right, height - top - bottom
    out = []
    for _, xs, ys in series:
        coords = []
        for x, y in zip(xs, ys):
            px = left + (x - x_lo) / (x_hi - x_lo) * plot_w
            py = top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h
            coords.append(f"{px:.2f},{py:.2f}")
        out.append(" ".join(coords))
    return out


def _posterior_like(seed, n):
    u = lcg_uniforms(seed, n)
    xs = list(np.linspace(-12.5, 31.0, n))
    return xs, [v * v / n for v in u]


SERIES = {
    "two-series": [("a vs b", *_posterior_like(1, 257)), ("", *_posterior_like(2, 64))],
    "flat-x": [("x span 0", [3.0, 3.0, 3.0], [0.1, 0.25, 0.2])],
    "flat-y-zero": [("y span 0", [0.0, 1.5, 4.0], [0.0, 0.0, 0.0])],
    "flat-y-negative": [("", [-1.0, 2.0], [-2.0, -2.0])],
    "one-point": [("p", [7.25], [0.5])],
}

# sha256 of each whole document, as written by the per-point implementation
DIGESTS = {
    "two-series": "d9bdfaab32ba7cd82b272de021068df2f740035410534250badf9eeb44a471be",
    "flat-x": "5e24ff892c3ca9c6ab3c8b2197fe7dd5b7b42501d662c345678d0e42a004a6e1",
    "flat-y-zero": "4ce26b8630c78914de6bf2659aa616eb8795f7bff81b43f3b389f65cf8ae2bc0",
    "flat-y-negative": "ed2c915df47b9418824564cff15ffe8ea44d8e9eaaac0fa40ebfb9718b99be59",
    "one-point": "dcade881edbd16ccf682b01a5fef5a7ff27dc0cf147512fa237f29524449b227",
}


@pytest.mark.parametrize("name", sorted(SERIES))
def test_polylines_match_per_point_formula(name):
    svg = line_chart_svg(SERIES[name], "t", "x", "y")
    assert re.findall(r'<polyline [^>]* points="([^"]*)"/>', svg) == per_point_polylines(SERIES[name])


@pytest.mark.parametrize("name", sorted(SERIES))
def test_document_bytes_pinned(name):
    svg = line_chart_svg(SERIES[name], "Posterior <pair>", "speedup", "P")
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == DIGESTS[name]

