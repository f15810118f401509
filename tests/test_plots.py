"""Tests for the SVG line charts: polyline coordinates and byte stability."""

import hashlib
import math
import re
from fractions import Fraction
from pathlib import Path
from xml.dom.minidom import parseString
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bayeskit import cli, plots
from bayeskit.plots import _escape, _hundredths, _points, line_chart_svg

from oracles import lcg_uniforms

DATA = Path(__file__).resolve().parents[1] / "data"

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
    # the minima occur as both 0.0 and -0.0, in either order; the first tick reads "0" both ways
    "signed-zero-min": [("a", [0.0, -0.0, 1.0, 2.5], [0.0, -0.0, 0.3, 0.1]),
                        ("b", [-0.0, 0.5], [-0.0, 0.2])],
    "signed-zero-min-reversed": [("a", [-0.0, 0.0, 1.0, 2.5], [-0.0, 0.0, 0.3, 0.1]),
                                 ("b", [0.0, 0.5], [0.0, 0.2])],
    "nan-values": [("", [0.0, math.nan, 2.0], [0.1, 0.2, math.nan])],
}

# sha256 of each whole document, as written by the per-point implementation
DIGESTS = {
    "two-series": "d9bdfaab32ba7cd82b272de021068df2f740035410534250badf9eeb44a471be",
    "flat-x": "5e24ff892c3ca9c6ab3c8b2197fe7dd5b7b42501d662c345678d0e42a004a6e1",
    "flat-y-zero": "4ce26b8630c78914de6bf2659aa616eb8795f7bff81b43f3b389f65cf8ae2bc0",
    "flat-y-negative": "ed2c915df47b9418824564cff15ffe8ea44d8e9eaaac0fa40ebfb9718b99be59",
    "one-point": "dcade881edbd16ccf682b01a5fef5a7ff27dc0cf147512fa237f29524449b227",
    "signed-zero-min": "62afabfdc0b1cc5d44887c1718253b96d120ac54fef96f2bdf611c27ddd51351",
    "signed-zero-min-reversed": "62afabfdc0b1cc5d44887c1718253b96d120ac54fef96f2bdf611c27ddd51351",
    "nan-values": "12e8c67a34e65a8170466fc8fa68df709744726ac0f0c8ff1711caa353713489",
}


@pytest.mark.parametrize("name", sorted(SERIES))
def test_polylines_match_per_point_formula(name):
    svg = line_chart_svg(SERIES[name], "t", "x", "y")
    assert re.findall(r'<polyline [^>]* points="([^"]*)"/>', svg) == per_point_polylines(SERIES[name])


@pytest.mark.parametrize("name", sorted(SERIES))
def test_document_bytes_pinned(name):
    svg = line_chart_svg(SERIES[name], "Posterior <pair>", "speedup", "P")
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == DIGESTS[name]



def _as(kind, series):
    return [(label, kind(xs), kind(ys)) for label, xs, ys in series]


@pytest.mark.parametrize("name", sorted(SERIES))
def test_arrays_tuples_and_lists_give_the_same_document(name):
    want = line_chart_svg(SERIES[name], "t", "x", "y")
    for kind in (np.array, tuple, list):
        assert line_chart_svg(_as(kind, SERIES[name]), "t", "x", "y") == want


def test_signed_zero_minimum_labels_first_tick_zero():
    for name in ("signed-zero-min", "signed-zero-min-reversed"):
        svg = line_chart_svg(_as(np.array, SERIES[name]), "t", "x", "y")
        labels = re.findall(r'font-size="10">([^<]*)<', svg)
        assert labels[0] == "0" and labels[5] == "0"


# -- text escaping against xml.sax.saxutils ------------------------------------


@given(st.text())
def test_escape_matches_saxutils(text):
    assert _escape(text) == escape(text)


def test_document_with_markup_in_every_text_matches_saxutils(monkeypatch):
    series = [(label, *SERIES["two-series"][0][1:]) for label in
              ('A & B <"x">', "it's > 'y' & <z>", "&amp; stays &amp;amp;")]
    args = (series, 'Posterior <"A" & \'B\'>', "speedup > 1 & < 2", '"P" <&>')
    got = line_chart_svg(*args)
    monkeypatch.setattr(plots, "_escape", escape)
    assert got == line_chart_svg(*args)
    assert "&amp;amp;amp;" in got and "<z>" not in got
    assert len(parseString(got).getElementsByTagName("text")) > 4  # well-formed XML


# -- the fixed-point writer against format(v, ".2f") --------------------------


def _formatted(v):
    return f"{v:.2f},{v:.2f}"


EXACT_CASES = [
    0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.004999999999999999, 0.005,
    0.125, 0.375, 0.625, 2.675, 1.005, 1234.5678,
    *(k / 8 for k in range(1, 80, 2)),  # exact ties at odd multiples of 0.125
    *(np.nextafter(k / 1000 + 0.0005, side) for k in (0, 4, 1234, 9999994) for side in (0.0, 1e9)),
    float(np.nextafter(1e4, 0.0)), 9999.994999999999, 9999.995, 9999.996, 1e4, 10000.004, 2.0**53,
    -0.0, -5e-324, -0.125, -2.675, math.nan, math.inf, -math.inf,
]


@pytest.mark.parametrize("v", EXACT_CASES)
def test_points_match_format_on_edge_cases(v):
    assert _points(np.array([v]), np.array([v])) == _formatted(v)


@given(st.floats())
def test_points_match_format_for_any_float(v):
    assert _points(np.array([v]), np.array([v])) == _formatted(v)


@given(st.floats(0.0, 1e4, exclude_max=True))
def test_hundredths_round_half_even_exactly(v):
    assert int(_hundredths(np.array([v]))[0]) == round(Fraction(v) * 100)


@given(st.lists(st.tuples(st.floats(0.0, 1e4, exclude_max=True), st.floats(0.0, 1e4, exclude_max=True)),
                max_size=40),
       st.sampled_from([None, -1.0, math.nan, 1e4, math.inf]))
def test_polylines_match_format_point_by_point(points, odd):
    """Whole polylines, with one out-of-range coordinate sending them through `format`."""
    if odd is not None and points:
        points[len(points) // 2] = (points[len(points) // 2][0], odd)
    xs = np.array([x for x, _ in points])
    ys = np.array([y for _, y in points])
    assert _points(xs, ys) == " ".join(f"{x:.2f},{y:.2f}" for x, y in points)


# -- the bundled charts against the per-point oracle ----------------------------


@pytest.fixture
def bundled_charts(tmp_path, monkeypatch):
    """(series, document) of every chart the bundled compare-performance and fit-defects write."""
    charts = []

    def recording(series, *args, **kwargs):
        svg = line_chart_svg(series, *args, **kwargs)
        charts.append((series, args, svg))
        return svg

    monkeypatch.setattr(cli, "line_chart_svg", recording)
    assert cli.main(["compare-performance", "--primary", str(DATA / "demo_primary.csv"),
                     "--calib", str(DATA / "demo_bench.csv"), "--metric", "time", "--plots",
                     "--out", str(tmp_path / "performance")]) == 0
    assert cli.main(["fit-defects", "--data", str(DATA / "demo_bugs.csv"),
                     "--out", str(tmp_path / "fit")]) == 0
    return charts


def test_bundled_polylines_match_per_point_formula(bundled_charts):
    assert len(bundled_charts) == 28 + 3
    for series, _, svg in bundled_charts:
        floats = [(label, list(map(float, xs)), list(map(float, ys))) for label, xs, ys in series]
        got = re.findall(r'<polyline [^>]* points="([^"]*)"/>', svg)
        assert got == per_point_polylines(floats)


def test_bundled_documents_same_from_arrays_tuples_and_lists(bundled_charts):
    for series, args, svg in bundled_charts:
        for kind in (np.array, tuple, list):
            assert line_chart_svg(_as(kind, series), *args) == svg
