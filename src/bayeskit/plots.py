"""Minimal self-contained SVG line charts.

No external renderer is assumed: output is plain SVG with inline styling,
formatted deterministically so reruns are byte-identical.  Every coordinate
reads exactly as ``format(v, ".2f")`` writes it.
"""

from __future__ import annotations

import functools

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 720
_HEIGHT = 420
_MARGIN_LEFT = 62.0
_MARGIN_RIGHT = 18.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 44.0
_TICKS = 5


def _escape(text: str) -> str:
    """`xml.sax.saxutils.escape` without importing it (it pulls in urllib and email)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


@functools.cache  # built on first use, so importing the module stays cheap
def _text_words():
    """Text of the integer parts 0 .. 10**4 and of the fractions 0 .. 99, 8 bytes each.

    OR-ing an integer part's word (digits right-aligned in bytes 0 to 4, leading
    zeros as 0 bytes to be dropped) with a fraction's (".dd" in bytes 5 to 7)
    gives "ddddd.dd".  10**4 is there because a value just under it rounds up to it.
    """
    digits = np.indices((2, 10, 10, 10, 10), dtype=np.uint8).reshape(5, -1).T[:10**4 + 1]
    integer = np.zeros((len(digits), 8), dtype=np.uint8)
    integer[:, :5] = digits + ord("0")
    integer[:, :4][np.logical_and.accumulate(digits[:, :4] == 0, axis=1)] = 0
    fraction = np.zeros((100, 8), dtype=np.uint8)
    fraction[:, 5] = ord(".")
    fraction[:, 6:] = np.indices((10, 10), dtype=np.uint8).reshape(2, -1).T + ord("0")
    return integer.view(np.uint64).reshape(-1), fraction.view(np.uint64).reshape(-1)


def _hundredths(v: np.ndarray) -> np.ndarray:
    """round(100 * v), halves to even, exactly, for 0 <= v < 2**52.

    v is m * 2**-s for the integer m = mantissa * 2**53 (from `frexp`), so 100 * v
    is the integer 100 * m (below 2**63) shifted right by s >= 1, with the
    remainder deciding the rounding.  Shifts beyond 62 leave 0 with a remainder
    under half, as the true shift would.
    """
    mantissa, exponent = np.frexp(v)
    scaled = np.ldexp(mantissa, 53).astype(np.int64) * 100
    shift = np.minimum(53 - exponent.astype(np.int64), 62)
    q = scaled >> shift
    rest = scaled - (q << shift)
    half = np.int64(1) << (shift - 1)
    return q + ((rest > half) | ((rest == half) & (q % 2 == 1)))


def _points(ax: np.ndarray, ay: np.ndarray) -> str:
    """``" ".join(map("{:.2f},{:.2f}".format, ax, ay))``, byte for byte.

    Coordinates in [0, 10**4) are written from their exact hundredths through
    the digit tables; any other coordinate (negative, -0.0, non-finite or too
    large) sends the whole polyline through `format`.
    """
    n = min(ax.size, ay.size)
    v = np.stack([ax[:n], ay[:n]], axis=1).reshape(-1)  # x0, y0, x1, y1, ...
    if (np.signbit(v) | ~(v < 1e4)).any():
        return " ".join(map("{:.2f},{:.2f}".format, ax.tolist(), ay.tolist()))
    integer_text, fraction_text = _text_words()
    integer, fraction = np.divmod(_hundredths(v), 100)
    text = np.empty((v.size, 9), dtype=np.uint8)  # ddddd.dd, then "," after x and " " after y
    text[:, :8] = (integer_text[integer] | fraction_text[fraction]).view(np.uint8).reshape(-1, 8)
    text[0::2, 8] = ord(",")
    text[1::2, 8] = ord(" ")
    text = text.reshape(-1)
    return text[text != 0].tobytes()[:-1].decode("ascii")


def _extent(values: np.ndarray):
    """``min(values), max(values)`` as Python picks them from the same floats.

    That is the first of equal extremes (so the order of -0.0 and 0.0 decides),
    and with a NaN present Python's own comparison order.
    """
    if np.isnan(values).any():
        items = values.tolist()
        return min(items), max(items)
    return float(values[values.argmin()]), float(values[values.argmax()])


def _ticks(lo: float, hi: float):
    step = (hi - lo) / (_TICKS - 1)
    return [lo + i * step for i in range(_TICKS)]


def line_chart_svg(series, title: str, x_label: str, y_label: str) -> str:
    """Render `series` (label, xs, ys) triples as a single SVG document.

    xs and ys may be arrays or sequences of real numbers; the document is the
    same either way.
    """
    series = [(label, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
              for label, xs, ys in series]
    x_lo, x_hi = _extent(np.concatenate([xs for _, xs, _ in series]))
    y_min, y_hi = _extent(np.concatenate([ys for _, _, ys in series]))
    y_lo = min(0.0, y_min)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x):
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_escape(title)}</text>',
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
        points = _points(px(xs), py(ys))
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
                f'font-size="10">{_escape(label)}</text>'
            )

    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.2f}" y="{_HEIGHT - 10:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="14" y="{_MARGIN_TOP + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 14 {_MARGIN_TOP + plot_h / 2:.2f})">{_escape(y_label)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
