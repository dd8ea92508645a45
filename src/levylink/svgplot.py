"""Dependency-free SVG renderer for trajectory plots.

Fixed 800x600 viewport, linear scaling to the data bounding box, one
polyline per path with a cycling color palette, axis labels t and X_t.
Output is a pure function of the input, so plots are byte-reproducible.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["render_paths_svg"]

WIDTH = 800
HEIGHT = 600
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 20
MARGIN_BOTTOM = 50

_MAX = float(np.finfo(float).max)

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


def _bounds(arrays: Sequence[np.ndarray]) -> tuple[float, float]:
    finite = np.concatenate([a[np.isfinite(a)] for a in arrays]) if arrays else np.array([])
    if finite.size == 0:
        return 0.0, 1.0
    lo, hi = float(finite.min()), float(finite.max())
    if lo == hi:
        # Degenerate span: center the single value.
        lo, hi = lo - 0.5, hi + 0.5
        if lo == hi:
            # Too large for 0.5 to register: widen by one float each way, staying finite.
            lo, hi = math.nextafter(lo, -_MAX), math.nextafter(hi, _MAX)
    return lo, hi


def _fraction(a, b, lo: float, hi: float):
    """``(a - b) / (hi - lo)``, every term halved first if ``hi - lo`` overflows."""
    if math.isfinite(hi - lo):
        return (a - b) / (hi - lo)
    return (a / 2 - b / 2) / (hi / 2 - lo / 2)


def render_paths_svg(paths: Sequence[tuple[np.ndarray, np.ndarray]]) -> str:
    """SVG 1.1 document plotting (times, values) pairs, one polyline each.

    Non-finite samples are dropped from their polyline; every path still
    contributes exactly one polyline element.
    """
    times = [np.asarray(t, dtype=float) for t, _ in paths]
    values = [np.asarray(x, dtype=float) for _, x in paths]
    t_lo, t_hi = _bounds(times)
    x_lo, x_hi = _bounds(values)
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        # Axis frame along the left and bottom plot edges.
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{HEIGHT - MARGIN_BOTTOM}" stroke="black" stroke-width="1"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{HEIGHT - MARGIN_BOTTOM}" x2="{WIDTH - MARGIN_RIGHT}" '
        f'y2="{HEIGHT - MARGIN_BOTTOM}" stroke="black" stroke-width="1"/>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">t</text>',
        f'<text x="18" y="{HEIGHT // 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16" transform="rotate(-90 18 {HEIGHT // 2})">X_t</text>',
        f'<text x="{MARGIN_LEFT}" y="{HEIGHT - MARGIN_BOTTOM + 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{t_lo:.6g}</text>',
        f'<text x="{WIDTH - MARGIN_RIGHT}" y="{HEIGHT - MARGIN_BOTTOM + 18}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="11">{t_hi:.6g}</text>',
        f'<text x="{MARGIN_LEFT - 6}" y="{HEIGHT - MARGIN_BOTTOM}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{x_lo:.6g}</text>',
        f'<text x="{MARGIN_LEFT - 6}" y="{MARGIN_TOP + 10}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{x_hi:.6g}</text>',
    ]
    for i, (t, x) in enumerate(zip(times, values)):
        keep = np.isfinite(t) & np.isfinite(x)
        px = MARGIN_LEFT + _fraction(t[keep], t_lo, t_lo, t_hi) * plot_w
        py = MARGIN_TOP + _fraction(x_hi, x[keep], x_lo, x_hi) * plot_h
        coords = np.column_stack((px, py)).ravel().tolist()
        pts = (("%.2f,%.2f " * px.size) % tuple(coords))[:-1]
        color = PALETTE[i % len(PALETTE)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{pts}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
