"""Static SVG emitters for band stacks, CDF curves, and sweep heat grids.

Output is deterministic: fixed viewport, fixed float formatting, metadata
embedded as an escaped JSON payload in a <metadata> element.  No interactivity.
"""

from __future__ import annotations

import json
from html import escape

WIDTH = 800.0
HEIGHT = 400.0
MARGIN = 40.0


def _fmt(x: float) -> str:
    return format(x, ".4f")


def _document(body: list[str], metadata: dict) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" height="{HEIGHT:.0f}" '
        f'viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">',
        "<metadata>" + escape(json.dumps(metadata, sort_keys=True), quote=False) + "</metadata>",
        f'<rect x="0" y="0" width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="white"/>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _x_scale(lo: float, hi: float):
    span = hi - lo if hi > lo else 1.0
    usable = WIDTH - 2 * MARGIN

    def to_x(v: float) -> float:
        return MARGIN + (v - lo) / span * usable

    return to_x


def _axis_labels(lo: float, hi: float) -> list[str]:
    """The values at the left and right ends of the x axis, written under the plot."""
    return [
        f'<text x="{_fmt(MARGIN)}" y="{_fmt(HEIGHT - 8)}" font-size="11">{_fmt(lo)}</text>',
        f'<text x="{_fmt(WIDTH - MARGIN - 40)}" y="{_fmt(HEIGHT - 8)}" font-size="11">{_fmt(hi)}</text>',
    ]


def band_stack_svg(levels, covers, metadata: dict) -> str:
    """One row of bands per nonempty cover, labelled ``level L`` from ``levels``, coarse on top."""
    rows = [(level, c) for level, c in zip(levels, covers) if not c.is_empty]
    if not rows:
        return _document(['<text x="20" y="40">empty cover</text>'], metadata)
    lo = min(c.hull[0] for _, c in rows)
    hi = max(c.hull[1] for _, c in rows)
    to_x = _x_scale(lo, hi)
    row_h = (HEIGHT - 2 * MARGIN) / len(rows)
    body = []
    for i, (level, cover) in enumerate(rows):
        y = MARGIN + i * row_h
        body.append(f'<text x="4" y="{_fmt(y + 0.6 * row_h)}" font-size="11">{escape(f"level {level}", quote=False)}</text>')
        for a, b in cover.intervals.tolist():
            w = max(to_x(b) - to_x(a), 0.3)
            body.append(
                f'<rect x="{_fmt(to_x(a))}" y="{_fmt(y + 0.15 * row_h)}" '
                f'width="{_fmt(w)}" height="{_fmt(0.7 * row_h)}" fill="#27496d"/>'
            )
    return _document(body + _axis_labels(lo, hi), metadata)


def curve_svg(xs, ys, metadata: dict) -> str:
    """Polyline plot of a CDF or IDS curve, whose values lie in [0, 1], over a frame."""
    xs = list(map(float, xs))
    ys = list(map(float, ys))
    if not xs:
        return _document(['<text x="20" y="40">empty curve</text>'], metadata)
    to_x = _x_scale(min(xs), max(xs))

    def to_y(v: float) -> float:
        return HEIGHT - MARGIN - v * (HEIGHT - 2 * MARGIN)

    pts = " ".join(f"{_fmt(to_x(x))},{_fmt(to_y(y))}" for x, y in zip(xs, ys))
    body = [
        f'<rect x="{_fmt(MARGIN)}" y="{_fmt(MARGIN)}" width="{_fmt(WIDTH - 2 * MARGIN)}" '
        f'height="{_fmt(HEIGHT - 2 * MARGIN)}" fill="none" stroke="#999"/>',
        f'<polyline points="{pts}" fill="none" stroke="#b33" stroke-width="1.5"/>',
    ]
    return _document(body + _axis_labels(min(xs), max(xs)), metadata)


def heat_grid_svg(x_values, y_values, cell_colors, metadata: dict) -> str:
    """Grid of colored cells; ``cell_colors[i][j]`` colors (x_values[i], y_values[j])."""
    nx, ny = len(x_values), len(y_values)
    if nx == 0 or ny == 0:
        return _document(['<text x="20" y="40">empty grid</text>'], metadata)
    cw = (WIDTH - 2 * MARGIN) / nx
    ch = (HEIGHT - 2 * MARGIN) / ny
    body = []
    for i in range(nx):
        for j in range(ny):
            body.append(
                f'<rect x="{_fmt(MARGIN + i * cw)}" y="{_fmt(HEIGHT - MARGIN - (j + 1) * ch)}" '
                f'width="{_fmt(cw)}" height="{_fmt(ch)}" fill="{cell_colors[i][j]}" '
                f'stroke="#fff" stroke-width="0.5"/>'
            )
    return _document(body + _axis_labels(float(x_values[0]), float(x_values[-1])), metadata)
