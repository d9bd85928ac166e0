"""Minimal deterministic SVG rendering: scatter, contour, histogram.

No plotting dependency; output is a pure function of the input data, so two
renders of the same data are byte-identical.  Fixed 800 x 800 canvas with
labeled axes and 3-significant-digit tick labels.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import EmptyDataError, ShapeError

CANVAS = 800
MARGIN = 80


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _tick(x: float) -> str:
    return f"{x:.3g}"


class _Frame:
    """Affine map from data coordinates to canvas pixels."""

    def __init__(self, xs, ys):
        if len(xs) == 0:
            raise EmptyDataError("nothing to plot")
        x_min, x_max = float(min(xs)), float(max(xs))
        y_min, y_max = float(min(ys)), float(max(ys))
        if x_max == x_min:
            x_min, x_max = x_min - 1.0, x_max + 1.0
        if y_max == y_min:
            y_min, y_max = y_min - 1.0, y_max + 1.0
        pad_x = 0.05 * (x_max - x_min)
        pad_y = 0.05 * (y_max - y_min)
        self.x_min, self.x_max = x_min - pad_x, x_max + pad_x
        self.y_min, self.y_max = y_min - pad_y, y_max + pad_y
        self.span = CANVAS - 2 * MARGIN

    def px(self, x: float) -> float:
        return MARGIN + self.span * (x - self.x_min) / (self.x_max - self.x_min)

    def py(self, y: float) -> float:
        # SVG y grows downward
        return CANVAS - MARGIN - self.span * (y - self.y_min) / (self.y_max - self.y_min)

    def axes(self, xlabel: str, ylabel: str, title: str) -> list[str]:
        parts = [
            f'<rect x="{MARGIN}" y="{MARGIN}" width="{self.span}" height="{self.span}" '
            'fill="none" stroke="black" stroke-width="1"/>'
        ]
        for i in range(5):
            fx = self.x_min + (self.x_max - self.x_min) * i / 4
            fy = self.y_min + (self.y_max - self.y_min) * i / 4
            x = self.px(fx)
            y = self.py(fy)
            parts.append(
                f'<line x1="{_fmt(x)}" y1="{CANVAS - MARGIN}" x2="{_fmt(x)}" '
                f'y2="{CANVAS - MARGIN + 6}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{_fmt(x)}" y="{CANVAS - MARGIN + 22}" font-size="12" '
                f'text-anchor="middle">{_tick(fx)}</text>'
            )
            parts.append(
                f'<line x1="{MARGIN - 6}" y1="{_fmt(y)}" x2="{MARGIN}" y2="{_fmt(y)}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{MARGIN - 10}" y="{_fmt(y + 4)}" font-size="12" '
                f'text-anchor="end">{_tick(fy)}</text>'
            )
        parts.append(
            f'<text x="{CANVAS // 2}" y="{CANVAS - 20}" font-size="14" '
            f'text-anchor="middle">{xlabel}</text>'
        )
        parts.append(
            f'<text x="22" y="{CANVAS // 2}" font-size="14" text-anchor="middle" '
            f'transform="rotate(-90 22 {CANVAS // 2})">{ylabel}</text>'
        )
        if title:
            parts.append(
                f'<text x="{CANVAS // 2}" y="40" font-size="16" text-anchor="middle">{title}</text>'
            )
        return parts


def _document(body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
        f'viewBox="0 0 {CANVAS} {CANVAS}">\n'
        f'<rect width="{CANVAS}" height="{CANVAS}" fill="white"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _path(frame: _Frame, pts, close: bool = False) -> str:
    cmds = []
    for i, (x, y) in enumerate(pts):
        op = "M" if i == 0 else "L"
        cmds.append(f"{op}{_fmt(frame.px(x))},{_fmt(frame.py(y))}")
    if close:
        cmds.append("Z")
    return " ".join(cmds)


def _as_xy(points) -> list[tuple[float, float]]:
    out = []
    for p in points:
        if isinstance(p, (tuple, list)):
            out.append((float(p[0]), float(p[1])))
        else:
            c = complex(p)
            out.append((c.real, c.imag))
    return out


def render_svg(kind: str, data: dict, style: dict | None = None) -> str:
    """Render one figure; see the per-kind data contracts in the body."""
    style = dict(style or {})
    if kind == "scatter":
        return _render_scatter(data, style)
    if kind == "contour":
        return _render_contour(data, style)
    if kind == "histogram":
        return _render_histogram(data, style)
    raise ShapeError(f"unknown plot kind {kind!r}")


def write_scatter(path, points, curve, title: str) -> None:
    """Points over a closed curve (a spectrum over its symbol curve), as an SVG file."""
    svg = render_svg("scatter", {"points": points, "curve": curve}, {"title": title})
    Path(path).write_text(svg, encoding="utf-8")


def _render_scatter(data: dict, style: dict) -> str:
    """data: points (complex or (x, y)); optional curve, extra_curves, circles (radii)."""
    points = _as_xy(data.get("points", []))
    if not points:
        raise EmptyDataError("scatter needs at least one point")
    curves = []
    if data.get("curve") is not None:
        curves.append(_as_xy(data["curve"]))
    for extra in data.get("extra_curves", []):
        curves.append(_as_xy(extra))
    circles = [float(r) for r in data.get("circles", [])]
    xs = [p[0] for p in points] + [p[0] for c in curves for p in c] + [r for r in circles] + [-r for r in circles]
    ys = [p[1] for p in points] + [p[1] for c in curves for p in c] + [r for r in circles] + [-r for r in circles]
    frame = _Frame(xs, ys)
    body = frame.axes(style.get("xlabel", "Re"), style.get("ylabel", "Im"), style.get("title", ""))
    for c in curves:
        body.append(f'<path d="{_path(frame, c, close=True)}" fill="none" stroke="black" stroke-width="1.2"/>')
    for r in circles:
        arc = [(r * math.cos(t), r * math.sin(t)) for t in np.linspace(0, 2 * math.pi, 181)]
        body.append(f'<path d="{_path(frame, arc)}" fill="none" stroke="gray" stroke-dasharray="4,3"/>')
    rad = style.get("point_radius", 2.2)
    for x, y in points:
        body.append(
            f'<circle cx="{_fmt(frame.px(x))}" cy="{_fmt(frame.py(y))}" r="{rad}" '
            'fill="royalblue" fill-opacity="0.8"/>'
        )
    return _document(body)


def _render_contour(data: dict, style: dict) -> str:
    """data: lines = [(level, polyline)], each polyline a list of (x, y); optional points;
    optional box = (x_min, x_max, y_min, y_max), the extent drawn when there are neither."""
    lines = data.get("lines", [])
    points = _as_xy(data.get("points", []))
    box = data.get("box", ())
    xs = [p[0] for _, poly in lines for p in poly] + [p[0] for p in points] or list(box[:2])
    ys = [p[1] for _, poly in lines for p in poly] + [p[1] for p in points] or list(box[2:])
    frame = _Frame(xs, ys)
    body = frame.axes(style.get("xlabel", "Re"), style.get("ylabel", "Im"), style.get("title", ""))
    for level, poly in lines:
        if len(poly) < 2:
            continue
        body.append(
            f'<path d="{_path(frame, poly)}" fill="none" stroke="crimson" '
            f'stroke-width="1" data-level="{_fmt(level)}"/>'
        )
    for x, y in points:
        body.append(
            f'<circle cx="{_fmt(frame.px(x))}" cy="{_fmt(frame.py(y))}" r="2" fill="black"/>'
        )
    return _document(body)


def _render_histogram(data: dict, style: dict) -> str:
    """data: values (reals), optional bins (default 40)."""
    values = np.asarray(data.get("values", []), dtype=float)
    if values.size == 0:
        raise EmptyDataError("histogram needs values")
    bins = int(data.get("bins", 40))
    counts, edges = np.histogram(values, bins=bins)
    frame = _Frame(edges, [0.0, float(max(counts.max(), 1))])
    body = frame.axes(style.get("xlabel", "value"), style.get("ylabel", "count"), style.get("title", ""))
    for k in range(bins):
        x0, x1 = frame.px(edges[k]), frame.px(edges[k + 1])
        y0, y1 = frame.py(0.0), frame.py(float(counts[k]))
        body.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y1)}" width="{_fmt(max(x1 - x0 - 1, 0.5))}" '
            f'height="{_fmt(max(y0 - y1, 0.0))}" fill="steelblue" stroke="none"/>'
        )
    return _document(body)
