"""Minimal deterministic SVG figures: a spectrum over its symbol curve, and level lines.

No plotting dependency; output is a pure function of the input data, so two
writes of the same data are byte-identical.  Fixed 800 x 800 canvas with
labeled axes and 3-significant-digit tick labels.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import EmptyDataError

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

    def axes(self, title: str) -> list[str]:
        """The frame, five ticks per axis, the labels Re and Im, and the title."""
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
            'text-anchor="middle">Re</text>'
        )
        parts.append(
            f'<text x="22" y="{CANVAS // 2}" font-size="14" text-anchor="middle" '
            f'transform="rotate(-90 22 {CANVAS // 2})">Im</text>'
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


def write_scatter(path, points, curve, title: str) -> None:
    """Points over a closed curve (a spectrum over its symbol curve), as an SVG file.

    Both are complex sequences; an empty point set raises EmptyDataError.
    """
    points = np.asarray(points, dtype=complex)
    curve = np.asarray(curve, dtype=complex)
    if points.size == 0:
        raise EmptyDataError("scatter needs at least one point")
    xs, ys, curve_xs, curve_ys = (a.tolist() for a in (points.real, points.imag, curve.real, curve.imag))
    frame = _Frame(xs + curve_xs, ys + curve_ys)
    body = frame.axes(title)
    curve_d = _path(frame, zip(curve_xs, curve_ys), close=True)
    body.append(f'<path d="{curve_d}" fill="none" stroke="black" stroke-width="1.2"/>')
    for x, y in zip(xs, ys):
        body.append(
            f'<circle cx="{_fmt(frame.px(x))}" cy="{_fmt(frame.py(y))}" r="2.2" '
            'fill="royalblue" fill-opacity="0.8"/>'
        )
    Path(path).write_text(_document(body), encoding="utf-8")


def write_contour(path, lines, box, title: str) -> None:
    """Level lines as an SVG file: lines = [(level, polyline)], each polyline a list of (x, y).

    The extent is that of the lines, or box = (x_min, x_max, y_min, y_max)
    when there is no line; a polyline of fewer than two vertices is not drawn.
    """
    xs = [x for _, poly in lines for x, _ in poly] or list(box[:2])
    ys = [y for _, poly in lines for _, y in poly] or list(box[2:])
    frame = _Frame(xs, ys)
    body = frame.axes(title)
    for level, poly in lines:
        if len(poly) < 2:
            continue
        body.append(
            f'<path d="{_path(frame, poly)}" fill="none" stroke="crimson" '
            f'stroke-width="1" data-level="{_fmt(level)}"/>'
        )
    Path(path).write_text(_document(body), encoding="utf-8")
