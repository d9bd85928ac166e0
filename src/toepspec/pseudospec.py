"""Smallest-singular-value fields over complex-plane grids and contour extraction.

The epsilon-pseudospectrum of M is the sublevel set {z : s_min(z - M) < eps},
so one scalar field per matrix yields every level line at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ShapeError, SizeLimitError
from .linalg import smallest_singular
from .svgplot import render_svg

MAX_GRID_NODES = 4_000_000


@dataclass(frozen=True)
class GridSpec:
    """A rectangular grid, endpoints included, nx columns by ny rows."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ShapeError("grid bounds must satisfy re_min < re_max and im_min < im_max")
        if self.nx < 2 or self.ny < 2:
            raise ShapeError("grid needs at least 2 nodes per axis")
        if self.nx * self.ny > MAX_GRID_NODES:
            raise SizeLimitError(f"grid exceeds the {MAX_GRID_NODES}-node guard")

    def res(self) -> np.ndarray:
        return np.linspace(self.re_min, self.re_max, self.nx)

    def ims(self) -> np.ndarray:
        return np.linspace(self.im_min, self.im_max, self.ny)

    def pitch(self) -> float:
        return max(
            (self.re_max - self.re_min) / (self.nx - 1),
            (self.im_max - self.im_min) / (self.ny - 1),
        )


@dataclass(frozen=True)
class ScalarField:
    """Nonnegative node values in row-major order: values[j * nx + i]."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        if len(vals) != self.grid.nx * self.grid.ny:
            raise ShapeError("field length does not match the grid")
        object.__setattr__(self, "values", vals)

    def as_matrix(self) -> np.ndarray:
        """Shape (ny, nx): entry [j, i] is the value at (re_i, im_j)."""
        return self.values.reshape(self.grid.ny, self.grid.nx)


def smin_field(m: np.ndarray, grid: GridSpec) -> ScalarField:
    """s_min(z I - m) at every grid node."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError("expected a square matrix")
    eye = np.eye(m.shape[0])
    zs = [complex(re, im) for im in grid.ims() for re in grid.res()]
    return ScalarField(grid=grid, values=np.array([smallest_singular(z * eye - m) for z in zs]))


def _interp(p0, p1, v0, v1, level):
    t = 0.5 if v1 == v0 else (level - v0) / (v1 - v0)
    t = min(max(t, 0.0), 1.0)
    return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))


def _cell_segments(corners, values, level):
    """Marching-squares segments for one cell; saddles resolved by the cell average."""
    idx = 0
    for v in values:
        idx = (idx << 1) | (1 if v >= level else 0)
    edges = {
        "top": (0, 1),
        "right": (1, 2),
        "bottom": (2, 3),
        "left": (3, 0),
    }

    def pt(edge):
        a, b = edges[edge]
        return _interp(corners[a], corners[b], values[a], values[b], level)

    # a cell and its complement cross the same edges: key on the smaller index
    table = {
        0b0000: [],
        0b0111: [("left", "top")],
        0b0100: [("top", "right")],
        0b0010: [("right", "bottom")],
        0b0001: [("bottom", "left")],
        0b0011: [("left", "right")],
        0b0110: [("top", "bottom")],
    }
    key = min(idx, 0b1111 ^ idx)
    if key in table:
        return [(pt(a), pt(b)) for a, b in table[key]]
    # saddle cells 0101 / 1010: connect according to the cell average
    avg_above = (sum(values) / 4.0) >= level
    if idx == 0b1010:
        # corners 0 and 2 above: isolate 1 and 3 when the center joins them
        pairs = [("top", "right"), ("bottom", "left")] if avg_above else [("left", "top"), ("right", "bottom")]
    else:
        pairs = [("left", "top"), ("right", "bottom")] if avg_above else [("top", "right"), ("bottom", "left")]
    return [(pt(a), pt(b)) for a, b in pairs]


def contour_lines(field: ScalarField, levels) -> list[list[list[tuple[float, float]]]]:
    """Level lines per level, as chained polylines with vertices on grid edges.

    Returns one list of polylines per requested level; a level outside the
    field range yields an empty list.  Levels must be sorted ascending.
    """
    levels = list(levels)
    if any(l2 <= l1 for l1, l2 in zip(levels, levels[1:])):
        raise ShapeError("levels must be sorted strictly ascending")
    if any(l <= 0 for l in levels):
        raise ShapeError("levels must be positive")
    vals = field.as_matrix()
    res = field.grid.res()
    ims = field.grid.ims()
    eps_key = field.grid.pitch() * 1e-9
    out = []
    for level in levels:
        segments = []
        for j in range(field.grid.ny - 1):
            for i in range(field.grid.nx - 1):
                corners = [
                    (res[i], ims[j]),
                    (res[i + 1], ims[j]),
                    (res[i + 1], ims[j + 1]),
                    (res[i], ims[j + 1]),
                ]
                cvals = [vals[j, i], vals[j, i + 1], vals[j + 1, i + 1], vals[j + 1, i]]
                segments.extend(_cell_segments(corners, cvals, level))
        out.append(_chain_segments(segments, eps_key))
    return out


def _chain_segments(segments, eps):
    """Join segments that share endpoints into open or closed polylines."""

    def key(p):
        return (round(p[0] / eps), round(p[1] / eps))

    adjacency: dict = {}
    for sidx, (a, b) in enumerate(segments):
        adjacency.setdefault(key(a), []).append((sidx, 0))
        adjacency.setdefault(key(b), []).append((sidx, 1))
    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        a, b = segments[start]
        chain = [a, b]
        # extend forward from the tail, then backward from the head
        for endpoint, append in ((b, True), (a, False)):
            current = endpoint
            while True:
                candidates = [
                    (sidx, side)
                    for sidx, side in adjacency.get(key(current), [])
                    if not used[sidx]
                ]
                if not candidates:
                    break
                sidx, side = candidates[0]
                used[sidx] = True
                nxt = segments[sidx][1 - side]
                if append:
                    chain.append(nxt)
                else:
                    chain.insert(0, nxt)
                current = nxt
        polylines.append(chain)
    return polylines


def write_contour_svg(field: ScalarField, levels, path, title: str) -> None:
    """The level lines of the field at the ascending levels, as an SVG figure."""
    lines = [(lv, poly) for lv, polys in zip(levels, contour_lines(field, levels)) for poly in polys]
    Path(path).write_text(render_svg("contour", {"lines": lines}, {"title": title}), encoding="utf-8")


def write_field_csv(field: ScalarField, path) -> None:
    """Rows `re,im,smin` in row-major node order."""
    res = field.grid.res()
    ims = field.grid.ims()
    lines = ["re,im,smin"]
    vals = field.values
    for j in range(field.grid.ny):
        for i in range(field.grid.nx):
            lines.append(
                f"{float(res[i])!r},{float(ims[j])!r},{float(vals[j * field.grid.nx + i])!r}"
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_field_csv(path) -> ScalarField:
    """Inverse of :func:`write_field_csv` (grid inferred from the node columns)."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not lines or lines[0] != "re,im,smin":
        raise ShapeError(f"{path} is not a field CSV")
    res_vals, im_vals, smin = [], [], []
    for line in lines[1:]:
        a, b, c = line.split(",")
        res_vals.append(float(a))
        im_vals.append(float(b))
        smin.append(float(c))
    res = sorted(set(res_vals))
    ims = sorted(set(im_vals))
    grid = GridSpec(
        re_min=res[0], re_max=res[-1], im_min=ims[0], im_max=ims[-1],
        nx=len(res), ny=len(ims),
    )
    return ScalarField(grid=grid, values=np.asarray(smin))
