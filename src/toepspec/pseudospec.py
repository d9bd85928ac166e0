"""Smallest-singular-value fields over complex-plane grids and contour extraction.

The epsilon-pseudospectrum of M is the sublevel set {z : s_min(z - M) < eps},
so one scalar field per matrix yields every level line at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from ._pool import map_chunks
from .errors import ShapeError, SizeLimitError
from .linalg import SMIN_DIRECT_MAX_N, _require_square, lapack_lu, smallest_singular
from .svgplot import write_contour

MAX_GRID_NODES = 4_000_000
# bytes of one stack of shifted matrices handed to a single batched SVD
_STACK_BYTES = 1 << 20


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
    """s_min(z I - m) at every grid node.

    For 2 <= n <= SMIN_DIRECT_MAX_N the nodes go to LAPACK as stacks of
    shifted matrices of at most _STACK_BYTES each, one batched SVD per
    stack; each value is bit-equal to :func:`smallest_singular` at that
    node.  Other sizes make one :func:`smallest_singular` call per node.  A
    large grid is split over this process and forked workers (~3 ms each),
    one pinned to each other CPU (see :func:`_pool.map_chunks`).
    """
    m = _require_square(m)
    if m.shape[0] > SMIN_DIRECT_MAX_N:
        lapack_lu()  # load LAPACK before any fork, or each worker imports scipy.linalg again
    zs = np.empty((grid.ny, grid.nx), dtype=complex)
    zs.real, zs.imag = grid.res()[None, :], grid.ims()[:, None]
    zs = zs.ravel()
    return ScalarField(grid=grid, values=map_chunks(partial(_smin_values, m), zs, m.shape[0]))


def _smin_values(m: np.ndarray, zs: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    eye = np.eye(n)
    if not 2 <= n <= SMIN_DIRECT_MAX_N:
        return np.array([smallest_singular(z * eye - m) for z in zs])
    values = np.empty(len(zs))
    k = _STACK_BYTES // (16 * n * n)
    for s in range(0, len(zs), k):
        stack = zs[s : s + k, None, None] * eye - m
        values[s : s + k] = np.linalg.svd(stack, compute_uv=False)[:, -1]
    return values


# marching squares: the segments of a cell as pairs of its edges, numbered
# 0 = corners (0, 1), 1 = (1, 2), 2 = (2, 3), 3 = (3, 0), with corner 0 at
# (re_i, im_j) and the corners counterclockwise; the cell index has corner
# 0's bit highest.  A cell and its complement cross the same edges, so the
# table keys on the smaller index; the saddles 0101 / 1010 are resolved below.
_CELL_EDGES = {
    0b0111: ((3, 0),),
    0b0100: ((0, 1),),
    0b0010: ((1, 2),),
    0b0001: ((2, 3),),
    0b0011: ((3, 1),),
    0b0110: ((0, 2),),
}


def contour_lines(field: ScalarField, levels) -> list[list[list[tuple[float, float]]]]:
    """Level lines per level, as chained polylines with vertices on grid edges.

    Returns one list of polylines per requested level; a level outside the
    field range yields an empty list.  Levels must be sorted ascending.

    A node counts as above the level when its value is >= the level, and
    each crossed grid edge gets one vertex, linear in the two node values.  A
    saddle cell (diagonal corners above) joins its above corners through the
    center when the mean of its four values is >= the level.  Segments chain
    through the edge they share, so a closed line ends on its first vertex;
    a line through a node whose value equals the level may chain differently
    than a chaining by coordinates would.
    """
    levels = list(levels)
    if any(l2 <= l1 for l1, l2 in zip(levels, levels[1:])):
        raise ShapeError("levels must be sorted strictly ascending")
    if any(l <= 0 for l in levels):
        raise ShapeError("levels must be positive")
    v = field.as_matrix()
    x, y = np.meshgrid(field.grid.res(), field.grid.ims())  # shaped like v
    nx, ny = field.grid.nx, field.grid.ny
    n_row_edges = ny * (nx - 1)  # edge ids: the edges along rows, then along columns
    corner_sum = ((v[:-1, :-1] + v[:-1, 1:]) + v[1:, 1:]) + v[1:, :-1]
    out = []
    for level in levels:
        above = v >= level
        # one vertex per grid edge, interpolated from its node of lower index
        with np.errstate(divide="ignore", invalid="ignore"):
            t_row = (level - v[:, :-1]) / (v[:, 1:] - v[:, :-1])
            t_col = (level - v[:-1]) / (v[1:] - v[:-1])
        xs = np.concatenate([(x[:, :-1] + t_row * (x[:, 1:] - x[:, :-1])).ravel(), x[:-1].ravel()])
        ys = np.concatenate([y[:, :-1].ravel(), (y[:-1] + t_col * (y[1:] - y[:-1])).ravel()])
        cell = (above[:-1, :-1] << 3) | (above[:-1, 1:] << 2) | (above[1:, 1:] << 1) | above[1:, :-1]
        saddle_up = corner_sum / 4.0 >= level
        segments = []
        for c in np.flatnonzero((cell != 0) & (cell != 0b1111)):
            j, i = divmod(int(c), nx - 1)
            row, col = j * (nx - 1) + i, n_row_edges + j * nx + i
            edges = (row, col + 1, row + nx - 1, col)
            idx = int(cell.flat[c])
            pairs = _CELL_EDGES.get(min(idx, 0b1111 ^ idx))
            if pairs is None:  # a saddle: corners 0 and 2 above in 1010
                pairs = ((0, 1), (2, 3)) if (idx == 0b1010) == saddle_up.flat[c] else ((3, 0), (1, 2))
            segments.extend((edges[a], edges[b]) for a, b in pairs)
        out.append([[(float(xs[e]), float(ys[e])) for e in chain] for chain in _chain_segments(segments)])
    return out


def _chain_segments(segments) -> list[list[int]]:
    """Join segments (pairs of edge ids) that share an edge into open or closed chains."""
    at_edge: dict[int, list[int]] = {}
    for sidx, pair in enumerate(segments):
        for e in pair:
            at_edge.setdefault(e, []).append(sidx)
    used = [False] * len(segments)
    chains = []
    for start, (a, b) in enumerate(segments):
        if used[start]:
            continue
        used[start] = True
        # extend forward from the tail, then backward from the head
        ends = []
        for e in (b, a):
            grown = [e]
            while (nxt := next((s for s in at_edge[e] if not used[s]), None)) is not None:
                used[nxt] = True
                e0, e1 = segments[nxt]
                e = e1 if e == e0 else e0
                grown.append(e)
            ends.append(grown)
        chains.append(ends[1][::-1] + ends[0])
    return chains


def write_contour_svg(field: ScalarField, levels, path, title: str) -> None:
    """The level lines of the field at the ascending levels, as an SVG figure.

    Levels that miss the field draw no line; with no line at all the figure
    is the empty grid box.
    """
    lines = [(lv, poly) for lv, polys in zip(levels, contour_lines(field, levels)) for poly in polys]
    g = field.grid
    write_contour(path, lines, (g.re_min, g.re_max, g.im_min, g.im_max), title)


def write_field_csv(field: ScalarField, path) -> None:
    """Rows `re,im,smin` in row-major node order."""
    res = [repr(a) for a in field.grid.res().tolist()]
    ims = [repr(b) for b in field.grid.ims().tolist()]
    rows = [f"{a},{b},{v!r}" for (b, a), v in zip(product(ims, res), field.values.tolist())]
    Path(path).write_text("\n".join(["re,im,smin", *rows]) + "\n", encoding="utf-8")
