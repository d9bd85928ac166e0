
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import jordan, pitch, read_field_csv
from toepspec import pseudospec
from toepspec.errors import NonFiniteError, ShapeError, SizeLimitError
from toepspec.linalg import SMIN_DIRECT_MAX_N, smallest_singular
from toepspec.matrixgen import NoiseSpec, PerturbationSpec, circulant, perturbed, sample_noise
from toepspec.pseudospec import GridSpec, contour_lines, smin_field, write_field_csv
from toepspec.symbol import parse_symbol

JORDAN = parse_symbol("-1:1")


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ShapeError):
            GridSpec(1, 0, 0, 1, 10, 10)
        with pytest.raises(SizeLimitError):
            GridSpec(0, 1, 0, 1, 4000, 4000)

    def test_nodes(self):
        g = GridSpec(-1, 1, -2, 2, 3, 5)
        zs = g.nodes()
        assert zs.shape == (5, 3) and zs.dtype == complex
        # row j holds im_j, column i holds re_i, endpoints included
        np.testing.assert_array_equal(zs.real, np.tile([-1.0, 0.0, 1.0], (5, 1)))
        np.testing.assert_array_equal(zs.imag, np.tile([[-2.0], [-1.0], [0.0], [1.0], [2.0]], (1, 3)))


class TestSminField:
    def test_scalar_matrix_gives_abs_z(self):
        g = GridSpec(-1, 1, -1, 1, 11, 11)
        field = smin_field(np.zeros((1, 1), dtype=complex), g)
        assert field.shape == (11, 11)
        for (j, i), z in np.ndenumerate(g.nodes()):
            assert field[j, i] == pytest.approx(abs(z), rel=1e-12, abs=1e-12)

    def test_circulant_normal_oracle(self):
        n = 8
        c = circulant(JORDAN, n)
        spectrum = np.exp(2j * np.pi * np.arange(n) / n)
        g = GridSpec(-2, 2, -2, 2, 41, 41)
        field = smin_field(c, g)
        dist = np.min(np.abs(g.nodes()[:, :, None] - spectrum), axis=2)
        assert float(np.max(np.abs(field - dist))) <= 1e-8

    def test_jordan_zero_is_exact(self):
        assert smallest_singular(0 * np.eye(20) - jordan(20)) == 0.0

    def test_nesting_after_fill(self):
        rng = np.random.default_rng(80)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        field = smin_field(m, GridSpec(-2, 2, -2, 2, 21, 21))
        for e1, e2 in ((0.1, 0.5), (0.5, 1.0)):
            assert not np.any((field < e1) & ~(field < e2))

    def test_non_normal_field_matches_direct_svd(self):
        # n = 30 > 24 takes the inverse-iteration branch of smallest_singular
        n = 30
        m = jordan(n) + n**-2.0 * sample_noise(NoiseSpec(), n, 83)
        g = GridSpec(-1.5, 1.5, -1.5, 1.5, 9, 9)
        field = smin_field(m, g)
        direct = self.per_node_svd(m, g)
        assert np.max(np.abs(field - direct) / direct) <= 1e-8

    @staticmethod
    def per_node_svd(m, g):
        n = m.shape[0]
        svds = [np.linalg.svd(z * np.eye(n) - m, compute_uv=False)[-1] for z in g.nodes().ravel()]
        return np.reshape(svds, (g.ny, g.nx))

    @pytest.mark.parametrize("n", [8, 24])
    def test_stacked_field_equals_per_node_svd(self, n):
        m = perturbed(JORDAN, n, PerturbationSpec("poly", 2.0), NoiseSpec(), 5)
        g = GridSpec(-2, 2, -2, 2, 101, 101)
        assert g.nx * g.ny * 16 * n * n >= 2 * pseudospec._STACK_BYTES  # at least two stacks
        assert np.array_equal(smin_field(m, g), self.per_node_svd(m, g))

    def test_one_by_one_field_is_abs(self):
        m00 = 0.3 - 0.7j
        g = GridSpec(-1, 1, -1, 1, 11, 11)
        # scalar abs: numpy's array abs differs from it in the last bit at some nodes
        expected = [[abs(z - m00) for z in row] for row in g.nodes().tolist()]
        assert np.array_equal(smin_field(np.array([[m00]]), g), expected)

    def test_above_direct_size_goes_per_node(self, monkeypatch):
        n = SMIN_DIRECT_MAX_N + 1
        m = perturbed(JORDAN, n, PerturbationSpec("poly", 2.0), NoiseSpec(), 5)
        g = GridSpec(-1.5, 1.5, -1.5, 1.5, 5, 4)
        calls = []
        monkeypatch.setattr(pseudospec, "smallest_singular", lambda a: calls.append(a) or smallest_singular(a))
        values = smin_field(m, g)
        assert len(calls) == g.nx * g.ny
        direct = self.per_node_svd(m, g)
        assert np.max(np.abs(values - direct) / direct) <= 1e-8

    @pytest.mark.parametrize("n", [1, 8, SMIN_DIRECT_MAX_N + 1])
    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_non_finite_matrix_is_refused_before_any_node(self, monkeypatch, n, entry):
        m = np.zeros((n, n), dtype=complex)
        m[0, n - 1] = entry
        monkeypatch.setattr(pseudospec, "map_chunks", lambda *args: pytest.fail("a node was solved"))
        with pytest.raises(NonFiniteError, match="inf or NaN"):
            smin_field(m, GridSpec(-1, 1, -1, 1, 3, 3))

    def test_jordan_interior_lower_bound(self):
        # the rank-one corner perturbation reaches radius r, so s_min at
        # |z| <= 0.88 sits below 2 r^n for r = 0.9, n = 50
        n, r = 50, 0.9
        j = jordan(n)
        g = GridSpec(-1, 1, -1, 1, 61, 61)
        field = smin_field(j, g)
        inside = np.abs(g.nodes()) <= 0.88
        assert np.all(field[inside] < 2 * r**n)


_POOLED_FIELD = """
import sys
import numpy as np
from toepspec import _pool, pseudospec

def map_chunks(*args):
    print("scipy.linalg._flapack" in sys.modules, "scipy.linalg" in sys.modules)  # at the fork
    return _pool.map_chunks(*args)

pseudospec.map_chunks = map_chunks
grid = pseudospec.GridSpec(-1, 1, -1, 1, 31, 31)
assert grid.nx * grid.ny * 30**3 >= _pool._POOL_MIN_WORK  # the field is split over workers
assert "scipy.linalg._flapack" not in sys.modules
pseudospec.smin_field(np.diag(np.ones(29), 1), grid)
print("scipy.linalg._flapack" in sys.modules, "scipy.linalg" in sys.modules)
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU: smin_field never forks")
def test_pooled_field_loads_lapack_before_the_fork():
    # loaded in the parent, _flapack is inherited by every worker, which would
    # otherwise load it again; the scipy.linalg package never loads
    src = str(Path(pseudospec.__file__).resolve().parent.parent)
    argv = [sys.executable, "-c", _POOLED_FIELD]
    out = subprocess.run(argv, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "False"] * 2


class TestContours:
    def test_circle_level_set(self):
        g = GridSpec(-1, 1, -1, 1, 81, 81)
        polys = contour_lines(g, np.abs(g.nodes()), [0.5])[0]
        assert polys
        pts = np.array([p for poly in polys for p in poly])
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert np.max(np.abs(radii - 0.5)) <= 2 * pitch(g)

    def test_level_below_min_is_empty(self):
        g = GridSpec(-1, 1, -1, 1, 11, 11)
        assert contour_lines(g, np.abs(g.nodes()) + 1.0, [0.5])[0] == []

    def test_circulant_level_circles(self):
        n = 8
        c = circulant(JORDAN, n)
        spectrum = np.exp(2j * np.pi * np.arange(n) / n)
        g = GridSpec(-1.6, 1.6, -1.6, 1.6, 101, 101)
        field = smin_field(c, g)
        eps = 0.12
        polys = contour_lines(g, field, [eps])[0]
        pts = np.array([p for poly in polys for p in poly])
        zs = pts[:, 0] + 1j * pts[:, 1]
        dist = np.min(np.abs(zs[:, None] - spectrum[None, :]), axis=1)
        assert np.max(np.abs(dist - eps)) <= 2 * pitch(g)

    def test_closed_lines_close_on_their_first_vertex(self):
        g = GridSpec(-1.6, 1.6, -1.6, 1.6, 101, 101)
        v = smin_field(circulant(JORDAN, 8), g)
        res, ims = g.nodes()[0].real, g.nodes()[:, 0].imag
        levels = [0.12, 0.5]  # 8 circles; an annulus with 2 boundary circles
        for level, polys in zip(levels, contour_lines(g, v, levels)):
            assert len(polys) >= 2 and all(poly[0] == poly[-1] for poly in polys)
            for x, y in (p for poly in polys for p in poly):
                # each vertex lies on a grid line: linear along it, the field is the level
                on_row = np.flatnonzero(ims == y)
                val = np.interp(x, res, v[on_row[0]]) if len(on_row) else np.interp(y, ims, v[:, res == x].ravel())
                assert abs(val - level) <= 1e-12

    @pytest.mark.parametrize(
        "field, level, expected",
        [
            # corners (0, 0) and (1, 1) above: at 0.4 the center (mean 0.5) is above too,
            # and the lines cut off the corners below, joining the two above
            ([[1, 0], [0, 1]], 0.4, [((0.6, 0), (1, 0.4)), ((0.4, 1), (0, 0.6))]),
            # at 0.7 the center is below: the lines cut off the corners above
            ([[1, 0], [0, 1]], 0.7, [((0, 0.3), (0.3, 0)), ((1, 0.7), (0.7, 1))]),
            # the other diagonal above swaps the two cases
            ([[0, 1], [1, 0]], 0.4, [((0, 0.4), (0.4, 0)), ((1, 0.6), (0.6, 1))]),
            ([[0, 1], [1, 0]], 0.7, [((0.7, 0), (1, 0.3)), ((0.3, 1), (0, 0.7))]),
        ],
    )
    def test_saddle_cell(self, field, level, expected):
        g = GridSpec(0, 1, 0, 1, 2, 2)
        polys = contour_lines(g, np.array(field, dtype=float), [level])[0]
        assert len(polys) == len(expected)
        for poly, segment in zip(polys, expected):
            assert poly == [pytest.approx(p, abs=1e-15) for p in segment]

    def test_unsorted_levels_rejected(self):
        g = GridSpec(-1, 1, -1, 1, 11, 11)
        with pytest.raises(ShapeError):
            contour_lines(g, np.ones((11, 11)), [0.5, 0.1])


@pytest.mark.parametrize("shape", [(20,), (5, 4), (4, 5, 1)])
def test_field_of_another_shape_is_refused(tmp_path, shape):
    g = GridSpec(-1, 1, -1, 1, 5, 4)  # a field on it has shape (4, 5)
    with pytest.raises(ShapeError, match="does not fit"):
        contour_lines(g, np.ones(shape), [0.5])
    with pytest.raises(ShapeError, match="does not fit"):
        write_field_csv(g, np.ones(shape), tmp_path / "f.csv")
    assert not (tmp_path / "f.csv").exists()


class TestFieldCsv:
    def test_header_and_shape(self, tmp_path):
        g = GridSpec(0, 1, 0, 1, 3, 2)
        path = tmp_path / "field.csv"
        write_field_csv(g, np.arange(6, dtype=float).reshape(2, 3), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "re,im,smin"
        assert len(lines) == 7
        assert lines[1].split(",")[2] == "0.0"

    def test_bytes_match_per_node_reprs(self, tmp_path):
        # negative, zero and exponent-form coordinates and values
        g = GridSpec(-2.5e-5, 2.5e-5, -1.5, 1e17, 3, 4)
        values = np.array([0.0, 5e-324, 1e-300, 0.1, 2.0 / 3.0, 1.5e22, 7.0, 1e16, 3e-7, 12.5, 0.25, 1e300])
        path = tmp_path / "f.csv"
        write_field_csv(g, values.reshape(4, 3), path)
        x, y = np.meshgrid(np.linspace(-2.5e-5, 2.5e-5, 3), np.linspace(-1.5, 1e17, 4))
        rows = [f"{float(re)!r},{float(im)!r},{float(v)!r}" for re, im, v in zip(x.ravel(), y.ravel(), values)]
        expected = "\n".join(["re,im,smin", *rows]) + "\n"
        assert "0.0," in expected and "-2.5e-05," in expected and ",1e+17," in expected
        assert path.read_bytes() == expected.encode()


class TestFieldCsvRoundtrip:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(82)
        g = GridSpec(-1.5, 2.5, -0.5, 1.0, 7, 5)
        field = rng.uniform(0, 3, size=(5, 7))
        path = tmp_path / "f.csv"
        write_field_csv(g, field, path)
        back_grid, back = read_field_csv(path)
        assert back_grid == g
        np.testing.assert_array_equal(back, field)
