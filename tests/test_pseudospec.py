
import numpy as np
import pytest

from toepspec import pseudospec
from toepspec.errors import ShapeError, SizeLimitError
from toepspec.linalg import SMIN_DIRECT_MAX_N, smallest_singular
from toepspec.matrixgen import NoiseSpec, PerturbationSpec, circulant, jordan, perturbed, sample_noise
from toepspec.pseudospec import (
    GridSpec,
    ScalarField,
    contour_lines,
    smin_field,
    write_field_csv,
)
from toepspec.symbol import parse_symbol

JORDAN = parse_symbol("-1:1")


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ShapeError):
            GridSpec(1, 0, 0, 1, 10, 10)
        with pytest.raises(SizeLimitError):
            GridSpec(0, 1, 0, 1, 4000, 4000)

    def test_nodes(self):
        g = GridSpec(-1, 1, -1, 1, 3, 5)
        np.testing.assert_allclose(g.res(), [-1, 0, 1])
        assert len(g.ims()) == 5


class TestSminField:
    def test_scalar_matrix_gives_abs_z(self):
        g = GridSpec(-1, 1, -1, 1, 11, 11)
        field = smin_field(np.zeros((1, 1), dtype=complex), g)
        for j, y in enumerate(g.ims()):
            for i, x in enumerate(g.res()):
                assert field.values[j * 11 + i] == pytest.approx(abs(complex(x, y)), rel=1e-12, abs=1e-12)

    def test_circulant_normal_oracle(self):
        n = 8
        c = circulant(JORDAN, n)
        spectrum = np.exp(2j * np.pi * np.arange(n) / n)
        g = GridSpec(-2, 2, -2, 2, 41, 41)
        field = smin_field(c, g)
        zs = (g.res()[None, :] + 1j * g.ims()[:, None]).ravel()
        dist = np.min(np.abs(zs[:, None] - spectrum[None, :]), axis=1)
        assert float(np.max(np.abs(field.values - dist))) <= 1e-8

    def test_jordan_zero_is_exact(self):
        assert smallest_singular(0 * np.eye(20) - jordan(20)) == 0.0

    def test_nesting_after_fill(self):
        rng = np.random.default_rng(80)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        field = smin_field(m, GridSpec(-2, 2, -2, 2, 21, 21))
        for e1, e2 in ((0.1, 0.5), (0.5, 1.0)):
            assert not np.any((field.values < e1) & ~(field.values < e2))

    def test_non_normal_field_matches_direct_svd(self):
        # n = 30 > 24 takes the inverse-iteration branch of smallest_singular
        n = 30
        m = jordan(n) + n**-2.0 * sample_noise(NoiseSpec(), n, 83)
        g = GridSpec(-1.5, 1.5, -1.5, 1.5, 9, 9)
        field = smin_field(m, g)
        direct = self.per_node_svd(m, g)
        assert np.max(np.abs(field.values - direct) / direct) <= 1e-8

    @staticmethod
    def per_node_svd(m, g):
        n = m.shape[0]
        zs = [complex(re, im) for im in g.ims() for re in g.res()]
        return np.array([np.linalg.svd(z * np.eye(n) - m, compute_uv=False)[-1] for z in zs])

    @pytest.mark.parametrize("n", [8, 24])
    def test_stacked_field_equals_per_node_svd(self, n):
        m = perturbed(JORDAN, n, PerturbationSpec("poly", gamma=2.0), NoiseSpec(), 5)
        g = GridSpec(-2, 2, -2, 2, 101, 101)
        assert g.nx * g.ny * 16 * n * n >= 2 * pseudospec._STACK_BYTES  # at least two stacks
        assert np.array_equal(smin_field(m, g).values, self.per_node_svd(m, g))

    def test_one_by_one_field_is_abs(self):
        m00 = 0.3 - 0.7j
        g = GridSpec(-1, 1, -1, 1, 11, 11)
        # scalar abs: numpy's array abs differs from it in the last bit at some nodes
        expected = [abs(complex(re, im) - m00) for im in g.ims() for re in g.res()]
        assert np.array_equal(smin_field(np.array([[m00]]), g).values, expected)

    def test_above_direct_size_goes_per_node(self, monkeypatch):
        n = SMIN_DIRECT_MAX_N + 1
        m = perturbed(JORDAN, n, PerturbationSpec("poly", gamma=2.0), NoiseSpec(), 5)
        g = GridSpec(-1.5, 1.5, -1.5, 1.5, 5, 4)
        calls = []
        monkeypatch.setattr(pseudospec, "smallest_singular", lambda a: calls.append(a) or smallest_singular(a))
        values = smin_field(m, g).values
        assert len(calls) == g.nx * g.ny
        direct = self.per_node_svd(m, g)
        assert np.max(np.abs(values - direct) / direct) <= 1e-8

    def test_jordan_interior_lower_bound(self):
        # the rank-one corner perturbation reaches radius r, so s_min at
        # |z| <= 0.88 sits below 2 r^n for r = 0.9, n = 50
        n, r = 50, 0.9
        j = jordan(n)
        g = GridSpec(-1, 1, -1, 1, 61, 61)
        field = smin_field(j, g)
        zs = (g.res()[None, :] + 1j * g.ims()[:, None]).ravel()
        inside = np.abs(zs) <= 0.88
        assert np.all(field.values[inside] < 2 * r**n)


class TestContours:
    def test_circle_level_set(self):
        g = GridSpec(-1, 1, -1, 1, 81, 81)
        zs = (g.res()[None, :] + 1j * g.ims()[:, None]).ravel()
        field = ScalarField(grid=g, values=np.abs(zs))
        polys = contour_lines(field, [0.5])[0]
        assert polys
        pts = np.array([p for poly in polys for p in poly])
        radii = np.hypot(pts[:, 0], pts[:, 1])
        pitch = g.pitch()
        assert np.max(np.abs(radii - 0.5)) <= 2 * pitch

    def test_level_below_min_is_empty(self):
        g = GridSpec(-1, 1, -1, 1, 11, 11)
        field = ScalarField(grid=g, values=np.abs((g.res()[None, :] + 1j * g.ims()[:, None]).ravel()) + 1.0)
        assert contour_lines(field, [0.5])[0] == []

    def test_circulant_level_circles(self):
        n = 8
        c = circulant(JORDAN, n)
        spectrum = np.exp(2j * np.pi * np.arange(n) / n)
        g = GridSpec(-1.6, 1.6, -1.6, 1.6, 101, 101)
        field = smin_field(c, g)
        eps = 0.12
        polys = contour_lines(field, [eps])[0]
        pts = np.array([p for poly in polys for p in poly])
        zs = pts[:, 0] + 1j * pts[:, 1]
        dist = np.min(np.abs(zs[:, None] - spectrum[None, :]), axis=1)
        assert np.max(np.abs(dist - eps)) <= 2 * g.pitch()

    def test_closed_lines_close_on_their_first_vertex(self):
        g = GridSpec(-1.6, 1.6, -1.6, 1.6, 101, 101)
        field = smin_field(circulant(JORDAN, 8), g)
        res, ims, v = g.res(), g.ims(), field.as_matrix()
        levels = [0.12, 0.5]  # 8 circles; an annulus with 2 boundary circles
        for level, polys in zip(levels, contour_lines(field, levels)):
            assert len(polys) >= 2 and all(poly[0] == poly[-1] for poly in polys)
            for x, y in (p for poly in polys for p in poly):
                # each vertex lies on a grid line: linear along it, the field is the level
                on_row = np.flatnonzero(ims == y)
                val = np.interp(x, res, v[on_row[0]]) if len(on_row) else np.interp(y, ims, v[:, res == x].ravel())
                assert abs(val - level) <= 1e-12

    def test_unsorted_levels_rejected(self):
        g = GridSpec(-1, 1, -1, 1, 11, 11)
        field = ScalarField(grid=g, values=np.ones(121))
        with pytest.raises(ShapeError):
            contour_lines(field, [0.5, 0.1])


class TestFieldCsv:
    def test_header_and_shape(self, tmp_path):
        g = GridSpec(0, 1, 0, 1, 3, 2)
        field = ScalarField(grid=g, values=np.arange(6, dtype=float))
        path = tmp_path / "field.csv"
        write_field_csv(field, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "re,im,smin"
        assert len(lines) == 7
        assert lines[1].split(",")[2] == "0.0"


class TestFieldCsvRoundtrip:
    def test_roundtrip(self, tmp_path):
        from toepspec.pseudospec import read_field_csv

        rng = np.random.default_rng(82)
        g = GridSpec(-1.5, 2.5, -0.5, 1.0, 7, 5)
        field = ScalarField(grid=g, values=rng.uniform(0, 3, size=35))
        path = tmp_path / "f.csv"
        write_field_csv(field, path)
        back = read_field_csv(path)
        assert back.grid == g
        np.testing.assert_array_equal(back.values, field.values)
