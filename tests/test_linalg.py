import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import toepspec
from helpers import corner, jordan, ks_distance
from toepspec import linalg
from toepspec.errors import NonFiniteError, ShapeError
from toepspec.linalg import (
    LogDet,
    eigenvalues,
    eigenvector,
    lu_logdet,
    smallest_singular,
    svd,
)
from toepspec.matrixgen import NoiseSpec, PerturbationSpec, circulant, perturbed, toeplitz
from toepspec.measures import match_cost
from toepspec.symbol import curve_samples, parse_symbol

TRIDIAG = parse_symbol("-1:1;1:1")


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestLuLogdet:
    def test_identity(self):
        ld = lu_logdet(np.eye(5))
        assert ld.log_abs == pytest.approx(0.0, abs=1e-14)
        assert ld.phase == pytest.approx(1.0)

    def test_diagonal(self):
        ld = lu_logdet(np.diag([2.0, 3.0]))
        assert ld.log_abs == pytest.approx(math.log(6))
        assert ld.phase == pytest.approx(1.0)

    def test_nilpotent_is_singular(self):
        ld = lu_logdet(jordan(4))
        assert ld.log_abs == -math.inf
        assert ld.phase == 0

    def test_matches_slogdet_on_random(self):
        rng = np.random.default_rng(21)
        for n in (3, 10, 40):
            m = random_complex(rng, n)
            ld = lu_logdet(m)
            sign, logdet = np.linalg.slogdet(m)
            assert ld.log_abs == pytest.approx(logdet, rel=1e-10)
            assert ld.phase == pytest.approx(sign, abs=1e-10)

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeError):
            lu_logdet(np.ones((2, 3)))


class TestEigenvalues:
    def test_diagonal(self):
        eigs = eigenvalues(np.diag([1.0, 2.0j, -3.0]))
        assert sorted(eigs, key=lambda z: z.real) == pytest.approx([-3, 2j, 1])

    def test_companion_of_quadratic(self):
        # zeta^2 - 3 zeta + 1
        comp = np.array([[0, -1.0], [1, 3.0]], dtype=complex)
        eigs = np.sort(np.abs(eigenvalues(comp)))
        assert eigs == pytest.approx([0.3819660113, 2.6180339887], abs=1e-8)

    def test_corner_perturbed_jordan_radius(self):
        n, eps = 50, 1e-4
        eigs = eigenvalues(jordan(n) + corner(n, eps))
        np.testing.assert_allclose(np.abs(eigs), 10 ** (-4 / 50), atol=1e-8)

    def test_scaled_corner_jordan_below_double_precision(self):
        # coupling 0.5^200 ~ 6e-61: only the similar matrix D^-1 M D,
        # D = diag(0.5^i), lifts the corner to 0.5 and shows the corner law
        n, eps = 200, 0.5**200
        m = jordan(n) + corner(n, eps)
        idx = np.arange(n)
        scaled = m * 0.5 ** (idx[None, :] - idx[:, None])
        targets = eps ** (1 / n) * np.exp(2j * np.pi * np.arange(n) / n)
        assert match_cost(eigenvalues(scaled), targets) <= 1e-7
        assert match_cost(eigenvalues(m), targets) > 0.1

    def test_logdet_residual_against_lu(self):
        rng = np.random.default_rng(22)
        for n in (10, 60, 100):
            m = random_complex(rng, n)
            eigs = eigenvalues(m)
            for _ in range(20):
                mu = complex(rng.normal(), rng.normal()) * 2
                direct = lu_logdet(m - mu * np.eye(n)).log_abs
                from_eigs = float(np.sum(np.log(np.abs(eigs - mu))))
                assert from_eigs == pytest.approx(direct, rel=1e-6)


class TestSvd:
    def test_values_nondecreasing(self):
        res = svd(np.diag([3.0, 1e-2]))
        np.testing.assert_allclose(res.singular_values, [0.01, 3.0])

    def test_jordan_singular_values(self):
        res = svd(jordan(5))
        np.testing.assert_allclose(res.singular_values, [0, 1, 1, 1, 1], atol=1e-12)

    def test_circulant_all_ones(self):
        res = svd(circulant(parse_symbol("-1:1"), 6))
        np.testing.assert_allclose(res.singular_values, np.ones(6), atol=1e-12)

    def test_triplet_relations_and_unitarity(self):
        rng = np.random.default_rng(23)
        m = random_complex(rng, 25)
        res = svd(m, want_vectors=True)
        s, e, f = res.singular_values, res.right_vectors, res.left_vectors
        scale = np.linalg.norm(m, 2)
        assert np.max(np.abs(m @ e - f * s[None, :])) <= 1e-8 * scale
        assert np.max(np.abs(m.conj().T @ f - e * s[None, :])) <= 1e-8 * scale
        assert np.max(np.abs(e.conj().T @ e - np.eye(25))) <= 1e-8
        assert np.max(np.abs(f.conj().T @ f - np.eye(25))) <= 1e-8

    def test_hilbert_schmidt_consistency(self):
        rng = np.random.default_rng(24)
        for n in (5, 30):
            m = random_complex(rng, n)
            s = svd(m).singular_values
            assert float(np.sum(s**2)) == pytest.approx(
                float(np.linalg.norm(m) ** 2), rel=1e-8
            )


class TestSmallestSingular:
    def test_exactly_singular(self):
        assert smallest_singular(np.array([[1.0, 0], [0, 0]])) == 0.0

    def test_diagonal(self):
        assert smallest_singular(np.diag([5.0, 0.3])) == pytest.approx(0.3, rel=1e-8)

    def test_circulant_distance(self):
        c = circulant(parse_symbol("-1:1"), 8)
        z = 1.5
        smin = smallest_singular(z * np.eye(8) - c)
        roots = np.exp(2j * np.pi * np.arange(8) / 8)
        assert smin == pytest.approx(float(np.min(np.abs(z - roots))), rel=1e-10)

    def test_agrees_with_svd_on_random(self):
        rng = np.random.default_rng(25)
        for n in (3, 12, 40, 80):
            m = random_complex(rng, n)
            fast = smallest_singular(m)
            slow = float(svd(m).singular_values[0])
            assert fast == pytest.approx(slow, rel=1e-6, abs=1e-12)

    def test_near_singular(self):
        m = np.diag([1.0, 1e-13]).astype(complex)
        assert smallest_singular(m) == pytest.approx(1e-13, rel=1e-6)


class TestSminEarlyExit:
    N = 50

    @pytest.fixture
    def solve_pairs(self, monkeypatch):
        """Counts the (A, A*) LU-solve pairs that smallest_singular makes."""
        calls = []
        real = linalg._lu_solve

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(linalg, "_lu_solve", counted)
        return lambda: len(calls) // 2

    def shifted(self, z):
        m = perturbed(parse_symbol("-1:1"), self.N, PerturbationSpec("poly", gamma=2.0), NoiseSpec(), 1)
        return z * np.eye(self.N) - m

    def test_slow_contraction_takes_the_svd_early(self, solve_pairs):
        # outside the Jordan curve s_min and s_2 nearly tie ((s_1/s_2)^2 = 0.94
        # per iterate), so the iteration would crawl through all its iterates
        # before falling back
        a = self.shifted(1.5)
        s = smallest_singular(a)
        assert solve_pairs() <= 8
        assert s == float(np.linalg.svd(a, compute_uv=False)[-1])

    def test_fast_contraction_returns_the_iterate(self, solve_pairs):
        a = self.shifted(0.3)
        s = smallest_singular(a)
        assert solve_pairs() == 3
        assert s == pytest.approx(float(np.linalg.svd(a, compute_uv=False)[-1]), rel=1e-9)


class TestRawLapackLu:
    """The LU kernels call zgetrf/zgetrs directly; scipy's wrappers are the reference."""

    @staticmethod
    def reference_smin(m):
        # the smallest_singular iteration, spelled with scipy.linalg.lu_factor/lu_solve
        n = m.shape[0]
        lu, piv = sla.lu_factor(m, check_finite=False)
        v = linalg._start_vector(linalg._SMIN_KEY, n)
        s_prev = d_prev = math.inf
        for k in range(linalg._SMIN_MAX_ITER):
            u = sla.lu_solve((lu, piv), v, trans=0, check_finite=False)
            w = sla.lu_solve((lu, piv), u, trans=2, check_finite=False)
            f = w / np.linalg.norm(w)
            s_est = float(np.linalg.norm(m.conj().T @ f))
            d = abs(s_est - s_prev)
            tol = linalg._SMIN_RTOL * max(s_est, 1e-300)
            if d <= tol:
                return s_est
            if k >= 2 and (d >= d_prev or d * (d / d_prev) ** (linalg._SMIN_MAX_ITER - 1 - k) > tol):
                break
            s_prev, d_prev = s_est, d
            v = f
        return float(np.linalg.svd(m, compute_uv=False)[-1])

    @staticmethod
    def reference_eigenvector(m, lam):
        n = m.shape[0]
        lu, piv = sla.lu_factor(m - complex(lam) * np.eye(n), check_finite=False)
        v = linalg._start_vector(linalg._EIGVEC_KEY, n)
        tol = 1e-6 * float(np.linalg.norm(m)) / math.sqrt(n)
        for _ in range(linalg._EIGVEC_MAX_ITER):
            w = sla.lu_solve((lu, piv), v, trans=0, check_finite=False)
            v = w / np.linalg.norm(w)
            if float(np.linalg.norm(m @ v - lam * v)) <= tol:
                return v
        raise AssertionError("reference inverse iteration did not converge")

    @pytest.mark.parametrize("n", [30, 100])
    def test_lu_logdet_equals_scipy_reference(self, n):
        m = random_complex(np.random.default_rng(n), n)
        lu, piv = sla.lu_factor(m, check_finite=False)
        diag = np.diag(lu)
        phase = complex(np.prod(diag / np.abs(diag)))
        if int(np.sum(piv != np.arange(n))) % 2:
            phase = -phase
        assert lu_logdet(m) == LogDet(float(np.sum(np.log(np.abs(diag)))), phase)

    @pytest.mark.parametrize("n", [30, 100])
    def test_eigenvector_equals_scipy_reference(self, n):
        m = random_complex(np.random.default_rng(n + 1), n)
        lam = eigenvalues(m)[0]
        assert np.array_equal(eigenvector(m, lam), self.reference_eigenvector(m, lam))

    @pytest.mark.parametrize("n", [30, 100])
    def test_smallest_singular_equals_scipy_reference(self, n):
        # one matrix whose iterate converges and one that falls back to the SVD
        fast = random_complex(np.random.default_rng(n + 2), n)
        slow = 1.5 * np.eye(n) - perturbed(parse_symbol("-1:1"), n, PerturbationSpec("poly", gamma=2.0), NoiseSpec(), 1)
        for m in (fast, slow):
            assert smallest_singular(m) == self.reference_smin(m)

    def test_exact_singularity_is_silent(self):
        m = np.ones((30, 30), dtype=complex)
        m[:, 0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lu_logdet(m) == LogDet(-math.inf, 0j)
            assert smallest_singular(m) == 0.0


_OPENBLAS_THREADS = textwrap.dedent(
    """
    import ctypes, glob, json
    from pathlib import Path

    import toepspec.symbol
    import numpy, scipy

    def threads(package, libdir, pattern, symbol):
        base = Path(package.__file__).resolve().parent.parent / libdir
        for path in sorted(glob.glob(str(base / pattern))):
            try:
                fn = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
        return None

    print(json.dumps([
        threads(numpy, "numpy.libs", "libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
        threads(scipy, "scipy.libs", "libscipy_openblas-*.so", "scipy_openblas_get_num_threads"),
    ]))
    """
)


def test_bare_import_runs_openblas_on_one_thread():
    src = str(Path(toepspec.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _OPENBLAS_THREADS], env=env, capture_output=True, text=True, check=True)
    counts = json.loads(out.stdout)
    if None in counts:
        pytest.skip(f"a bundled OpenBLAS copy was not found: {counts}")
    assert counts == [1, 1]


class TestEigenvector:
    def test_diagonal(self):
        v = eigenvector(np.diag([2.0, 5.0]), 2.0)
        assert abs(v[0]) == pytest.approx(1.0)
        assert abs(v[1]) == pytest.approx(0.0, abs=1e-10)

    def test_corner_perturbed_jordan_geometric(self):
        n = 8
        m = jordan(n) + corner(n, 2.0**-n)
        lam = eigenvalues(m)
        lam0 = lam[np.argmin(np.abs(lam - 0.5))]
        v = eigenvector(m, lam0)
        # rows i: v_{i+1} = lam v_i, last row: eps v_1 = lam v_n
        assert np.linalg.norm(m @ v - lam0 * v) <= 1e-8
        ratios = v[1:] / v[:-1]
        np.testing.assert_allclose(ratios, lam0, rtol=1e-6)

    def test_circulant_fourier_vector(self):
        c = circulant(parse_symbol("-1:1"), 4)
        v = eigenvector(c, 1j)
        expect = np.array([1, 1j, -1, -1j]) / 2
        overlap = abs(np.vdot(v, expect))
        assert overlap == pytest.approx(1.0, abs=1e-8)

    def test_overflowing_norm_raises(self):
        # finite entries whose Frobenius norm overflows leave no residual contract to meet
        with pytest.raises(NonFiniteError, match="norm overflows"):
            eigenvector(np.diag([1e308, 1e308]), 1e308)


class TestAvramParter:
    def test_singular_value_law(self):
        # empirical singular values of the shifted tridiagonal matrix against
        # quadrature samples of |a(u) - z|
        n, z = 400, 3.0
        m = toeplitz(TRIDIAG, n) - z * np.eye(n)
        s = svd(m).singular_values
        theta = (np.arange(10_000) + 0.5) * 2 * np.pi / 10_000
        quad = np.abs(curve_samples(TRIDIAG, 10_000) - z)
        assert ks_distance(s, quad) <= 0.05
