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
from helpers import corner, jordan, ks_distance, smin_decay_rate
from toepspec import linalg
from toepspec.errors import ConvergenceError, NonFiniteError, ShapeError
from toepspec.linalg import (
    eigenvalues,
    eigenvector,
    lu_logdet,
    smallest_singular,
    svd,
)
from toepspec.matrixgen import NoiseSpec, PerturbationSpec, circulant, perturbed, toeplitz
from toepspec.measures import match_cost
from toepspec.pseudospec import GridSpec
from toepspec.symbol import curve_samples, parse_symbol

TRIDIAG = parse_symbol("-1:1;1:1")


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestLuLogdet:
    def test_identity(self):
        ld = lu_logdet(np.eye(5))
        assert ld[1] == pytest.approx(0.0, abs=1e-14)
        assert ld[0] == pytest.approx(1.0)

    def test_diagonal(self):
        ld = lu_logdet(np.diag([2.0, 3.0]))
        assert ld[1] == pytest.approx(math.log(6))
        assert ld[0] == pytest.approx(1.0)

    def test_nilpotent_is_singular(self):
        ld = lu_logdet(jordan(4))
        assert ld[1] == -math.inf
        assert ld[0] == 0

    def test_matches_slogdet_on_random(self):
        rng = np.random.default_rng(21)
        for n in (3, 10, 40):
            m = random_complex(rng, n)
            ld = lu_logdet(m)
            sign, logdet = np.linalg.slogdet(m)
            assert ld[1] == pytest.approx(logdet, rel=1e-10)
            assert ld[0] == pytest.approx(sign, abs=1e-10)

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
                direct = lu_logdet(m - mu * np.eye(n))[1]
                from_eigs = float(np.sum(np.log(np.abs(eigs - mu))))
                assert from_eigs == pytest.approx(direct, rel=1e-6)


def _matched_max(xs, ys) -> float:
    """Largest |x - y| over the optimal pairing of two equal-size point sets."""
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(np.asarray(xs)[:, None] - np.asarray(ys)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _real_ensemble(symbol, n, noise, pert, seed=5):
    m = perturbed(parse_symbol(symbol), n, pert, NoiseSpec(noise), seed)
    assert m.dtype == complex and not m.imag.any()
    return m


class TestRealEigenvalues:
    """A matrix with no imaginary part is solved in real arithmetic (dgeev)."""

    def test_all_real_spectrum_is_complex128(self):
        # T_12 of 2 cos(theta): eigenvalues 2 cos(pi j / 13), all real, so
        # dgeev returns a float array that eigenvalues casts back
        n = 12
        eigs = eigenvalues(perturbed(TRIDIAG, n, PerturbationSpec("none"), NoiseSpec(), 0))
        assert eigs.dtype == np.complex128
        exact = 2 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
        np.testing.assert_allclose(np.sort(eigs.real), np.sort(exact), atol=1e-14)
        assert not eigs.imag.any()

    def test_spectrum_exactly_closed_under_conjugation(self):
        eigs = eigenvalues(_real_ensemble("-1:1", 60, "rademacher", PerturbationSpec("poly", 1)))
        assert eigs.imag.any()
        np.testing.assert_array_equal(np.sort_complex(eigs), np.sort_complex(eigs.conj()))

    def test_real_and_complex_solves_agree(self):
        n = 200
        m = _real_ensemble("-1:1", n, "rademacher", PerturbationSpec("poly", 1))
        bound = 1e3 * np.finfo(float).eps * n * np.linalg.norm(m, 2)
        assert _matched_max(eigenvalues(m), np.linalg.eigvals(m)) <= bound

    @pytest.mark.parametrize(
        "symbol, n, noise, pert",
        [
            ("-1:1", 20, "rademacher", PerturbationSpec("poly", 2)),
            ("-1:1;1:0.5", 24, "real_gaussian", PerturbationSpec("poly", 1)),
            # unscaled: r^24 ~ 6e-8 sits above the solver's floor
            ("-1:1", 24, "uniform_pm", PerturbationSpec("exp", 0.5)),
        ],
        ids=["rademacher_jordan", "real_gaussian_tridiagonal", "uniform_pm_exp"],
    )
    def test_against_mpmath(self, symbol, n, noise, pert):
        mpmath = pytest.importorskip("mpmath")
        m = _real_ensemble(symbol, n, noise, pert)
        with mpmath.workdps(50):
            ref = [complex(x) for x in mpmath.eig(mpmath.matrix(m.real.tolist()), left=False, right=False)]
        assert _matched_max(eigenvalues(m), ref) <= 1e-12

    def test_tiny_imaginary_part_keeps_the_complex_solve(self):
        m = _real_ensemble("-1:1", 40, "rademacher", PerturbationSpec("poly", 1))
        m[0, -1] += 1e-300j
        np.testing.assert_array_equal(eigenvalues(m), np.linalg.eigvals(m))
        # the two solvers differ in the last bits, so the check above sees the path
        assert not np.array_equal(eigenvalues(m.real), np.linalg.eigvals(m))


class TestSvd:
    def test_values_nondecreasing(self):
        res = svd(np.diag([3.0, 1e-2]))
        np.testing.assert_allclose(res, [0.01, 3.0])

    def test_jordan_singular_values(self):
        res = svd(jordan(5))
        np.testing.assert_allclose(res, [0, 1, 1, 1, 1], atol=1e-12)

    def test_circulant_all_ones(self):
        res = svd(circulant(parse_symbol("-1:1"), 6))
        np.testing.assert_allclose(res, np.ones(6), atol=1e-12)

    def test_triplet_relations_and_unitarity(self):
        rng = np.random.default_rng(23)
        m = random_complex(rng, 25)
        res = svd(m, want_vectors=True)
        s, f, e = res
        scale = np.linalg.norm(m, 2)
        assert np.max(np.abs(m @ e - f * s[None, :])) <= 1e-8 * scale
        assert np.max(np.abs(m.conj().T @ f - e * s[None, :])) <= 1e-8 * scale
        assert np.max(np.abs(e.conj().T @ e - np.eye(25))) <= 1e-8
        assert np.max(np.abs(f.conj().T @ f - np.eye(25))) <= 1e-8

    def test_hilbert_schmidt_consistency(self):
        rng = np.random.default_rng(24)
        for n in (5, 30):
            m = random_complex(rng, n)
            s = svd(m)
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
            slow = float(svd(m)[0])
            assert fast == pytest.approx(slow, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 8, 30])
    @pytest.mark.parametrize("entry", [math.inf, math.nan, complex(1.0, math.inf)])
    def test_non_finite_entry_raises(self, n, entry):
        # no 0.0, NaN or inf for a matrix that has none of them as its s_min
        m = np.eye(n, dtype=complex)
        m[n - 1, 0] = entry
        with pytest.raises(NonFiniteError, match="inf or NaN"):
            smallest_singular(m)

    def test_near_singular(self):
        m = np.diag([1.0, 1e-13]).astype(complex)
        assert smallest_singular(m) == pytest.approx(1e-13, rel=1e-6, abs=0)

    def test_bidiagonal_jordan_below_the_floor(self):
        # s_min = 9.0e-21, far below eps ||A||; the plain SVD of a bidiagonal
        # matrix keeps its relative accuracy there
        a = toeplitz(parse_symbol("-1:1"), 40) - (0.3 + 0.1j) * np.eye(40)
        exact = float(np.linalg.svd(a, compute_uv=False)[-1])
        assert abs(smallest_singular(a) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize(
        "symbol, n, z",
        [
            ("-1:1;-2:0.4", 40, 0.2 + 0.2j),
            ("1:1;2:0.5", 36, -0.1 + 0.25j),
            ("-1:1;-3:0.5", 40, 0.1 + 0.4j),
            ("-1:0.1;2:1", 40, 0.2 + 0.1j),
        ],
    )
    def test_banded_below_the_floor_against_mpmath(self, symbol, n, z):
        # s_min = 1 / ||A^{-1}||, the inverse taken at 80 digits: true values
        # 5.6e-24 to 1.8e-13, where the plain SVD is off by up to 1.4e3
        mpmath = pytest.importorskip("mpmath")
        a = toeplitz(parse_symbol(symbol), n) - z * np.eye(n)
        with mpmath.workdps(80):
            inv = np.array(mpmath.inverse(mpmath.matrix(a.tolist())).tolist(), dtype=complex)
        exact = 1.0 / float(np.linalg.svd(inv, compute_uv=False)[0])
        assert abs(smallest_singular(a) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize(
        "symbol, z, n", [("-1:1;-2:0.4", 0.2 + 0.2j, 100), ("-1:1;-2:0.4", 0.2 + 0.2j, 130), ("-1:1", 0.6 + 0.2j, 200)]
    )
    def test_decay_rate_past_the_norm_overflow(self, symbol, z, n):
        # ||w|| ~ 1 / s_min^2 overflows numpy's 2-norm once s_min < ~1e-77 (from
        # n = 140 and n = 390 here), a finite w and no singular matrix: the slope
        # of log s_min between n and 2n still follows the root law
        sym = parse_symbol(symbol)
        s = [smallest_singular(toeplitz(sym, k) - z * np.eye(k)) for k in (n, 2 * n)]
        assert 0.0 < s[1] < 1e-77
        slope = (math.log(s[1]) - math.log(s[0])) / n
        assert slope == pytest.approx(smin_decay_rate(sym, z), rel=1e-3)


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

    def shifted(self, z, symbol="-1:1"):
        m = perturbed(parse_symbol(symbol), self.N, PerturbationSpec("poly", 2.0), NoiseSpec(), 1)
        return z * np.eye(self.N) - m

    def test_slow_contraction_takes_the_svd_early(self, solve_pairs):
        # off the nearly normal tridiagonal's spectrum s_min and s_2 nearly tie
        # ((s_1/s_2)^2 = 0.9992 per iterate), so the iteration would crawl through
        # all its iterates before falling back; |z| < 2 leaves no dominance certificate
        a = self.shifted(1.5j, "-1:1;1:1")
        s = smallest_singular(a)
        assert 3 <= solve_pairs() <= 8
        assert s == float(np.linalg.svd(a, compute_uv=False)[-1])

    def test_fast_contraction_returns_the_iterate(self, solve_pairs):
        a = self.shifted(0.3)
        s = smallest_singular(a)
        assert solve_pairs() == 3
        assert s == pytest.approx(float(np.linalg.svd(a, compute_uv=False)[-1]), rel=1e-9)


class TestSminCertificate:
    """Varah's bound s_min >= sqrt(a b) sends a well dominant matrix straight to the SVD."""

    @staticmethod
    def margins(m):
        """(a, b): the smallest row and column margins 2 |m_ii| - sum_j |m_ij|."""
        mag = np.abs(m)
        d = 2 * np.diag(mag)
        return float((d - mag.sum(axis=1)).min()), float((d - mag.sum(axis=0)).min())

    @pytest.fixture
    def factors(self, monkeypatch):
        """The matrices that smallest_singular factors."""
        calls = []
        real = linalg._lu_factor
        monkeypatch.setattr(linalg, "_lu_factor", lambda a: calls.append(a) or real(a))
        return calls

    @staticmethod
    def dominant(rng, n, lo, hi):
        # Gaussian off-diagonal entries; each diagonal entry has a random phase and
        # exceeds both off-diagonal sums of its row and column by a margin in [lo, hi)
        m = random_complex(rng, n)
        np.fill_diagonal(m, 0.0)
        mag = np.abs(m)
        radius = np.maximum(mag.sum(axis=0), mag.sum(axis=1)) + rng.uniform(lo, hi, n)
        np.fill_diagonal(m, radius * np.exp(2j * np.pi * rng.random(n)))
        return m

    @classmethod
    def certified(cls, m):
        a, b = cls.margins(m)
        eps = np.finfo(float).eps
        return a > 0 and b > 0 and m.shape[0] * eps * np.linalg.norm(m) <= linalg._SMIN_RTOL * math.sqrt(a * b)

    @pytest.mark.parametrize("n", [25, 40, 80])
    def test_varah_bound(self, n):
        rng = np.random.default_rng(n)
        for lo, hi in ((1e-3, 1e-2), (0.1, 1.0), (1.0, 10.0)):
            m = self.dominant(rng, n, lo, hi)
            a, b = self.margins(m)
            assert a > 0 and b > 0
            assert np.linalg.svd(m, compute_uv=False)[-1] >= math.sqrt(a * b)

    def test_certified_matrix_is_not_factored(self, factors):
        m = self.dominant(np.random.default_rng(5), 50, 1.0, 2.0)
        assert self.certified(m)
        s = smallest_singular(m)
        assert factors == []
        assert s == np.linalg.svd(m, compute_uv=False)[-1]

    def test_only_a_fallback_calls_svd(self, monkeypatch):
        # a certified node reads the direct SVD as the n <= 24 branch does, so every
        # linalg.svd call inside smallest_singular is a fall-back
        calls = []
        real = linalg.svd
        monkeypatch.setattr(linalg, "svd", lambda m, *args: calls.append(m) or real(m, *args))
        m = self.dominant(np.random.default_rng(5), 50, 1.0, 2.0)
        assert self.certified(m)
        smallest_singular(m)
        assert calls == []
        smallest_singular(TestSminEarlyExit().shifted(1.5j, "-1:1;1:1"))
        assert len(calls) == 1

    @pytest.mark.parametrize("case", ["jordan_inside", "thin_margin", "non_finite"])
    def test_uncertified_matrix_factors_and_iterates(self, case, factors):
        if case == "jordan_inside":
            m = 0.5 * np.eye(50) - jordan(50)
        else:
            m = self.dominant(np.random.default_rng(6), 50, 1e-5, 2e-5)
            assert min(self.margins(m)) > 0
            if case == "non_finite":
                m[3, 7] = math.inf
        assert not self.certified(m)
        if case == "non_finite":
            # the factor carries the inf: refused, where a solve would read it as singular
            with pytest.raises(NonFiniteError, match="inf or NaN"):
                smallest_singular(m)
            assert len(factors) == 1
            return
        s = smallest_singular(m)
        assert len(factors) == 1
        assert s == pytest.approx(float(np.linalg.svd(m, compute_uv=False)[-1]), rel=1e-9)

    def test_benchmark_field_against_mpmath(self):
        # certified nodes of the n = 50 perturbed Jordan field on the 15 x 15 grid
        # over [-2, 2]^2: the iteration stopped at ~1e-10 relative error there,
        # 40-digit singular values put the direct SVD within rounding
        mpmath = pytest.importorskip("mpmath")
        m = perturbed(parse_symbol("-1:1"), 50, PerturbationSpec("poly", 2.0), NoiseSpec(), 1)
        g = GridSpec(-2.0, 2.0, -2.0, 2.0, 15, 15)
        for i, j in ((6, 3), (8, 3)):
            a = g.nodes()[j, i] * np.eye(50) - m
            assert self.certified(a)
            with mpmath.workdps(40):
                exact = float(min(mpmath.svd_c(mpmath.matrix(a.tolist()), compute_uv=False)))
            assert abs(smallest_singular(a) - exact) <= 1e-14 * exact


class TestRawLapackLu:
    """smallest_singular calls zgetrf/zgetrs directly and eigenvector np.linalg.solve; scipy's wrappers are the reference."""

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
            nw = np.linalg.norm(w)
            s_est = 1.0 / math.sqrt(nw)
            d = abs(s_est - s_prev)
            tol = linalg._SMIN_RTOL * max(s_est, 1e-300)
            if d <= tol:
                return s_est
            if k >= 2 and (d >= d_prev or d * (d / d_prev) ** (linalg._SMIN_MAX_ITER - 1 - k) > tol):
                break
            s_prev, d_prev = s_est, d
            v = w / nw
        return float(np.linalg.svd(m, compute_uv=False)[-1])

    @staticmethod
    def reference_eigenvector(m, lam):
        n = m.shape[0]
        lu, piv = sla.lu_factor(m - complex(lam) * np.eye(n), check_finite=False)
        v = linalg._start_vector(linalg._EIGVEC_KEY, n)
        tol = 1e-6 * float(np.linalg.norm(m)) / math.sqrt(n)
        for _ in range(50):  # a general inverse iteration: the kernel must stop at its first step
            w = sla.lu_solve((lu, piv), v, trans=0, check_finite=False)
            v = w / np.linalg.norm(w)
            if float(np.linalg.norm(m @ v - lam * v)) <= tol:
                return v
        raise AssertionError("reference inverse iteration did not converge")

    @pytest.mark.parametrize("n", [30, 40])
    def test_lu_logdet_matches_mpmath(self, n):
        mpmath = pytest.importorskip("mpmath")
        m = random_complex(np.random.default_rng(n), n)
        with mpmath.workdps(30):
            det = mpmath.det(mpmath.matrix(m.tolist()))
            log_abs, phase = float(mpmath.log(abs(det))), complex(det / abs(det))
        ld = lu_logdet(m)
        assert abs(ld[1] - log_abs) <= 1e-13 * abs(log_abs)
        assert abs(ld[0] - phase) <= 1e-13

    @pytest.mark.parametrize("n", [30, 100])
    def test_eigenvector_equals_scipy_reference(self, n):
        m = random_complex(np.random.default_rng(n + 1), n)
        lam = eigenvalues(m)[0]
        assert np.array_equal(eigenvector(m, lam), self.reference_eigenvector(m, lam))

    @pytest.mark.parametrize("n", [30, 100])
    def test_smallest_singular_equals_scipy_reference(self, n):
        # one matrix whose iterate converges and one that falls back to the SVD
        fast = random_complex(np.random.default_rng(n + 2), n)
        slow = 1.5j * np.eye(n) - perturbed(TRIDIAG, n, PerturbationSpec("poly", 2.0), NoiseSpec(), 1)
        for m in (fast, slow):
            assert smallest_singular(m) == self.reference_smin(m)

    def test_exact_singularity_is_silent(self):
        m = np.ones((30, 30), dtype=complex)
        m[:, 0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lu_logdet(m) == (0j, -math.inf)
            assert smallest_singular(m) == 0.0


class TestStartVector:
    """The start vector is drawn once per (key, n) and shared read-only."""

    def test_one_read_only_array_per_key_and_size(self):
        v = linalg._start_vector(linalg._SMIN_KEY, 40)
        assert linalg._start_vector(linalg._SMIN_KEY, 40) is v
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 0.0

    @pytest.mark.parametrize("key", [linalg._SMIN_KEY, linalg._EIGVEC_KEY])
    def test_bits_of_a_fresh_philox_draw(self, key):
        rng = np.random.Generator(np.random.Philox(key=key))
        w = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        w = w / np.linalg.norm(w)
        assert np.array_equal(linalg._start_vector(key, 33), w)

    def test_cold_and_warm_cache_agree(self):
        n = 50
        m = random_complex(np.random.default_rng(61), n)
        lam = eigenvalues(m)[0]
        linalg._start_vector.cache_clear()
        cold = (eigenvector(m, lam), smallest_singular(m))
        warm = (eigenvector(m, lam), smallest_singular(m))
        assert np.array_equal(cold[0], warm[0]) and cold[1] == warm[1]


_OPENBLAS_THREADS = textwrap.dedent(
    """
    import ctypes, glob, json, sys
    from pathlib import Path

    import toepspec.symbol
    import numpy, scipy

    # _flapack, which links scipy's copy, loads with the first smallest_singular
    # above n = 24: after the pin, and without the scipy.linalg package
    assert "scipy.linalg._flapack" not in sys.modules
    toepspec.linalg.smallest_singular(numpy.diag(numpy.ones(29), 1))  # no dominance certificate: it factors
    assert "scipy.linalg._flapack" in sys.modules and "scipy.linalg" not in sys.modules

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


_ONE_COPY = textwrap.dedent(
    """
    import importlib.machinery, json, sys

    from toepspec.linalg import lapack_lu, scipy_extension
    from toepspec.measures import match_cost

    if sys.argv[1] == "fallback":
        importlib.machinery.EXTENSION_SUFFIXES = []  # no extension file is found
    match_cost([0, 1], [1, 0])
    zgetrf, zgetrs = lapack_lu()
    lsap = scipy_extension("optimize", "_lsap").linear_sum_assignment
    loaded = sorted(m for m in ("scipy.linalg", "scipy.optimize") if m in sys.modules)

    import scipy.linalg, scipy.optimize

    pair = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), dtype="complex128")
    print(json.dumps([loaded, [
        scipy.optimize.linear_sum_assignment is lsap,
        scipy.linalg.lapack.zgetrf is zgetrf and scipy.linalg.lapack.zgetrs is zgetrs,
        pair[0] is zgetrf and pair[1] is zgetrs,
        all(sys.modules[f"scipy.{m}"] is scipy_extension(*m.split(".")) for m in ("linalg._flapack", "optimize._lsap")),
    ]]))
    """
)


@pytest.mark.parametrize("mode, packages", [("file", []), ("fallback", ["scipy.linalg", "scipy.optimize"])])
def test_scipy_extension_is_the_packages_own_kernel(mode, packages):
    # a fresh interpreter, so this process's own scipy imports cannot mask a second copy;
    # loaded from its file or, with none found, through the package, each kernel is the
    # package's, and the package finds the loaded module rather than loading its own
    src = str(Path(toepspec.__file__).resolve().parent.parent)
    argv = [sys.executable, "-c", _ONE_COPY, mode]
    out = subprocess.run(argv, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [packages, [True, True, True, True]]


def _count_solves(monkeypatch) -> list:
    """Record every np.linalg.solve call from here on; returns the record."""
    calls, solve = [], np.linalg.solve

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


class TestEigenvector:
    def test_diagonal(self, monkeypatch):
        # an exact eigenvalue: the singular solve is nudged off once, then solved
        solves = _count_solves(monkeypatch)
        v = eigenvector(np.diag([2.0, 5.0]), 2.0)
        assert len(solves) == 2
        assert abs(v[0]) == pytest.approx(1.0)
        assert abs(v[1]) == pytest.approx(0.0, abs=1e-10)

    def test_a_missed_contract_raises_after_one_solve(self, monkeypatch):
        # 1.5 is no eigenvalue: the one solve leaves a residual far above 1e-6 ||m||
        solves = _count_solves(monkeypatch)
        with pytest.raises(ConvergenceError, match=r"one shifted solve left residual \d\.\d{3}e[+-]\d+ \(tol"):
            eigenvector(np.diag([1.0, 2.0, 3.0]), 1.5)
        assert len(solves) == 1

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
        s = svd(m)
        theta = (np.arange(10_000) + 0.5) * 2 * np.pi / 10_000
        quad = np.abs(curve_samples(TRIDIAG, 10_000) - z)
        assert ks_distance(s, quad) <= 0.05
