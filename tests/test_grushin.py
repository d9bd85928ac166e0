import math

import numpy as np
import pytest

from toepspec import grushin, linalg
from toepspec.errors import AmbiguousCutError, CouplingTooLargeError, ShapeError
from toepspec.experiments import ExperimentConfig, run
from toepspec.grushin import (
    build,
    equivalence_gap,
    perturbed_blocks,
    truncated_logdet,
)
from toepspec.linalg import lu_logdet, smallest_singular, svd
from toepspec.matrixgen import NoiseSpec, PerturbationSpec, sample_noise, task_seed, toeplitz
from toepspec.symbol import parse_symbol

TRIDIAG = parse_symbol("-1:1;1:1")


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_unitary(rng, n):
    q, _ = np.linalg.qr(random_complex(rng, n))
    return q


class TestBuild:
    def test_diagonal_example(self):
        g = build(np.diag([0.1, 2.0, 3.0]), alpha=1.0)
        assert g.m_cut == 1
        assert lu_logdet(g.p_matrix())[1] == pytest.approx(math.log(6), rel=1e-10)
        assert np.linalg.norm(g.e_mp, 2) == pytest.approx(0.1, abs=1e-12)

    def test_unitary_cut_zero(self):
        rng = np.random.default_rng(50)
        u = random_unitary(rng, 6)
        g = build(u, alpha=0.5)
        assert g.m_cut == 0
        np.testing.assert_allclose(g.p_matrix(), u, atol=1e-14)
        np.testing.assert_allclose(g.e_block, u.conj().T, atol=1e-10)

    def test_ambiguous_cut(self):
        with pytest.raises(AmbiguousCutError):
            build(np.diag([0.5, 2.0]), alpha=0.5)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            build(np.ones((2, 3)), alpha=0.5)

    def test_invariants_on_random_matrices(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            n = int(rng.integers(5, 61))
            a = random_complex(rng, n)
            s = np.linalg.svd(a, compute_uv=False)
            lo, hi = s.min(), s.max()
            alpha = float(rng.uniform(lo, hi))
            try:
                g = build(a, alpha)
            except AmbiguousCutError:
                g = build(a, alpha * (1 + 1e-6))
            m = g.m_cut
            # norm estimates
            assert np.linalg.norm(g.e_block, 2) <= 1.0 / g.alpha + 1e-10
            if m >= 1:
                assert np.linalg.norm(g.e_plus, 2) == pytest.approx(1.0, abs=1e-10)
                assert np.linalg.norm(g.e_minus, 2) == pytest.approx(1.0, abs=1e-10)
                assert np.linalg.norm(g.e_mp, 2) <= g.alpha + 1e-12
            # inverse identity
            p, e = g.p_matrix(), g.e_matrix()
            assert np.max(np.abs(p @ e - np.eye(n + m))) <= 1e-10 * max(1.0, np.abs(a).max())
            # block determinant identity, in log form
            expect = float(np.sum(np.log(g.singular_values[m:])))
            got = lu_logdet(p)[1]
            assert abs(got - expect) <= 1e-8 * max(1.0, abs(expect))


class TestPerturbedBlocks:
    def test_zero_delta_is_identity(self):
        rng = np.random.default_rng(52)
        a = random_complex(rng, 10)
        g = build(a, alpha=float(np.median(np.abs(np.linalg.svd(a, compute_uv=False)))))
        q = random_complex(rng, 10)
        pb = perturbed_blocks(g, q, 0.0)
        np.testing.assert_array_equal(pb.e_block, g.e_block)
        np.testing.assert_array_equal(pb.e_mp, g.e_mp)

    def test_zero_q_is_identity(self):
        rng = np.random.default_rng(53)
        a = random_complex(rng, 8)
        g = build(a, alpha=1.0)
        pb = perturbed_blocks(g, np.zeros((8, 8)), 0.01)
        np.testing.assert_allclose(pb.e_block, g.e_block, atol=1e-14)
        np.testing.assert_allclose(pb.e_plus, g.e_plus, atol=1e-14)

    def test_perturbed_inverse_identity(self):
        rng = np.random.default_rng(54)
        n = 20
        a = random_complex(rng, n)
        s = np.linalg.svd(a, compute_uv=False)
        alpha = float(np.median(s))
        g = build(a, alpha)
        q = random_complex(rng, n)
        delta = 0.5 * alpha / (2 * np.linalg.norm(q, 2))
        pb = perturbed_blocks(g, q, delta)
        m = g.m_cut
        p_d = np.zeros((n + m, n + m), dtype=complex)
        p_d[:n, :n] = a + delta * q
        p_d[:n, n:] = g.r_minus
        p_d[n:, :n] = g.r_plus
        e_d = np.zeros((n + m, n + m), dtype=complex)
        e_d[:n, :n] = pb.e_block
        e_d[:n, n:] = pb.e_plus
        e_d[n:, :n] = pb.e_minus
        e_d[n:, n:] = pb.e_mp
        assert np.max(np.abs(p_d @ e_d - np.eye(n + m))) <= 1e-9

    def test_norm_estimates(self):
        rng = np.random.default_rng(55)
        n = 15
        a = random_complex(rng, n)
        s = np.sort(np.linalg.svd(a, compute_uv=False))
        alpha = float(0.5 * (s[n // 2] + s[n // 2 + 1]))
        g = build(a, alpha)
        q = random_complex(rng, n)
        delta = 0.9 * alpha / (2 * np.linalg.norm(q, 2))
        pb = perturbed_blocks(g, q, delta)
        assert np.linalg.norm(pb.e_block, 2) <= 2.0 / alpha + 1e-10
        assert np.linalg.norm(pb.e_mp - g.e_mp, 2) <= alpha + 1e-10

    def test_coupling_guard(self):
        rng = np.random.default_rng(56)
        a = random_complex(rng, 6)
        g = build(a, alpha=float(np.median(np.linalg.svd(a, compute_uv=False))))
        q = random_complex(rng, 6)
        too_big = 1.1 * g.alpha / (2 * np.linalg.norm(q, 2))
        with pytest.raises(CouplingTooLargeError):
            perturbed_blocks(g, q, too_big)

    def test_smin_ordering(self):
        # s_min of the perturbed matrix is at most s_min of the Schur block
        rng = np.random.default_rng(57)
        for _ in range(10):
            n = int(rng.integers(6, 25))
            a = random_complex(rng, n)
            s = np.linalg.svd(a, compute_uv=False)
            alpha = float(np.quantile(s, 0.3))
            try:
                g = build(a, alpha)
            except AmbiguousCutError:
                continue
            if g.m_cut == 0:
                continue
            q = random_complex(rng, n)
            delta = 0.5 * alpha / (2 * np.linalg.norm(q, 2))
            pb = perturbed_blocks(g, q, delta)
            lhs = smallest_singular(a + delta * q)
            rhs = smallest_singular(pb.e_mp) if g.m_cut else math.inf
            scale = float(np.linalg.norm(a, 2))
            assert lhs <= rhs + 1e-10 * scale


def sv(a):
    return svd(a)


class TestTruncatedLogdet:
    def test_diagonal_example(self):
        t = truncated_logdet(sv(np.diag([0.1, 2.0, 3.0])), alpha=1.0)
        assert t == pytest.approx(math.log(6) / 3, rel=1e-12)

    def test_identity_below_threshold(self):
        assert truncated_logdet(sv(np.eye(5)), alpha=0.5) == pytest.approx(0.0, abs=1e-14)

    def test_empty_sum_is_zero(self):
        t = truncated_logdet(sv(np.eye(5)), alpha=2.0)
        assert type(t) is float and t == 0.0

    def test_non_square_rejected(self):
        # truncated_logdet sees only singular values; the matrix reaches equivalence_gap
        with pytest.raises(ShapeError):
            equivalence_gap(np.ones((2, 3)), np.ones(2), np.ones((2, 3)), 0.1, alpha=0.5)


class TestEquivalenceGap:
    def test_zero_q_below_smin(self):
        rng = np.random.default_rng(58)
        a = random_complex(rng, 12)
        smin = float(np.linalg.svd(a, compute_uv=False).min())
        gap = equivalence_gap(a, sv(a), np.zeros((12, 12)), 0.1, alpha=smin / 2)
        assert gap <= 1e-12

    def test_schur_identity(self):
        # log|det A^d| = log|det P^d| + log|det E_{-+}^d|
        rng = np.random.default_rng(59)
        n = 30
        a = random_complex(rng, n)
        s = np.linalg.svd(a, compute_uv=False)
        alpha = float(np.quantile(s, 0.25))
        g = build(a, alpha)
        q = random_complex(rng, n)
        delta = 0.5 * alpha / (2 * np.linalg.norm(q, 2))
        pb = perturbed_blocks(g, q, delta)
        m = g.m_cut
        p_d = np.zeros((n + m, n + m), dtype=complex)
        p_d[:n, :n] = a + delta * q
        p_d[:n, n:] = g.r_minus
        p_d[n:, :n] = g.r_plus
        lhs = lu_logdet(a + delta * q)[1]
        rhs = lu_logdet(p_d)[1] + lu_logdet(pb.e_mp)[1]
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_monte_carlo_toeplitz(self):
        # one seed of the deterministic-equivalence experiment at small size
        n = 100
        z = 3 + 0.2j
        a = toeplitz(TRIDIAG, n) - z * np.eye(n)
        rng = np.random.default_rng(60)
        q = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        gap = equivalence_gap(a, sv(a), q, n**-3.0, alpha=1.0 / n)
        assert gap <= 0.05


class TestGrushinRun:
    def test_one_svd_per_run_with_per_trial_svd_gaps(self, monkeypatch):
        cfg = ExperimentConfig(
            scenario="grushin",
            symbol="-1:1;1:1",
            n=40,
            pert=PerturbationSpec("poly", 3),
            noise=NoiseSpec("complex_gaussian"),
            trials=3,
            seed=505,
        )
        # the gaps as computed before the hoist: a fresh SVD of a in every trial
        n, z, alpha = cfg.n, 3.0 + 0.2j, 1.0 / cfg.n
        delta = cfg.pert.coupling(n)
        a = toeplitz(TRIDIAG, n) - z * np.eye(n)
        gaps = []
        for t in range(cfg.trials):
            q = sample_noise(cfg.noise, n, task_seed(cfg.seed, t))
            s = svd(a)
            truncated = float(np.sum(np.log(s[s > alpha]))) / len(s)
            gaps.append(abs(lu_logdet(a + delta * q)[1] / n - truncated))

        calls = []

        def counted(m, want_vectors=False):
            calls.append(want_vectors)
            return svd(m, want_vectors)

        monkeypatch.setattr(linalg, "svd", counted)
        monkeypatch.setattr(grushin, "svd", counted)
        report = run(cfg)
        assert calls == [False]
        assert report.metrics["gaps_max"] == max(gaps)
        assert report.metrics["gaps_median"] == float(np.median(gaps))
