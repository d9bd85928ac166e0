import itertools
import math

import numpy as np
import pytest

from helpers import brute_permutation_sign, det_orders_by_interpolation, near_bad_set, random_symbol
from toepspec.detexp import (
    _subset_sign,
    bidiagonal_minor,
    det_k,
    minor_decomposition,
    widom_det,
)
from toepspec.errors import BadPointError, ShapeError, SizeLimitError
from toepspec.linalg import lu_logdet
from toepspec.matrixgen import toeplitz
from toepspec.symbol import parse_symbol

JORDAN = parse_symbol("-1:1")
TRIDIAG = parse_symbol("-1:1;1:1")


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestSubsetSign:
    def test_against_brute_force(self):
        for n in range(1, 7):
            for k in range(n + 1):
                for subset in itertools.combinations(range(n), k):
                    assert _subset_sign(subset) == brute_permutation_sign(subset, n)


class TestMinorDecomposition:
    def test_sums_to_full_determinant(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            a = random_complex(rng, n)
            b = random_complex(rng, n)
            total = sum(minor_decomposition(a, b, k) for k in range(n + 1))
            expect = complex(np.linalg.det(a + b))
            assert total == pytest.approx(expect, rel=1e-10)

    def test_zero_b(self):
        rng = np.random.default_rng(32)
        a = random_complex(rng, 4)
        b = np.zeros((4, 4), dtype=complex)
        assert minor_decomposition(a, b, 0) == pytest.approx(complex(np.linalg.det(a)))
        for k in range(1, 5):
            assert minor_decomposition(a, b, k) == 0

    def test_zero_a_top_order(self):
        rng = np.random.default_rng(33)
        b = random_complex(rng, 3)
        a = np.zeros((3, 3), dtype=complex)
        assert minor_decomposition(a, b, 3) == pytest.approx(complex(np.linalg.det(b)))

    def test_size_guard(self):
        m = np.eye(15, dtype=complex)
        with pytest.raises(SizeLimitError):
            minor_decomposition(m, m, 1)


class TestDetK:
    def test_order_zero_is_unperturbed_determinant(self):
        rng = np.random.default_rng(34)
        e = random_complex(rng, 6)
        z = 0.4 + 0.1j
        t = toeplitz(TRIDIAG, 6) - z * np.eye(6)
        val = det_k(TRIDIAG, z, e, 0.37, 0)
        assert val == pytest.approx(complex(np.linalg.det(t)), rel=1e-12)

    def test_terms_sum_to_perturbed_determinant(self):
        rng = np.random.default_rng(35)
        n, delta = 8, 0.05
        for _ in range(20):
            e = random_complex(rng, n)
            z = complex(rng.normal(), rng.normal())
            total = sum(det_k(TRIDIAG, z, e, delta, k) for k in range(n + 1))
            expect = complex(np.linalg.det(toeplitz(TRIDIAG, n) - z * np.eye(n) + delta * e))
            assert total == pytest.approx(expect, rel=1e-10)

    def test_jordan_corner_first_order(self):
        n = 3
        e = np.zeros((n, n), dtype=complex)
        e[n - 1, 0] = 1.0
        assert det_k(JORDAN, 0.0, e, 1.0, 1) == pytest.approx(1.0 + 0j)

    def test_matches_interpolation_oracle(self):
        rng = np.random.default_rng(36)
        n, delta = 6, 0.1
        e = random_complex(rng, n)
        z = 0.3 - 0.8j
        terms = det_orders_by_interpolation(TRIDIAG, z, e, delta)
        for k in range(n + 1):
            expect = terms[k]
            got = det_k(TRIDIAG, z, e, delta, k)
            assert got == pytest.approx(expect, rel=1e-7, abs=1e-12)


class TestWidom:
    def test_tridiagonal_2x2_exact(self):
        ld = widom_det(TRIDIAG, 3.0, 2)
        det = math.exp(ld[1]) * ld[0]
        assert det == pytest.approx(8.0 + 0j, rel=1e-12)

    def test_tridiagonal_vs_lu(self):
        ld = widom_det(TRIDIAG, 3.0, 10)
        direct = lu_logdet(toeplitz(TRIDIAG, 10) - 3.0 * np.eye(10))
        assert ld[1] == pytest.approx(direct[1], rel=1e-9)
        assert ld[0] == pytest.approx(direct[0], abs=1e-8)

    def test_jordan_single_subset(self):
        z = 0.5
        for n in (3, 7, 20):
            ld = widom_det(JORDAN, z, n)
            direct = lu_logdet(toeplitz(JORDAN, n) - z * np.eye(n))
            assert ld[1] == pytest.approx(direct[1], rel=1e-12)
            assert ld[0] == pytest.approx(direct[0], abs=1e-10)

    def test_random_symbols_vs_lu(self):
        # The LU oracle is only trustworthy where T_n(a - z) is well
        # conditioned, i.e. at winding number 0 away from the curve; at
        # nonzero winding the true determinant sits exponentially far below
        # the LU rounding floor (see the small-n check below for that side).
        from helpers import sample_widom_checkable

        rng = np.random.default_rng(37)
        for _ in range(20):
            sym, z, n = sample_widom_checkable(rng, max_n=40)
            ld = widom_det(sym, z, n)
            direct = lu_logdet(toeplitz(sym, n) - z * np.eye(n))
            assert abs(ld[1] - direct[1]) <= 1e-8 * max(1.0, abs(direct[1]))

    def test_nonzero_winding_small_n_vs_lu(self):
        # at small n with a root-modulus floor the conditioning stays benign,
        # so the LU oracle covers the nonzero-winding branch too
        from toepspec.symbol import ON_CIRCLE_TOL, root_profile, winding_number

        rng = np.random.default_rng(42)
        checked = 0
        while checked < 15:
            sym = random_symbol(rng, max_band=3)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if near_bad_set(sym, z, 1e-3).any():
                continue
            mods = np.abs(root_profile(sym, z)[0])
            if np.isinf(mods).any() or (np.abs(mods - 1) < ON_CIRCLE_TOL).any():
                continue
            if winding_number(sym, z) == 0:
                continue
            if mods.min() < 0.35:
                continue
            n = int(rng.integers(2, 13))
            ld = widom_det(sym, z, n)
            direct = lu_logdet(toeplitz(sym, n) - z * np.eye(n))
            assert abs(ld[1] - direct[1]) <= 1e-8 * max(1.0, abs(direct[1]))
            checked += 1

    def test_double_root_rejected(self):
        with pytest.raises(BadPointError):
            widom_det(TRIDIAG, 2.0, 5)


class TestBidiagonalMinor:
    def test_empty_sets(self):
        assert bidiagonal_minor(0.7j, [], [], 4) == pytest.approx((0.7j) ** 4)

    def test_delete_first(self):
        assert bidiagonal_minor(2.0, [1], [1], 4) == pytest.approx(8.0)

    def test_against_direct_minors(self):
        rng = np.random.default_rng(38)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(0, n + 1))
            xs = sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist())
            ys = sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist())
            zeta = complex(rng.normal(), rng.normal())
            a = np.diag(np.ones(n - 1, dtype=complex), 1) + zeta * np.eye(n)
            keep_r = [i for i in range(n) if (i + 1) not in xs]
            keep_c = [j for j in range(n) if (j + 1) not in ys]
            direct = complex(np.linalg.det(a[np.ix_(keep_r, keep_c)])) if keep_r else 1.0
            got = bidiagonal_minor(zeta, xs, ys, n)
            assert got == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_bad_sets_rejected(self):
        with pytest.raises(ShapeError):
            bidiagonal_minor(1.0, [1, 2], [1], 4)
        with pytest.raises(ShapeError):
            bidiagonal_minor(1.0, [0], [1], 4)


class TestDominanceProbes:
    """Qualitative order-of-magnitude checks on the expansion terms.

    Statistical acceptance: the unperturbed term should dominate off the
    symbol curve at winding 0, and the first-order term should dominate in
    the winding-one region with small straddling count.
    """

    N = 12
    R = 0.5

    def _term_magnitudes(self, sym, z, rng, draws):
        delta = self.R**self.N
        ratios = []
        for _ in range(draws):
            e = random_complex(rng, self.N)
            terms = det_orders_by_interpolation(sym, z, e, delta)
            ratios.append(terms)
        return np.array(ratios)

    def test_s0_zero_order_dominates(self):
        rng = np.random.default_rng(39)
        sym = TRIDIAG
        hits = 0
        draws = 200
        z = 3.0 + 0.4j  # winding 0 for the tridiagonal symbol
        terms = self._term_magnitudes(sym, z, rng, draws)
        for row in terms:
            if abs(row[0]) >= 10 * np.sum(np.abs(row[1:])):
                hits += 1
        assert hits >= 0.9 * draws

    def test_s10_first_order_dominates(self):
        rng = np.random.default_rng(40)
        sym = parse_symbol("-1:0.1;1:1")
        z = 0.05 + 0.02j  # inside the small ellipse: winding 1, both roots below r
        terms = self._term_magnitudes(sym, z, rng, 200)
        hits = 0
        for row in terms:
            rest = np.sum(np.abs(row)) - abs(row[1])
            if abs(row[1]) >= 10 * rest:
                hits += 1
        assert hits >= 0.9 * len(terms)

    def test_interpolation_matches_exact_det_k(self):
        rng = np.random.default_rng(41)
        e = random_complex(rng, self.N)
        z = 3.0 + 0.4j
        delta = self.R**self.N
        terms = det_orders_by_interpolation(TRIDIAG, z, e, delta)
        for k in (0, 1, 2):
            exact = det_k(TRIDIAG, z, e, delta, k)
            assert exact == pytest.approx(terms[k], rel=1e-6, abs=1e-12)
