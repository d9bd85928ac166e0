import math

import numpy as np
import pytest

from toepspec.eigloc import (
    LOCALIZATION_CSV_HEADER,
    phase_aligned_distance,
    pure_state,
    supp_size,
    tail_norm_profile,
    write_localization_csv,
)
from toepspec.errors import NormalizationError, ShapeError


class TestTailNormProfile:
    def test_basis_vector_forward(self):
        prof = tail_norm_profile(np.array([1, 0, 0, 0], dtype=complex))
        np.testing.assert_allclose(prof, [1, 0, 0, 0], atol=1e-14)

    def test_uniform_forward(self):
        v = np.full(4, 0.5, dtype=complex)
        prof = tail_norm_profile(v)
        assert prof[2] == pytest.approx(math.sqrt(2 / 4))

    def test_nonincreasing(self):
        rng = np.random.default_rng(90)
        v = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        v /= np.linalg.norm(v)
        assert np.all(np.diff(tail_norm_profile(v)) <= 1e-12)

    def test_back_localized_mass_reads_through_the_mirror(self):
        # the mirror of a back-localized vector is front-localized: its first
        # tail holds all the mass, exactly as the front vector's does
        back = np.array([0, 0, 0, 1], dtype=complex)
        np.testing.assert_array_equal(tail_norm_profile(back), [1, 1, 1, 1])
        np.testing.assert_array_equal(tail_norm_profile(back[::-1]), [1, 0, 0, 0])
        v = np.array([0.1, 0.2, 0.4, 0.8], dtype=complex)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(
            tail_norm_profile(v[::-1]), np.sqrt(np.cumsum(np.abs(v) ** 2))[::-1], rtol=1e-14
        )

    def test_non_unit_rejected(self):
        with pytest.raises(NormalizationError):
            tail_norm_profile(np.array([1.0, 1.0]))


class TestSuppSize:
    def test_basis_vector(self):
        assert supp_size(np.array([1, 0, 0], dtype=complex), 0.1) == 1

    def test_uniform_hundred(self):
        v = np.full(100, 0.1, dtype=complex)
        mu1 = 1 - math.sqrt(0.5)
        assert supp_size(v, mu1) == 50

    def test_nonincreasing_in_mu(self):
        rng = np.random.default_rng(91)
        v = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        v /= np.linalg.norm(v)
        sizes = [supp_size(v, mu) for mu in (0.05, 0.2, 0.5, 0.8)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


class TestPureState:
    def test_zero_is_basis_vector(self):
        np.testing.assert_array_equal(pure_state(0, 4), [1, 0, 0, 0])

    def test_unit_z(self):
        np.testing.assert_allclose(pure_state(1, 4), np.full(4, 0.5), atol=1e-14)

    def test_geometric_tail_bound(self):
        for z in (0.3, 0.6 + 0.2j, 0.85):
            v = pure_state(z, 60)
            prof = tail_norm_profile(v)
            for ell in range(1, 61):
                assert prof[ell - 1] <= abs(z) ** (ell - 1) + 1e-12

    def test_large_modulus_no_overflow(self):
        v = pure_state(3.0, 800)
        assert np.all(np.isfinite(v))
        assert np.linalg.norm(v) == pytest.approx(1.0)
        # mass concentrates on the last entry
        assert abs(v[-1]) > 0.9

    def test_supp_bound_geometric(self):
        for z in (0.5, 0.7, 0.9):
            v = pure_state(z, 200)
            bound = math.ceil(math.log(4) / (-2 * math.log(abs(z)))) + 1
            assert supp_size(v, 0.5) <= bound


class TestPhaseAlignedDistance:
    def test_identical(self):
        v = np.array([1, 1j]) / math.sqrt(2)
        assert phase_aligned_distance(v, v) == pytest.approx(0.0, abs=1e-7)

    def test_global_phase_invisible(self):
        rng = np.random.default_rng(92)
        v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        v /= np.linalg.norm(v)
        u = np.exp(1j * math.pi / 3) * v
        assert phase_aligned_distance(u, v) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal(self):
        u = np.array([1, 0], dtype=complex)
        v = np.array([0, 1], dtype=complex)
        assert phase_aligned_distance(u, v) == pytest.approx(math.sqrt(2))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            phase_aligned_distance(np.ones(2), np.ones(3))


class TestLocalizationCsv:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "loc.csv"
        write_localization_csv(
            [(0.5 + 0.1j, 0.3, -1, 0.9, 3, 5)], path
        )
        lines = path.read_text().strip().splitlines()
        assert lines[0] == LOCALIZATION_CSV_HEADER
        assert lines[1] == "0.5,0.1,0.3,-1,0.9,3,5"
