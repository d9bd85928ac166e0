import math

import numpy as np
import pytest

from helpers import near_bad_set, random_symbol, winding_number_quadrature
from toepspec.errors import (
    BoundaryError,
    ConfigError,
    DegenerateInputError,
    DomainError,
    NonFiniteError,
    OnCurveError,
)
from toepspec.symbol import (
    LaurentSymbol,
    classify_region,
    curve_samples,
    evaluate,
    format_symbol,
    parse_symbol,
    root_profile,
    root_profiles,
    winding_number,
)

JORDAN = parse_symbol("-1:1")
TRIDIAG = parse_symbol("-1:1;1:1")
SHIFT = parse_symbol("1:1")
FIG7 = parse_symbol("-3:2;-2:-1;-1:0,2;1:-4;2:0,-2")


class TestParse:
    def test_roundtrip(self):
        for sym in (JORDAN, TRIDIAG, FIG7):
            assert parse_symbol(format_symbol(sym)) == sym

    def test_duplicate_index_rejected(self):
        with pytest.raises(ConfigError):
            parse_symbol("1:1;1:2")

    def test_whitespace_ignored(self):
        assert parse_symbol(" -1 : 1 ; 1 : 1 ") == TRIDIAG

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInputError):
            LaurentSymbol({0: 2.0})

    def test_tight_endpoints(self):
        sym = LaurentSymbol({-2: 0.0, -1: 1.0, 0: 0.0, 1: 3.0, 2: 0.0})
        assert (sym.kmin, sym.kmax) == (-1, 1)


class TestEvaluate:
    def test_inverse_monomial(self):
        assert evaluate(JORDAN, 1j) == pytest.approx(-1j)

    def test_tridiagonal_at_one(self):
        assert evaluate(TRIDIAG, 1) == pytest.approx(2)

    def test_wide_band_at_one(self):
        assert evaluate(FIG7, 1) == pytest.approx(-3)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            evaluate(JORDAN, 0)
        with pytest.raises(DomainError):
            evaluate(JORDAN, np.array([1.0, 0.0]))

    def test_array_matches_pointwise_sum(self):
        # the scalar reference: the Laurent sum term by term in Python complex arithmetic
        rng = np.random.default_rng(5)
        zs = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        for sym in (JORDAN, TRIDIAG, FIG7):
            vals = evaluate(sym, zs)
            assert vals.shape == zs.shape and isinstance(evaluate(sym, complex(zs[0, 0])), complex)
            ref = [[sum(c * complex(z) ** k for k, c in sym.coeffs.items()) for z in row] for row in zs]
            np.testing.assert_allclose(vals, ref, rtol=1e-14, atol=0)


class TestCurveSamples:
    def test_shift(self):
        np.testing.assert_allclose(
            curve_samples(SHIFT, 4), [1, 1j, -1, -1j], atol=1e-14
        )

    def test_jordan(self):
        np.testing.assert_allclose(
            curve_samples(JORDAN, 4), [1, -1j, -1, 1j], atol=1e-14
        )

    def test_tridiagonal(self):
        np.testing.assert_allclose(curve_samples(TRIDIAG, 2), [2, -2], atol=1e-14)


class TestRootProfile:
    def test_jordan_linear_root(self):
        prof = root_profile(JORDAN, 0.5)
        assert prof.roots == pytest.approx((2.0,))
        assert prof.leading == pytest.approx(-0.5)
        assert (prof.mplus, prof.mminus) == (1, 0)

    def test_tridiagonal_quadratic(self):
        # roots of zeta^2 - 3 zeta + 1, against the quadratic formula
        prof = root_profile(TRIDIAG, 3)
        expect = ((3 + math.sqrt(5)) / 2, (3 - math.sqrt(5)) / 2)
        assert prof.roots == pytest.approx(expect, abs=1e-8)
        assert (prof.mplus, prof.mminus) == (1, 1)

    def test_shift_at_zero(self):
        prof = root_profile(SHIFT, 0)
        assert prof.roots == pytest.approx((0.0,))
        assert (prof.mplus, prof.mminus) == (0, 1)

    def test_jordan_degenerate_point_goes_to_infinity(self):
        prof = root_profile(JORDAN, 0)
        assert prof.infinite == 1
        assert prof.roots == ()
        assert prof.mplus == 1

    def test_counts_add_up_on_random_symbols(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            sym = random_symbol(rng, max_band=5)
            z = complex(rng.normal(), rng.normal()) * 2
            prof = root_profile(sym, z)
            assert prof.mplus + prof.mminus + prof.on_circle == prof.total
            assert prof.total == sym.band

    def test_root_residuals(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            sym = random_symbol(rng, max_band=5)
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            prof = root_profile(sym, z)
            scale = max(abs(c) for c in sym.coeffs.values()) + abs(z)
            for root in prof.roots:
                if root == 0:
                    continue
                val = (evaluate(sym, root) - z) * root**sym.nminus_eff
                mag = max(abs(root) ** k for k in range(sym.band + 1))
                assert abs(val) <= 1e-8 * scale * mag

    def test_moduli_nonincreasing(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            sym = random_symbol(rng)
            prof = root_profile(sym, complex(rng.normal(), rng.normal()))
            mods = [abs(r) for r in prof.roots]
            assert all(a >= b - 1e-12 for a, b in zip(mods, mods[1:]))


class TestRootProfiles:
    """The stacked kernel row by row against its one-point case."""

    def test_random_symbols(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            sym = random_symbol(rng, max_band=5)
            # a0 and 0 drop the degree or strip a root at 0 for some shapes
            zs = [complex(rng.normal(), rng.normal()) * 2 for _ in range(6)] + [sym.coeffs.get(0, 0j), 0j]
            assert root_profiles(sym, zs) == [root_profile(sym, z) for z in zs]

    def test_degree_changing_rows_in_one_call(self):
        for sym, special in ((JORDAN, 0j), (parse_symbol("0:1;1:1"), 1 + 0j)):
            zs = [0.3 + 0.2j, special, 2.0 + 0j, special, -1j]
            profs = root_profiles(sym, zs)
            assert profs == [root_profile(sym, z) for z in zs]
            assert profs[1] == profs[3]
        jordan_at_0 = root_profiles(JORDAN, [0.5, 0])[1]
        assert (jordan_at_0.infinite, jordan_at_0.roots) == (1, ())
        stripped = root_profiles(parse_symbol("0:1;1:1"), [2, 1])[1]
        assert (stripped.infinite, stripped.roots, stripped.mminus) == (0, (0j,), 1)

    def test_empty_input(self):
        assert root_profiles(TRIDIAG, []) == []

    def test_root_beyond_float_range_raises(self):
        # q_z = 1e308 - z zeta has its root at 1e308 / z
        with pytest.raises(NonFiniteError, match="overflows"):
            root_profiles(parse_symbol("-1:1e308"), [0.5, 1e-10])


class TestWinding:
    def test_jordan_clockwise(self):
        assert winding_number(JORDAN, 0) == -1

    def test_shift_counterclockwise(self):
        assert winding_number(SHIFT, 0) == 1

    def test_tridiagonal_outside(self):
        assert winding_number(TRIDIAG, 3) == 0

    def test_on_curve_rejected(self):
        with pytest.raises(OnCurveError):
            winding_number(SHIFT, 1.0)

    def test_matches_phase_integral(self):
        rng = np.random.default_rng(14)
        checked = 0
        while checked < 40:
            sym = random_symbol(rng)
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            try:
                w_roots = winding_number(sym, z)
                w_phase = winding_number_quadrature(sym, z)
            except OnCurveError:
                continue
            assert w_roots == w_phase
            checked += 1


class TestClassify:
    def test_jordan_ell_zero(self):
        assert classify_region(JORDAN, 0.75, 0.5) == "S-1,0"

    def test_jordan_ell_one(self):
        assert classify_region(JORDAN, 0.25, 0.5) == "S-1,1"

    def test_jordan_outside(self):
        assert classify_region(JORDAN, 1.5, 0.5) == "S0"

    def test_boundary_rejected(self):
        # |1/z| = 2 exactly puts the root on the separating circle
        with pytest.raises(BoundaryError):
            classify_region(JORDAN, 0.5, 0.5)

    def test_on_curve_rejected(self):
        with pytest.raises(OnCurveError):
            classify_region(JORDAN, 1.0, 0.5)

    def test_bad_radius(self):
        with pytest.raises(ConfigError):
            classify_region(JORDAN, 0.3, 1.5)

    def test_partition_of_grid(self):
        # every non-boundary node gets exactly one label, locally constant
        # away from the three curves and the modulus boundaries
        sym = TRIDIAG
        r = 0.5
        n = 200
        res = np.linspace(-2.6, 2.6, n)
        ims = np.linspace(-2.6, 2.6, n)
        labels = {}
        profs = iter(root_profiles(sym, [complex(x, y) for y in ims for x in res]))
        for j, y in enumerate(ims):
            for i, x in enumerate(res):
                try:
                    labels[(i, j)] = classify_region(sym, complex(x, y), r, next(profs))
                except (BoundaryError, OnCurveError):
                    labels[(i, j)] = None
        assert sum(1 for v in labels.values() if v is None) < n * n // 100
        curves = [curve_samples(sym, 2048, rad) for rad in (1.0, r, 1.0 / r)]

        def far_from_structure(z):
            if min(float(np.min(np.abs(c - z))) for c in curves) < 0.12:
                return False
            prof = root_profile(sym, z)
            mods = [abs(x) for x in prof.roots]
            return all(
                abs(m - b) > 0.08 for m in mods for b in (r, 1.0 / r)
            )

        mismatches = 0
        for j in range(n - 1):
            for i in range(n - 1):
                a = labels[(i, j)]
                for nb in ((i + 1, j), (i, j + 1)):
                    b = labels[nb]
                    if a is None or b is None or a == b:
                        continue
                    za = complex(res[i], ims[j])
                    zb = complex(res[nb[0]], ims[nb[1]])
                    if far_from_structure(za) and far_from_structure(zb):
                        mismatches += 1
        assert mismatches == 0


class TestNearBadSet:
    def test_double_root(self):
        flags = near_bad_set(TRIDIAG, 2, 1e-6)
        assert flags.double_root

    def test_clean_point(self):
        flags = near_bad_set(TRIDIAG, 3, 1e-6)
        assert not flags.any()

    def test_a0_flag(self):
        assert near_bad_set(JORDAN, 0, 1e-9).is_a0
