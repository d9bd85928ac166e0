import math

import numpy as np
import pytest

from helpers import (
    circle_quadrature_logpot,
    limit_logpot_per_root,
    random_symbol,
    read_sample_csv,
    split_root_moduli_per_root,
)
from toepspec.errors import DomainError, ShapeError, SizeLimitError
from toepspec.measures import (
    dist_to_curve,
    empirical_logpot,
    energy_distance,
    limit_logpot,
    match_cost,
    split_root_moduli,
    write_sample_csv,
)
from toepspec.symbol import curve_samples, evaluate, parse_symbol, root_profile

JORDAN = parse_symbol("-1:1")
TRIDIAG = parse_symbol("-1:1;1:1")
SHIFT = parse_symbol("1:1")


class TestEmpiricalLogpot:
    def test_single_point(self):
        assert empirical_logpot([0], math.e) == pytest.approx(1.0)

    def test_roots_of_unity_at_zero(self):
        pts = np.exp(2j * np.pi * np.arange(4) / 4)
        assert empirical_logpot(pts, 0) == pytest.approx(0.0, abs=1e-14)

    def test_hit_is_minus_inf(self):
        assert empirical_logpot([0], 0) == -math.inf

    def test_array_equals_per_point_bit_for_bit(self):
        rng = np.random.default_rng(78)
        pts = rng.standard_normal(37) + 1j * rng.standard_normal(37)
        # the last probe is an eigenvalue: -inf there, with no divide warning
        zs = np.append(rng.uniform(-2, 2, 9) + 1j * rng.uniform(-2, 2, 9), pts[5])
        got = empirical_logpot(pts, zs)
        assert got.shape == zs.shape and got[-1] == -math.inf
        for i, z in enumerate(zs[:-1]):
            assert got[i] == np.mean(np.log(np.abs(z - pts)))
            assert got[i] == empirical_logpot(pts, z)

    def test_empty_probe_array(self):
        assert empirical_logpot([1, 2], np.zeros(0, dtype=complex)).shape == (0,)


class TestLimitClosedForms:
    RADII = (0.0, 0.3, 0.5, 1.0)

    @pytest.mark.parametrize("text, p", [("-1:1", 1), ("2:1", 2)], ids=["-1:1", "2:1"])
    def test_one_sided_symbols(self, text, p):
        # zeta^{-1} (Jordan block) has L_r(z) = log max(|z|, r); zeta^2 has
        # L_r(z) = log max(|z|, r^2): the circle laws of radius r^p and 1
        # and, at r = 0, a point mass at 0.  Both sides of every circle,
        # the circles themselves and z = 0 included.
        sym = parse_symbol(text)
        checked = 0
        worst = 0.0
        for r in self.RADII:
            for mod in (0.0, 0.05, r**p, 0.2, 0.5, 0.9, 1.0, 1.5):
                for angle in (0.0, 1.0, -2.5):
                    z = mod * complex(math.cos(angle), math.sin(angle))
                    expect = math.log(max(mod, r**p)) if max(mod, r) > 0 else -math.inf
                    got = limit_logpot(sym, z, r)
                    if math.isinf(expect):
                        assert got == expect, (r, z)
                    else:
                        worst = max(worst, abs(got - expect))
                    checked += 1
        assert checked == 96
        assert worst <= 1e-14

    def test_radius_outside_unit_interval_rejected(self):
        for r in (-0.1, 1.5, math.nan):
            with pytest.raises(DomainError):
                limit_logpot(JORDAN, 0.5, r)


class TestLimitSubexp:
    def test_jordan_outside(self):
        assert limit_logpot(JORDAN, 2.0, 1.0) == pytest.approx(math.log(2), rel=1e-12)

    def test_jordan_inside(self):
        assert limit_logpot(JORDAN, 0.5, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_tridiagonal_outside(self):
        expect = math.log((3 + math.sqrt(5)) / 2)
        assert limit_logpot(TRIDIAG, 3.0, 1.0) == pytest.approx(expect, rel=1e-9)

    def test_on_curve_matches_quadrature(self):
        # on the curve the law is still the circle mean of log|a(u) - z|,
        # whose integrand has a log singularity where a(u) = z.  Tanh-sinh
        # quadrature once around from that angle, split also at every other
        # close approach of the curve to z, resolves it.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        rng = np.random.default_rng(78)
        grid = 2 * np.pi * np.arange(4096) / 4096
        for _ in range(6):
            sym = random_symbol(rng)
            t0 = float(rng.uniform(0, 2 * math.pi))
            z = complex(evaluate(sym, complex(math.cos(t0), math.sin(t0))))
            d = np.abs(evaluate(sym, np.exp(1j * (t0 + grid))) - z)
            near = (d <= np.roll(d, 1)) & (d <= np.roll(d, -1))
            cuts = [t0 + float(t) for t in grid[near] if 0.01 < t < 2 * math.pi - 0.01]

            def integrand(t):
                u = mpmath.expj(t)
                return mpmath.log(abs(sum(c * u**k for k, c in sym.coeffs.items()) - z))

            quad, err = mpmath.quad(integrand, [t0, *cuts, t0 + 2 * mpmath.pi], error=True)
            assert err <= 1e-12
            assert abs(limit_logpot(sym, z, 1.0) - float(quad) / (2 * math.pi)) <= 1e-10

    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0])
    def test_array_equals_per_point(self, r):
        rng = np.random.default_rng(79)
        for _ in range(8):
            sym = random_symbol(rng)
            zs = rng.uniform(-3, 3, 12) + 1j * rng.uniform(-3, 3, 12)
            got = limit_logpot(sym, zs, r)
            assert got.shape == zs.shape
            assert got.tolist() == [limit_logpot(sym, z, r) for z in zs]

    def test_array_with_jordan_atom(self):
        # the Jordan law at r = 0 is a point mass at 0: -inf there, log|z| elsewhere
        zs = np.array([0.0, 0.5 + 0.5j, 2.0])
        got = limit_logpot(JORDAN, zs, 0.0)
        assert got.tolist() == [limit_logpot(JORDAN, z, 0.0) for z in zs]
        assert got[0] == -math.inf and got[2] == pytest.approx(math.log(2))

    def test_jensen_cross_check(self):
        rng = np.random.default_rng(70)
        checked = 0
        while checked < 50:
            sym = random_symbol(rng)
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if float(np.min(np.abs(curve_samples(sym, 1024) - z))) < 0.05:
                continue
            formula = limit_logpot(sym, z, 1.0)
            quad = circle_quadrature_logpot(sym, z, 4096)
            assert formula == pytest.approx(quad, abs=1e-6)
            checked += 1


class TestLimitExp:
    def test_small_ellipse_interior_gives_log_r(self):
        # winding +1, both roots inside radius r
        sym = parse_symbol("-1:0.1;1:1")
        assert limit_logpot(sym, 0.02 + 0.01j, 0.5) == pytest.approx(
            math.log(0.5), rel=1e-9
        )

    def test_straddling_band_gives_largest_root(self):
        sym = parse_symbol("-1:0.1;1:1")
        z = 0.8 + 0.05j
        from toepspec.symbol import root_profile

        roots, _ = root_profile(sym, z)
        assert limit_logpot(sym, z, 0.5) == pytest.approx(
            math.log(abs(roots[0])), rel=1e-9
        )

    def test_negative_winding_deep_interior(self):
        # reversed orientation: two large roots, both beyond 1/r
        sym = parse_symbol("-1:5;1:1")
        z = 0.0 + 0.1j
        from toepspec.symbol import root_profile

        roots, _ = root_profile(sym, z)
        expect = (
            math.log(abs(roots[0]))
            + math.log(abs(roots[1]))
            + math.log(0.5)
        )
        assert limit_logpot(sym, z, 0.5) == pytest.approx(expect, rel=1e-9)

    def test_s0_matches_subexp(self):
        assert limit_logpot(TRIDIAG, 3.0, 0.5) == pytest.approx(
            limit_logpot(TRIDIAG, 3.0, 1.0), rel=1e-12
        )

    def test_jordan_cases(self):
        # annulus r < |z| < 1: potential of the uniform radius-r circle law
        assert limit_logpot(JORDAN, 0.75, 0.5) == pytest.approx(math.log(0.75), rel=1e-9)
        # deep interior |z| < r
        assert limit_logpot(JORDAN, 0.25, 0.5) == pytest.approx(math.log(0.5), rel=1e-9)

    def test_r_to_one_consistency(self):
        rng = np.random.default_rng(71)
        r = 1 - 1e-9
        checked = 0
        while checked < 20:
            sym = random_symbol(rng)
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            val_exp = limit_logpot(sym, z, r)
            val_sub = limit_logpot(sym, z, 1.0)
            assert val_exp == pytest.approx(val_sub, abs=1e-6)
            checked += 1


class TestLimitUnperturbed:
    def test_triangular_dirac(self):
        # strictly one-sided band: the law is a point mass at a_0 = 0
        assert limit_logpot(SHIFT, 2.0, 0.0) == pytest.approx(math.log(2), abs=1e-9)

    def test_tridiagonal_equals_subexp_here(self):
        assert limit_logpot(TRIDIAG, 3.0, 0.0) == pytest.approx(
            limit_logpot(TRIDIAG, 3.0, 1.0), abs=1e-8
        )

    def test_rho_invariance(self):
        from toepspec.symbol import root_profile

        z = 3.0 + 0.5j
        roots, _ = root_profile(TRIDIAG, z)
        hi, lo = abs(roots[0]), abs(roots[1])
        base = limit_logpot(TRIDIAG, z, 0.0)
        for frac in (0.25, 0.75):
            rho = lo * (hi / lo) ** frac
            alt = circle_quadrature_logpot(TRIDIAG, z, 4096, radius=rho)
            assert alt == pytest.approx(base, abs=1e-6)

    def test_support_set_is_arcsine(self):
        # real z in [-2, 2] has both roots on the unit circle; the law there is
        # the arcsine law, the equilibrium measure of [-2, 2], of capacity 1
        assert abs(limit_logpot(TRIDIAG, 0.5, 0.0)) <= 1e-15

    def test_near_support_set(self):
        # relative root gap 1.2e-4: admitted, and the law is log|w| for the
        # larger root w = (z + sqrt(z^2 - 4)) / 2, here in extended precision
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        z = mpmath.mpc(1, 1e-4)
        exact = float(mpmath.log(abs((z + mpmath.sqrt(z * z - 4)) / 2)))
        assert abs(limit_logpot(TRIDIAG, 1 + 1e-4j, 0.0) - exact) <= 1e-14

    def test_random_symbols_match_quadrature(self):
        # Jensen: the circle mean at any radius inside the root gap is the
        # closed form; the trapezoid rule converges geometrically there
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 40:
            sym = random_symbol(rng)
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            hi, lo = split_root_moduli(sym, z)
            if not (math.isinf(hi) or (hi - lo) >= 1e-2 * hi):
                continue
            if math.isinf(hi):
                rho = 2 * lo if lo > 0 else 1.0
            else:
                rho = hi / 2 if lo == 0 else math.sqrt(hi * lo)
            quad = circle_quadrature_logpot(sym, z, 1 << 18, radius=rho)
            assert limit_logpot(sym, z, 0.0) == pytest.approx(quad, abs=1e-12)
            checked += 1


class TestArrayAgainstPerRoot:
    """The array log-potential and split moduli against root-by-root references on one-point rows."""

    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0])
    def test_random_symbols(self, r):
        def close(a, b):
            return a == b or abs(a - b) <= 1e-13

        rng = np.random.default_rng(80)
        # z = a_0 of a symbol with kmax <= 0 zeroes q_z's top coefficient: a root at infinity
        cases = [(parse_symbol(text), np.array([0j, 0.5 + 0.5j, 2.0])) for text in ("-1:1", "-2:1;-1:0.5")]
        for _ in range(30):
            sym = random_symbol(rng)
            zs = rng.uniform(-3, 3, 10) + 1j * rng.uniform(-3, 3, 10)
            cases.append((sym, np.append(zs, sym.coeffs.get(0, 0j))))
        at_infinity = 0
        for sym, zs in cases:
            got = limit_logpot(sym, zs, r)
            hi, lo = split_root_moduli(sym, zs)
            for z, val, pair in zip(zs.tolist(), got.tolist(), zip(hi.tolist(), lo.tolist())):
                assert close(val, limit_logpot_per_root(sym, z, r)), (sym, z)
                assert all(map(close, pair, split_root_moduli_per_root(sym, z))), (sym, z)
            at_infinity += int(np.isinf(root_profile(sym, zs)[0]).any(axis=-1).sum())
        assert at_infinity >= 4


class TestPushforward:
    """curve_samples(symbol, n) as the n-point quadrature of the push-forward law a(U)."""

    def test_jordan_roots_of_unity(self):
        pts = curve_samples(JORDAN, 4)
        assert sorted(np.round(pts, 12).tolist(), key=lambda c: (c.real, c.imag)) == sorted(
            [1, 1j, -1, -1j], key=lambda c: (c.real, c.imag)
        )

    def test_tridiagonal_points(self):
        pts = np.sort_complex(curve_samples(TRIDIAG, 4))
        np.testing.assert_allclose(pts, [-2, 0, 0, 2], atol=1e-12)

    def test_second_moment(self):
        pts = curve_samples(JORDAN, 64)
        assert float(np.mean(np.abs(pts) ** 2)) == pytest.approx(1.0, rel=1e-12)

    def test_empirical_converges_to_limit(self):
        rng = np.random.default_rng(72)
        push = curve_samples(TRIDIAG, 4096)
        checked = 0
        while checked < 20:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            lim = limit_logpot(TRIDIAG, z, 1.0)
            if float(np.min(np.abs(curve_samples(TRIDIAG, 512) - z))) < 0.05:
                continue
            emp = empirical_logpot(push, z)
            assert emp == pytest.approx(lim, abs=1e-3)
            checked += 1


class TestEnergyDistance:
    def test_identical_zero(self):
        rng = np.random.default_rng(73)
        pts = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        assert energy_distance(pts, pts) == pytest.approx(0.0, abs=1e-13)

    def test_point_masses(self):
        assert energy_distance([0], [0]) == 0.0
        assert energy_distance([0], [1]) == pytest.approx(2.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(74)
        pts = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        other = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        d1 = energy_distance(pts, other)
        d2 = energy_distance(np.flip(pts), rng.permutation(other))
        assert d1 == pytest.approx(d2, rel=1e-12)


class TestMatchCost:
    def test_permuted_targets_zero(self):
        rng = np.random.default_rng(75)
        pts = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        assert match_cost(np.flip(pts), pts, p=2) == pytest.approx(0.0, abs=1e-15)

    def test_single_pair(self):
        assert match_cost([0], [3], p=1) == pytest.approx(3.0)

    def test_forced_matching(self):
        h = 0.01
        for p in (1.0, 2.0):
            expect = (h**p / 2) ** (1 / p)
            assert match_cost([1, -1], [1 + h, -1], p=p) == pytest.approx(expect, rel=1e-12)

    def test_zero_iff_equal_multisets(self):
        rng = np.random.default_rng(76)
        pts = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        assert match_cost(rng.permutation(pts), pts, p=1) == pytest.approx(0.0, abs=1e-15)
        shifted = pts.copy()
        shifted[3] += 0.5
        assert match_cost(shifted, pts, p=1) > 0.01

    def test_size_mismatch(self):
        with pytest.raises(ShapeError):
            match_cost([0, 1], [0], p=1)


class TestDistToCurve:
    def test_point_outside_circle(self):
        assert dist_to_curve([2.0], JORDAN)[0] == pytest.approx(1.0, abs=1e-9)

    def test_point_on_curve(self):
        d = dist_to_curve([np.exp(0.3j)], JORDAN)[0]
        assert d <= 1e-12

    def test_point_on_tridiagonal_segment(self):
        assert dist_to_curve([0.0], TRIDIAG)[0] <= 1e-9

    def test_empty_input(self):
        assert dist_to_curve([], JORDAN).shape == (0,)

    @pytest.mark.parametrize(
        "text,z,want",
        [
            # the centre of a circular curve: every angle is critical
            ("-1:1", 0.0, 1.0),
            ("-1:1", 1e-300, 1.0),
            ("0:0.5;3:2", 0.5, 2.0),
            # |zeta + zeta^2 / 2| = |1 + zeta / 2| >= 1/2, at zeta = -1; the top
            # coefficient of the critical-point polynomial is proportional to z
            *[("1:1;2:0.5", z, 0.5) for z in (0.0, 1e-300, 1e-200, 1e-100, 1e-20)],
            # |1e3 zeta^3 + 1e-3 zeta^-1| = |1e3 zeta^4 + 1e-3| >= 1e3 - 1e-3
            ("3:1e3;-1:1e-3", 0.0, 1e3 - 1e-3),
            # huge points, beside the segment [-2, 2]
            ("-1:1;1:1", 1e300, 1e300),
            ("-1:1;1:1", 1e308 * (1 + 1j), math.sqrt(2) * 1e308),
        ],
    )
    def test_closed_form(self, text, z, want):
        assert dist_to_curve([z], parse_symbol(text))[0] == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("text", ["3:1e3;-1:1e-3", "2:1;-3:1e-8", "-1:1;0:0.5;1:1e-12"])
    def test_badly_scaled_symbols(self, text):
        # The result and the dense search are both distances to points of the
        # curve, so the exact value can only fall below the search, and the
        # refined search comes within 1e-12 of it from above.
        sym = parse_symbol(text)
        rng = np.random.default_rng(19)
        box = curve_samples(sym, 512)
        pts = rng.uniform(box.real.min(), box.real.max(), 8) + 1j * rng.uniform(box.imag.min(), box.imag.max(), 8)
        want = np.array([self._dense_min(sym, p) for p in pts])
        got = dist_to_curve(pts, sym)
        assert np.all(got <= want * (1 + 1e-12))
        assert np.all(got >= want * (1 - 1e-12))

    def test_multiply_covered_curve(self):
        # 3:1e3;-1:1e-3 runs three times round nearly one circle; at 1e3j the
        # three arcs pass at 1e-3, 5e-4 and 5e-4, and the least coarse sample
        # lies on the first
        sym = parse_symbol("3:1e3;-1:1e-3")
        want = self._dense_min(sym, 1e3j)
        assert want == pytest.approx(5.0e-4, rel=1e-4)
        assert dist_to_curve([1e3j], sym)[0] == pytest.approx(want, rel=1e-12)

    def test_huge_coefficients(self):
        # the curve is the segment [-2e308, 2e308], where products of two
        # coefficients overflow; atol is rounding at the curve's scale
        d = dist_to_curve([0.0, 1e308j], parse_symbol("-1:1e308;1:1e308"))
        np.testing.assert_allclose(d, [0.0, 1e308], rtol=1e-15, atol=1e293)

    def test_band_past_numpys_size_limit_is_refused(self):
        # P_z would need 2 * 10^18 + 1 coefficients per point
        with pytest.raises(SizeLimitError, match="array size limit"):
            dist_to_curve([0.5], parse_symbol("-1:1;1000000000000000000:1"))

    def test_non_finite_points_are_infinitely_far(self):
        d = dist_to_curve([np.nan, np.inf, complex(1, np.inf), 2.0], JORDAN)
        np.testing.assert_array_equal(d[:3], np.inf)
        assert d[3] == pytest.approx(1.0, rel=1e-15)

    @staticmethod
    def _dense_min(sym, p, m=1 << 16, fine_m=1 << 10):
        """min |a(e^{it}) - p| over m angles, refined round every coarse local minimum
        within the sampling error (curve speed times half a step) of the least sample.

        Each refinement takes fine_m angles across the two steps round its
        minimum, then narrows to the two fine steps round the least of them,
        four times; so every arc that can hold the nearest point is searched.
        """
        h = 2 * np.pi / m
        t = h * np.arange(m)
        d = np.abs(evaluate(sym, np.exp(1j * t)) - p)
        speed = sum(abs(k * c) for k, c in sym.coeffs.items())
        local = (d <= np.roll(d, 1)) & (d < np.roll(d, -1)) & (d <= d.min() + speed * h / 2)
        local[np.argmin(d)] = True
        best = float(d.min())
        for k in np.flatnonzero(local):
            mid, half = t[k], h
            for _ in range(4):
                fine = mid + half * np.linspace(-1.0, 1.0, fine_m)
                df = np.abs(evaluate(sym, np.exp(1j * fine)) - p)
                j = int(np.argmin(df))
                best = min(best, float(df[j]))
                mid, half = fine[j], 2 * half / (fine_m - 1)
        return best

    def test_matches_dense_minimum_on_random_symbols(self):
        # seed 11 draws a fast curve with a point whose nearest arc falls
        # between two coarse samples that are both farther than another arc's
        for seed in range(12):
            rng = np.random.default_rng(seed)
            sym = random_symbol(rng)
            box = curve_samples(sym, 512)
            pts = rng.uniform(box.real.min(), box.real.max(), 30) + 1j * rng.uniform(
                box.imag.min(), box.imag.max(), 30
            )
            want = [self._dense_min(sym, p) for p in pts]
            assert np.max(np.abs(dist_to_curve(pts, sym) - want)) <= 1e-8, seed


class TestCsvRoundtrip:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(77)
        pts = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        meta = {"symbol": "-1:1", "n": 9, "seed": 5}
        path = tmp_path / "sample.csv"
        write_sample_csv(pts, meta, path)
        back, back_meta = read_sample_csv(path)
        np.testing.assert_array_equal(back, pts)
        assert back_meta == meta
