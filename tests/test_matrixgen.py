
import json
import warnings

import numpy as np
import pytest

from helpers import corner, jordan, random_symbol
from toepspec.errors import ConfigError, DomainError, NonFiniteError, SizeLimitError, UnderflowError
from toepspec.matrixgen import (
    MAX_N,
    PERT_KINDS,
    NoiseSpec,
    PerturbationSpec,
    check_size,
    circulant,
    perturbed,
    sample_noise,
    task_seed,
    toeplitz,
)
from toepspec.symbol import parse_symbol

JORDAN = parse_symbol("-1:1")
TRIDIAG = parse_symbol("-1:1;1:1")


class TestToeplitz:
    def test_jordan_is_superdiagonal(self):
        np.testing.assert_array_equal(toeplitz(JORDAN, 3), jordan(3))

    def test_tridiagonal_2x2(self):
        np.testing.assert_array_equal(toeplitz(TRIDIAG, 2), [[0, 1], [1, 0]])

    def test_shifted_by_z(self):
        m = toeplitz(TRIDIAG, 2) - 3 * np.eye(2)
        np.testing.assert_array_equal(m, [[-3, 1], [1, -3]])

    def test_operator_norm_bounded_by_coefficient_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sym = random_symbol(rng)
            m = toeplitz(sym, 30)
            bound = sum(abs(c) for c in sym.coeffs.values())
            assert np.linalg.norm(m, 2) <= bound + 1e-10


class TestCirculant:
    def test_jordan_circulant(self):
        np.testing.assert_array_equal(
            circulant(JORDAN, 3), [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        )

    def test_eigenvalues_are_symbol_at_roots_of_unity(self):
        c = circulant(JORDAN, 4)
        eigs = sorted(np.linalg.eigvals(c), key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        expect = sorted([1, -1j, -1, 1j], key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        np.testing.assert_allclose(eigs, expect, atol=1e-9)

    def test_tridiagonal_eigenvalues(self):
        c = circulant(TRIDIAG, 4)
        eigs = np.sort_complex(np.linalg.eigvals(c))
        np.testing.assert_allclose(eigs, [-2, 0, 0, 2], atol=1e-9)

    def test_band_too_wide(self):
        with pytest.raises(ConfigError):
            circulant(TRIDIAG, 2)

    @pytest.mark.parametrize("text, n", [("-3:1", 2), ("-1100:1", 20), ("21:2;22:-1", 20), ("-40:1;-41:3", 20), ("7:1;8:2", 3)])
    def test_far_band_wraps_mod_n(self, text, n):
        idx = np.arange(n)
        diff = (idx[:, None] - idx[None, :]) % n
        expect = np.zeros((n, n), dtype=complex)
        for k, c in parse_symbol(text).coeffs.items():
            expect[diff == k % n] = c
        np.testing.assert_array_equal(circulant(parse_symbol(text), n), expect)

    def test_oracle_on_random_symbols(self):
        from toepspec.symbol import curve_samples

        rng = np.random.default_rng(1)
        for _ in range(10):
            sym = random_symbol(rng)
            n = int(rng.integers(sym.kmax - sym.kmin + 1, 201))
            c = circulant(sym, n)
            eigs = np.linalg.eigvals(c)
            expect = curve_samples(sym, n)
            # optimal matching between the two multisets
            from scipy.optimize import linear_sum_assignment

            cost = np.abs(eigs[:, None] - expect[None, :])
            r, cc = linear_sum_assignment(cost)
            scale = np.max(np.abs(expect)) + 1
            assert cost[r, cc].max() <= 1e-8 * scale


class TestJordanCorner:
    def test_jordan_2(self):
        np.testing.assert_array_equal(jordan(2), [[0, 1], [0, 0]])

    def test_corner_2(self):
        np.testing.assert_array_equal(corner(2, 0.5), [[0, 0], [0.5, 0]])

    def test_corner_law_radius(self):
        n, eps = 50, 1e-4
        eigs = np.linalg.eigvals(jordan(n) + corner(n, eps))
        np.testing.assert_allclose(np.abs(eigs), eps ** (1 / n), atol=1e-8)


class TestNoise:
    def test_rademacher_entries(self):
        e = sample_noise(NoiseSpec("rademacher"), 20, seed=5)
        assert set(np.unique(e.real)) == {-1.0, 1.0}
        assert np.all(e.imag == 0)

    def test_determinism(self):
        for kind in ("complex_gaussian", "real_gaussian", "rademacher", "uniform_pm"):
            a = sample_noise(NoiseSpec(kind), 30, seed=7)
            b = sample_noise(NoiseSpec(kind), 30, seed=7)
            np.testing.assert_array_equal(a, b)
            c = sample_noise(NoiseSpec(kind), 30, seed=8)
            assert not np.array_equal(a, c)

    def test_complex_gaussian_variance(self):
        e = sample_noise(NoiseSpec("complex_gaussian"), 500, seed=9)
        var = float(np.mean(np.abs(e) ** 2))
        assert 0.9 <= var <= 1.1

    def test_moments_all_kinds(self):
        for kind in ("complex_gaussian", "real_gaussian", "rademacher", "uniform_pm"):
            e = sample_noise(NoiseSpec(kind), 200, seed=10)
            std = float(np.std(e))
            assert abs(np.mean(e)) <= 5 * std / 200
            assert 0.9 <= float(np.mean(np.abs(e) ** 2)) <= 1.1

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            NoiseSpec("cauchy")


class TestPerturbationSpec:
    def test_couplings(self):
        assert PerturbationSpec("poly", 2).coupling(10) == pytest.approx(0.01)
        assert PerturbationSpec("exp", 0.5).coupling(10) == pytest.approx(2.0**-10)
        assert PerturbationSpec("superexp", 1.0).coupling(10) == pytest.approx(10.0**-10)
        assert PerturbationSpec("macro", 2.0).coupling(4) == pytest.approx(1.0)
        assert PerturbationSpec("none").coupling(10) == 0.0

    def test_underflow(self):
        with pytest.raises(UnderflowError):
            PerturbationSpec("superexp", 1.0).coupling(400)

    def test_overflow(self):
        # 50 ** 700 lies beyond the float range; 50 ** 150 does not
        with pytest.raises(NonFiniteError, match="overflows at n=50"):
            PerturbationSpec("poly", -700).coupling(50)
        assert PerturbationSpec("poly", -150).coupling(50) == pytest.approx(50.0**150)

    def test_parse_grammar(self):
        assert PerturbationSpec.parse("poly:2").value == 2
        assert PerturbationSpec.parse("exp:0.5").value == 0.5
        assert PerturbationSpec.parse("none").kind == "none"
        with pytest.raises(ConfigError):
            PerturbationSpec.parse("poly")
        with pytest.raises(ConfigError):
            PerturbationSpec.parse("weird:1")
        with pytest.raises(ConfigError, match="none perturbation takes no value"):
            PerturbationSpec.parse("none:3")

    def test_validation(self):
        with pytest.raises(ConfigError):
            PerturbationSpec("exp", 1.5)
        with pytest.raises(ConfigError):
            PerturbationSpec("poly")

    def test_takes_only_its_own_field(self):
        foreign = [
            ("macro", {"sigma": 1.0, "r": 5.0}),
            ("none", {"gamma": 2}),
            ("exp", {"r": 0.5, "c": 1.0}),
            ("poly", {"gamma": 2, "r": None}),  # a foreign field is refused even when null
            ("poly", {"gamma": 2, "foo": 1}),
        ]
        for kind, fields in foreign:
            with pytest.raises(ConfigError, match=f"{kind} perturbation takes no field"):
                PerturbationSpec.from_dict({"kind": kind, **fields})
        with pytest.raises(ConfigError, match="none perturbation takes no value"):
            PerturbationSpec("none", 2.0)
        own = {"poly:2": {"gamma": 2.0}, "exp:0.5": {"r": 0.5}, "superexp:1": {"c": 1.0}, "macro:0.5": {"sigma": 0.5}}
        for text, want in [*own.items(), ("none", {})]:
            spec = PerturbationSpec.parse(text)
            assert spec.to_dict() == {"kind": spec.kind, **want}

    def test_dict_roundtrip(self):
        texts = {"poly": "poly:-1.5", "exp": "exp:0.25", "superexp": "superexp:2", "macro": "macro:0.5", "none": "none"}
        assert set(texts) == set(PERT_KINDS)
        for kind, text in texts.items():
            spec = PerturbationSpec.parse(text)
            assert spec.kind == kind
            assert PerturbationSpec.from_dict(spec.to_dict()) == spec
        # a config's integer value stays an integer, so a report echoes it as written
        d = {"kind": "poly", "gamma": 2}
        assert json.dumps(PerturbationSpec.from_dict(d).to_dict()) == json.dumps(d)


class TestPerturbed:
    def test_none_is_plain_toeplitz(self):
        m = perturbed(TRIDIAG, 8, PerturbationSpec("none"), NoiseSpec(), seed=0)
        np.testing.assert_array_equal(m, toeplitz(TRIDIAG, 8))

    def test_poly_coupling_applied(self):
        spec = PerturbationSpec("poly", 2)
        noise = NoiseSpec("complex_gaussian")
        m = perturbed(TRIDIAG, 10, spec, noise, seed=3)
        expect = toeplitz(TRIDIAG, 10) + 0.01 * sample_noise(noise, 10, 3)
        np.testing.assert_array_equal(m, expect)

    def test_scaled_is_similarity(self):
        # D^-1 M D with D = diag(rho^i), checked entrywise against the unscaled matrix;
        # in the second case a_k rho^-k underflows and the band lies outside the matrix
        n = 12
        pert = PerturbationSpec("exp", 0.5)
        noise = NoiseSpec("complex_gaussian")
        idx = np.arange(n)
        for sym, rho in [(TRIDIAG, 0.7), (parse_symbol("-1100:1"), 0.5)]:
            expect = perturbed(sym, n, pert, noise, seed=5) * rho ** (idx[None, :] - idx[:, None])
            got = perturbed(sym, n, pert, noise, seed=5, scale=rho)
            np.testing.assert_allclose(got, expect, rtol=1e-13, atol=0)

    @pytest.mark.parametrize(
        "symbol, pert, scale",
        [
            ("0:1.79e308;-1:1", PerturbationSpec("macro", 1e308), None),  # the noise add overflows
            ("1:1.7e308", PerturbationSpec("exp", 0.5), 0.5),  # the scaled band a_1 / rho overflows
            ("5:1", PerturbationSpec("exp", 0.5), 1e-100),  # rho^-5 itself overflows the float range
            # the noise weight r^n rho^(j-i) overflows far below the diagonal
            ("5:1", PerturbationSpec("exp", 0.5), 1e-30),
            ("-1:1", PerturbationSpec("exp", 0.5), 1e-30),
        ],
        ids=["unscaled", "scaled", "scaled_power", "scaled_weight_upper", "scaled_weight_lower"],
    )
    def test_overflowing_entry_raises(self, symbol, pert, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused without a RuntimeWarning first
            with pytest.raises(NonFiniteError, match="perturbed 30 x 30 matrix overflows"):
                perturbed(parse_symbol(symbol), 30, pert, NoiseSpec(), seed=1, scale=scale)

    def test_overflowing_band_outside_matrix_is_not_placed(self):
        # a_1100 rho^-1100 overflows and a_-1100 rho^1100 underflows; neither band fits
        # in a 20 x 20 matrix, so both builds are the same scaled noise
        pert, noise = PerturbationSpec("exp", 0.5), NoiseSpec()
        upper = perturbed(parse_symbol("1100:1"), 20, pert, noise, seed=1, scale=0.5)
        lower = perturbed(parse_symbol("-1100:1"), 20, pert, noise, seed=1, scale=0.5)
        assert upper.tobytes() == lower.tobytes()

    def test_scale_needs_exp_noise(self):
        with pytest.raises(ConfigError):
            perturbed(TRIDIAG, 12, PerturbationSpec("poly", 2), NoiseSpec(), seed=5, scale=0.7)


class TestTaskSeed:
    def test_deterministic_and_spread(self):
        seeds = {task_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert task_seed(42, 7) == task_seed(42, 7)
        assert task_seed(42, 7) != task_seed(43, 7)


class TestCheckSize:
    def test_bounds(self):
        check_size(1)
        check_size(MAX_N)
        with pytest.raises(DomainError):
            check_size(0)
        with pytest.raises(SizeLimitError):
            check_size(MAX_N + 1)

    def test_limit_is_numpys(self):
        # one past the limit numpy refuses the shape itself, before it allocates anything
        with pytest.raises(ValueError, match="too big"):
            np.empty((MAX_N + 1, MAX_N + 1), dtype=complex)

    @pytest.mark.parametrize("build", [toeplitz, circulant], ids=["toeplitz", "circulant"])
    def test_builders_refuse_sizes_beyond_the_limit(self, build):
        with pytest.raises(SizeLimitError):
            build(JORDAN, 10**20)

    def test_noise_and_coupling_refuse_sizes_beyond_the_limit(self):
        with pytest.raises(SizeLimitError):
            sample_noise(NoiseSpec("rademacher"), 10**20, 1)
        with pytest.raises(SizeLimitError):
            PerturbationSpec("exp", 0.5).coupling(10**20)
