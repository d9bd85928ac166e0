import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from helpers import probe_points_off_support_per_draw, probe_points_regions_per_draw, read_sample_csv
from toepspec import experiments
from toepspec.errors import ConfigError
from toepspec.experiments import (
    ExperimentConfig,
    TrialEnsemble,
    run,
    scenario_names,
    scenarios,
    trial_eigenvalues,
)
from toepspec.eigloc import phase_aligned_distance
from toepspec.linalg import eigenvector
from toepspec.matrixgen import NoiseSpec, PerturbationSpec, perturbed, sample_noise, task_seed, toeplitz
from toepspec.measures import match_cost
from toepspec.symbol import parse_symbol

EXPECTED_SCENARIOS = {
    "lsd_subexp",
    "lsd_exp",
    "lsd_superexp",
    "macro",
    "no_outlier",
    "outlier_count",
    "pairing",
    "radius_law",
    "eigvec_bulk",
    "eigvec_outlier",
    "grushin",
    "pseudospec_map",
}


def make_config(scenario, **kw):
    base = dict(
        scenario=scenario,
        symbol="-1:1",
        n=40,
        pert=PerturbationSpec("poly", gamma=2),
        noise=NoiseSpec("complex_gaussian"),
        trials=2,
        seed=7,
        params={},
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestRegistry:
    def test_exactly_twelve_scenarios(self):
        assert set(scenario_names()) == EXPECTED_SCENARIOS
        assert len(scenario_names()) == 12

    def test_each_declares_params_and_criteria(self):
        for name, info in scenarios().items():
            assert isinstance(info["params"], dict)
            assert info["criteria"]
            assert info["description"]

    def test_unknown_scenario_rejected(self):
        cfg = make_config("lsd_subexp")
        bad = ExperimentConfig(
            scenario="nope",
            symbol=cfg.symbol,
            n=cfg.n,
            pert=cfg.pert,
            noise=cfg.noise,
            trials=1,
            seed=0,
        )
        with pytest.raises(ConfigError):
            run(bad)

    def test_unknown_params_rejected(self):
        cfg = make_config("lsd_subexp", params={"bogus": 1})
        with pytest.raises(ConfigError):
            run(cfg)


class TestConfigJson:
    def test_roundtrip(self):
        cfg = make_config("pairing", params={"p": 1.0})
        back = ExperimentConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_noise_as_string(self):
        d = make_config("pairing").to_dict()
        d["noise"] = "rademacher"
        assert ExperimentConfig.from_dict(d).noise.kind == "rademacher"

    def test_missing_field(self):
        d = make_config("pairing").to_dict()
        del d["seed"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    def test_extra_field(self):
        d = make_config("pairing").to_dict()
        d["typo"] = 1
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)


class TestReports:
    def test_criteria_match_registry(self):
        cfg = make_config("pairing", n=30, trials=2)
        report = run(cfg)
        assert set(report.passed) == set(scenarios()["pairing"]["criteria"])

    def test_report_json_has_pass_key(self):
        cfg = make_config("macro", pert=PerturbationSpec("macro", sigma=0.5), n=25)
        report = run(cfg)
        doc = json.loads(report.to_json())
        assert set(doc) == {"scenario", "config", "metrics", "pass", "artifacts"}

    def test_artifacts_written(self, tmp_path):
        cfg = make_config("pairing", n=25, trials=1)
        report = run(cfg, out_dir=tmp_path)
        assert (tmp_path / "report.json").exists()
        for art in report.artifacts:
            assert Path(art).exists()


class TestReproducibility:
    def test_identical_config_identical_report(self):
        cfg = make_config("no_outlier", n=30, trials=2)
        r1 = run(cfg)
        r2 = run(cfg)
        assert r1.to_json() == r2.to_json()

    def test_seed_changes_metrics(self):
        r1 = run(make_config("pairing", n=25, trials=1, seed=1))
        r2 = run(make_config("pairing", n=25, trials=1, seed=2))
        assert r1.metrics["match_costs"] != r2.metrics["match_costs"]


class TestScenarioSmoke:
    """Small-size runs of every scenario: wiring, not statistical power."""

    def test_lsd_subexp(self):
        report = run(make_config("lsd_subexp", n=60, trials=2))
        assert report.passed["energy_distance"]
        assert report.passed["curve_band"]

    def test_lsd_exp_jordan(self):
        cfg = make_config(
            "lsd_exp",
            n=40,
            pert=PerturbationSpec("exp", r=0.5),
            params={"check_radius": True, "probe_count": 4},
        )
        report = run(cfg)
        assert report.passed["radius_band"]
        assert report.passed["logpot_probes"]

    def test_lsd_superexp(self):
        cfg = make_config(
            "lsd_superexp",
            symbol="-1:0.5;1:1",
            n=40,
            pert=PerturbationSpec("superexp", c=1.0),
            params={"probe_count": 4},
        )
        report = run(cfg)
        assert report.passed["logpot_probes"]

    def test_macro(self):
        cfg = make_config("macro", n=30, pert=PerturbationSpec("macro", sigma=0.5))
        assert run(cfg).passed["moments_finite"]

    def test_no_outlier(self):
        report = run(make_config("no_outlier", n=40, trials=2))
        assert report.passed["no_outliers"]

    def test_outlier_count(self):
        report = run(make_config("outlier_count", n=40, trials=2))
        assert report.passed["counted"]

    def test_pairing(self):
        cfg = make_config(
            "pairing", n=64, trials=2, pert=PerturbationSpec("poly", gamma=1)
        )
        report = run(cfg)
        assert report.passed["match_cost"]

    def test_radius_law(self):
        report = run(make_config("radius_law", n=60, trials=2))
        assert report.passed["radius_bound"]

    def test_eigvec_bulk(self):
        report = run(make_config("eigvec_bulk", n=80, trials=1))
        assert report.metrics["qualifying"] > 0
        assert report.passed["localization"]

    def test_eigvec_outlier_vacuous_or_found(self):
        report = run(make_config("eigvec_outlier", n=40, trials=3))
        assert report.passed["outlier_linf"] in (True, False)
        assert report.metrics["trials_run"] <= 3

    def test_grushin(self):
        cfg = make_config(
            "grushin",
            symbol="-1:1;1:1",
            n=60,
            pert=PerturbationSpec("poly", gamma=3),
            trials=3,
        )
        report = run(cfg)
        assert report.passed["equiv_gap"]

    def test_pseudospec_map_circulant_oracle(self):
        cfg = make_config(
            "pseudospec_map",
            n=8,
            trials=1,
            params={
                "matrix": "circulant",
                "oracle": True,
                "grid": {
                    "re_min": -2.0,
                    "re_max": 2.0,
                    "im_min": -2.0,
                    "im_max": 2.0,
                    "nx": 21,
                    "ny": 21,
                },
                "levels": [0.1, 0.3],
            },
        )
        report = run(cfg)
        assert report.passed["nesting"]
        assert report.passed["normal_oracle"]


EXP = PerturbationSpec("exp", r=0.5)
GRID_9 = {"re_min": -2.0, "re_max": 2.0, "im_min": -2.0, "im_max": 2.0, "nx": 9, "ny": 9}


def at_seed_3(scenario, **kw):
    return make_config(scenario, seed=3, **kw)


def circulant_map(**params):
    params = {"matrix": "circulant", "oracle_tol": 0.0, "grid": GRID_9, **params}
    return at_seed_3("pseudospec_map", n=8, trials=1, params=params)


# (id, config, every verdict of its report): one config per criterion that can
# read false, making it false, and one per conditional criterion whose gate is
# shut, where it reads true however strict its param
VERDICT_TABLE = [
    ("energy_tol", at_seed_3("lsd_subexp", params={"energy_tol": 0.0}),
     {"energy_distance": False, "curve_band": True}),
    ("curve_band_mult", at_seed_3("lsd_subexp", params={"band_mult": 0.01}),
     {"energy_distance": True, "curve_band": False}),
    ("radius_band_mult",
     at_seed_3("lsd_exp", pert=EXP, params={"check_radius": True, "band_mult": 0.01, "probe_count": 4}),
     {"radius_band": False, "logpot_probes": True}),
    ("radius_unchecked", at_seed_3("lsd_exp", pert=EXP, params={"band_mult": 0.01, "probe_count": 4}),
     {"radius_band": True, "logpot_probes": True}),
    ("exp_logpot_tol", at_seed_3("lsd_exp", pert=EXP, params={"logpot_tol": 0.0, "probe_count": 4}),
     {"radius_band": True, "logpot_probes": False}),
    ("exp_no_region", at_seed_3("lsd_exp", pert=EXP, params={"probe_count": 100000}),
     {"radius_band": True, "logpot_probes": False}),
    ("superexp_logpot_tol",
     at_seed_3("lsd_superexp", symbol="-1:0.5;1:1", pert=PerturbationSpec("superexp", c=1.0),
               params={"logpot_tol": 0.0, "probe_count": 4}),
     {"logpot_probes": False}),
    ("no_outlier_eps", at_seed_3("no_outlier", pert=PerturbationSpec("poly", gamma=0.5), params={"eps": 1e-9}),
     {"no_outliers": False}),
    ("cost_tol", at_seed_3("pairing", params={"cost_tol": 0.0}), {"match_cost": False}),
    ("radius_law_gamma", at_seed_3("radius_law", pert=PerturbationSpec("poly", gamma=12), params={"eps": 1e-9}),
     {"radius_bound": False}),
    ("loc_mult", at_seed_3("eigvec_bulk", n=60, trials=1, params={"loc_mult": 0.01}), {"localization": False}),
    ("no_qualifying_pair", at_seed_3("eigvec_bulk", n=60, trials=1, params={"c_band": 0.5}),
     {"localization": False}),
    ("linf_min", at_seed_3("eigvec_outlier", params={"linf_min": 0.999}), {"outlier_linf": False}),
    ("no_outlier_found", at_seed_3("eigvec_outlier", params={"linf_min": 0.999, "disk_radius": 0.01}),
     {"outlier_linf": True}),
    ("gap_tol", at_seed_3("grushin", symbol="-1:1;1:1", n=30, params={"gap_tol": 0.0}), {"equiv_gap": False}),
    ("oracle_tol", circulant_map(oracle=True), {"nesting": True, "normal_oracle": False}),
    ("oracle_off", circulant_map(), {"nesting": True, "normal_oracle": True}),
]


class TestVerdicts:
    @pytest.mark.parametrize("cfg,verdicts", [pytest.param(c, v, id=i) for i, c, v in VERDICT_TABLE])
    def test_verdict_table(self, cfg, verdicts):
        passed = run(cfg).passed
        assert passed == verdicts
        assert all(type(v) is bool for v in passed.values())

    def test_rule_rows_name_scenario_params(self):
        for name, sc in experiments._REGISTRY.items():
            for rule in sc.criteria.values():
                if isinstance(rule, tuple):
                    metric, op, param = rule
                    assert op in ("<=", ">="), (name, rule)
                    assert param in sc.defaults, (name, rule)

    def test_missing_metric_raises(self, monkeypatch):
        # a runner that forgets a metric its rule reads must not read as passed
        sc = experiments._REGISTRY["pairing"]
        forgetful = dataclasses.replace(sc, runner=lambda ens, params, out_dir: ({"cost_max": 0.0}, []))
        monkeypatch.setitem(experiments._REGISTRY, "pairing", forgetful)
        with pytest.raises(KeyError, match="ok_frac"):
            run(make_config("pairing", n=10, trials=1))


def _hyperbolic_count(rho):
    """Mean number of zeros in |z| <= rho of the hyperbolic analytic field of intensity 2."""
    return 2 * rho**2 / (1 - rho**2)


class TestOutlierCountLaw:
    """Outliers of a noisy Jordan block follow the zeros of a random analytic field.

    To first order in the coupling, det(J - z + delta G) is delta times
    f(z) = sum_m sqrt(m+1) xi_m z^m with i.i.d. xi_m, whose zeros have density
    2 / (pi (1 - |z|^2)^2) (Sjostrand & Vogel; Basak & Zeitouni, PTRF 2020).
    The mean count in |z| <= rho = 1 - margin is 2 rho^2 / (1 - rho^2) for
    every gamma, so the test checks the structure of the noise, not its scale:
    without noise all 60 eigenvalues sit at 0, and with noise in the corner
    entry alone they sit near |z| = delta^(1/n) ~ 0.87, outside both disks.

    Tolerance: 4 standard errors of the 200-trial mean plus the finite-n
    offset.  The per-trial standard deviation of the count and the offset
    (mean minus law) were measured over 4000 trials at n = 60, poly:2, seed
    1000: sd 0.91 and offset -0.019 +- 0.014 at margin 0.3, sd 0.64 and offset
    -0.000 +- 0.010 at margin 0.5.  Seeds 1-10 at 200 trials read 1.865-1.990
    and 0.595-0.730.
    """

    @pytest.mark.parametrize(
        "margin,sd,offset", [(0.3, 0.91, -0.019), (0.5, 0.64, 0.0)], ids=["margin_0.3", "margin_0.5"]
    )
    def test_mean_count_follows_hyperbolic_law(self, margin, sd, offset):
        trials = 200
        report = run(make_config("outlier_count", n=60, trials=trials, params={"margin": margin}))
        counts = report.metrics["mean_counts_by_winding"]
        assert set(counts) <= {"-1"}  # inside the curve the winding is -1
        law = _hyperbolic_count(1 - margin)
        assert abs(counts.get("-1", 0.0) - (law + offset)) <= 4 * sd / math.sqrt(trials)

    def test_unperturbed_block_counts_every_eigenvalue(self):
        # all 60 eigenvalues sit at 0, the centre of the curve, where every
        # angle is a nearest point
        report = run(make_config("outlier_count", n=60, trials=10, pert=PerturbationSpec("none")))
        assert report.metrics["mean_counts_by_winding"] == {"-1": 60.0}


class TestTrialEigenvalues:
    @pytest.mark.parametrize("symbol", ["-1:1", "1:1"])
    def test_one_sided_band_against_mpmath(self, symbol):
        # r^n = 1e-24 sits below the unscaled solver's floor; the oracle is the
        # unscaled matrix itself, solved in 40-digit arithmetic
        mpmath = pytest.importorskip("mpmath")
        n, r, seed = 24, 0.1, 24
        sym = parse_symbol(symbol)
        noise = NoiseSpec("complex_gaussian")
        t = toeplitz(sym, n)
        e = sample_noise(noise, n, seed)
        with mpmath.workdps(40):
            delta = mpmath.mpf(r) ** n
            m = mpmath.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    m[i, j] = mpmath.mpc(complex(t[i, j])) + delta * mpmath.mpc(complex(e[i, j]))
            ref = np.array([complex(x) for x in mpmath.eig(m, left=False, right=False)])
        got = trial_eigenvalues(sym, n, PerturbationSpec("exp", r=r), noise, seed)
        assert match_cost(got, ref) <= 1e-12
        assert match_cost(np.linalg.eigvals(t + r**n * e), ref) > 1e-12

    def test_two_sided_band_keeps_unscaled_solve(self):
        sym = parse_symbol("-1:0.1;1:1")
        pert = PerturbationSpec("exp", r=0.5)
        noise = NoiseSpec("complex_gaussian")
        plain = np.linalg.eigvals(toeplitz(sym, 30) + 0.5**30 * sample_noise(noise, 30, 3))
        np.testing.assert_array_equal(trial_eigenvalues(sym, 30, pert, noise, 3), plain)


class TestLayering:
    def test_scenarios_use_only_public_api(self):
        # no reaching into private attributes of sibling modules
        src = Path("src/toepspec/experiments.py").read_text(encoding="utf-8")
        for mod in ("symbol", "matrixgen", "linalg", "detexp", "grushin",
                    "measures", "pseudospec", "eigloc", "svgplot"):
            assert not re.search(rf"\b{mod}\._", src), f"private access into {mod}"


class TestArtifactRegeneration:
    @pytest.mark.parametrize(
        "cfg",
        [
            make_config("lsd_subexp", n=30, trials=2, seed=99),
            make_config(
                "lsd_exp",
                n=30,
                trials=2,
                seed=99,
                pert=PerturbationSpec("exp", r=0.5),
                params={"probe_count": 2},
            ),
        ],
        ids=["poly", "exp_scaled"],
    )
    def test_sample_meta_regenerates_bit_exactly(self, tmp_path, cfg):
        run(cfg, out_dir=tmp_path)
        points, meta = read_sample_csv(tmp_path / "eigenvalues.csv")
        regenerated = trial_eigenvalues(
            parse_symbol(meta["symbol"]),
            meta["n"],
            PerturbationSpec.from_dict(meta["pert"]),
            NoiseSpec(meta["noise"]),
            meta["seed"],
        )
        np.testing.assert_array_equal(regenerated, points)


class TestEigenvectorScenariosScaled:
    """Under r^n noise on a one-sided band the eigenvector scenarios solve D^-1 M D."""

    @pytest.mark.parametrize("symbol", ["-1:1", "1:1"])
    def test_mapped_back_vectors_match_unscaled_inverse_iteration(self, symbol):
        # at n = 30, r^n ~ 1e-9 is still resolved by the unscaled matrix, so its
        # inverse-iteration vectors are an independent reference for v = D w
        cfg = make_config("eigvec_outlier", symbol=symbol, n=30, pert=PerturbationSpec("exp", r=0.5), trials=1)
        ens = TrialEnsemble(cfg)
        assert ens.rho is not None
        m = ens.matrix(0)
        plain = perturbed(ens.sym, cfg.n, cfg.pert, cfg.noise, task_seed(cfg.seed, 0))
        worst = max(
            phase_aligned_distance(ens.eigenvector(m, lam), eigenvector(plain, lam))
            for lam in ens.eigenvalues[0]
        )
        assert worst <= 1e-6

    def test_eigvec_outlier_observes_trial_eigenvalues(self):
        pert = PerturbationSpec("exp", r=0.5)
        cfg = make_config("eigvec_outlier", n=100, pert=pert, trials=1)
        report = run(cfg)
        observed = [complex(*o["lambda"]) for o in report.metrics["observations"]]
        eigs = trial_eigenvalues(parse_symbol(cfg.symbol), 100, pert, cfg.noise, task_seed(cfg.seed, 0))
        assert observed == sorted((complex(l) for l in eigs), key=lambda c: (c.real, c.imag))
        # resolved near radius r = 0.5; the unscaled solve returns a
        # rounding-noise ring at |lambda| ~ 0.63 here
        assert np.max(np.abs(observed)) <= 0.55


class TestSeedsOnDemand:
    """Trial t's seed is derived when trial t runs, never for the whole ensemble up front."""

    @pytest.fixture
    def seeded(self, monkeypatch):
        asked = []
        monkeypatch.setattr(experiments, "task_seed", lambda seed, t: asked.append(t) or task_seed(seed, t))
        return asked

    def test_pseudospec_map_derives_one_seed(self, seeded):
        grid = {"re_min": -1, "re_max": 1, "im_min": -1, "im_max": 1, "nx": 5, "ny": 5}
        run(make_config("pseudospec_map", n=8, trials=10**12, params={"grid": grid}))
        assert seeded == [0]

    def test_eigvec_outlier_derives_the_seeds_of_the_trials_it_runs(self, seeded):
        report = run(make_config("eigvec_outlier", trials=10**12, params={"stop_after_found": 20}))
        assert report.metrics["trials_run"] > 1
        assert seeded == list(range(report.metrics["trials_run"]))


class TestProbePlacement:
    """Block placement against the per-draw placement it replaces, draw for draw."""

    @pytest.mark.parametrize(
        "text,r,count,seed",
        [
            ("-1:0.1;1:1", 0.5, 10, 1),  # c07b: stops at the discovery floor
            ("-1:0.1;1:1", 0.5, 10, 2),
            ("-1:1", 0.5, 4, 1),  # winding -1: regions beyond the radius-1/r curve
            ("-1:1", 0.5, 4, 2),
            ("-1:0.3;2:1", 0.5, 40, 4),  # the thin S2,3 fills after ~8k draws
            ("-1:0.3;2:1", 0.5, 40, 9),
            ("-2:1;1:0.2", 0.6, 10, 1),  # stops after 6-7k draws
            ("-2:1;1:0.2", 0.6, 10, 3),
        ],
    )
    def test_regions_match_per_draw_placement(self, text, r, count, seed):
        sym = parse_symbol(text)
        got = experiments._probe_points_regions(sym, r, count, 0.1, seed)
        assert got == probe_points_regions_per_draw(sym, r, count, 0.1, seed)
        assert all(type(z) is complex for zs in got.values() for z in zs)

    def test_draw_cap_below_discovery_floor(self, monkeypatch):
        # the cap ends the draws inside a block, before any stop test can pass
        monkeypatch.setattr(experiments, "_REGION_MAX_DRAWS", 2500)
        sym = parse_symbol("-1:0.3;2:1")
        got = experiments._probe_points_regions(sym, 0.5, 40, 0.1, 1)
        assert got == probe_points_regions_per_draw(sym, 0.5, 40, 0.1, 1)
        assert "S2,3" not in got

    @pytest.mark.parametrize("text,seed", [("-1:0.5;1:1", 1), ("-1:0.5;1:1", 2), ("-2:1;1:0.3", 1)])
    def test_off_support_matches_per_draw_placement(self, text, seed):
        sym = parse_symbol(text)
        got = experiments._probe_points_off_support(sym, 10, 0.1, seed)
        assert got == probe_points_off_support_per_draw(sym, 10, 0.1, seed)

    def test_margin_test_is_the_exact_expression_at_the_margin(self):
        # margins set to each z's own distance, as np.abs and as the k-d tree
        # round it: the tree's verdict alone would be wrong for some of them
        rng = np.random.default_rng(3)
        curves = rng.normal(size=50) + 1j * rng.normal(size=50)
        zs = rng.normal(size=200) + 1j * rng.normal(size=200)
        exact = np.array([np.min(np.abs(curves - z)) for z in zs])
        tree = np.array([np.min(np.sqrt((curves.real - z.real) ** 2 + (curves.imag - z.imag) ** 2)) for z in zs])
        margins = np.concatenate([exact[exact != tree], tree[exact != tree]])
        assert len(margins) >= 20
        tree = cKDTree(np.column_stack([curves.real, curves.imag]))
        for margin in margins:
            assert experiments._near_curves(curves, tree, zs, margin).tolist() == (exact < margin).tolist()
