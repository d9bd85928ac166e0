import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import toepspec
from toepspec import linalg, matrixgen, measures
from toepspec.cli import main
from toepspec.errors import EmptyDataError
from toepspec.svgplot import write_contour, write_scatter


class TestSpectrumCommand:
    def test_writes_csv_and_svg(self, tmp_path, capsys):
        out = tmp_path / "eigs.csv"
        plot = tmp_path / "eigs.svg"
        code = main(
            [
                "spectrum",
                "--symbol",
                "-1:1",
                "--n",
                "50",
                "--pert",
                "poly:2",
                "--noise",
                "complex_gaussian",
                "--seed",
                "7",
                "--out",
                str(out),
                "--plot",
                str(plot),
            ]
        )
        assert code == 0
        assert out.exists() and plot.exists()
        assert out.read_text().startswith("re,im\n")
        assert plot.read_text().startswith("<?xml")

    def test_seed_round_trip_diff_clean(self, tmp_path):
        args = lambda d: [
            "spectrum", "--symbol", "-1:1;1:1", "--n", "30", "--pert", "exp:0.5",
            "--seed", "11", "--out", str(d / "e.csv"), "--plot", str(d / "e.svg"),
        ]
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        d1.mkdir(), d2.mkdir()
        assert main(args(d1)) == 0
        assert main(args(d2)) == 0
        assert (d1 / "e.csv").read_bytes() == (d2 / "e.csv").read_bytes()
        assert (d1 / "e.svg").read_bytes() == (d2 / "e.svg").read_bytes()

    def test_bad_flag_exits_one(self, capsys):
        assert main(["spectrum", "--symbol", "-1:1", "--n", "10", "--frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_bad_symbol_exits_one(self):
        assert main(["spectrum", "--symbol", "huh", "--n", "10"]) == 1

    def test_subnormal_coupling_resolved(self, capsys):
        # coupling 0.01^160 ~ 1e-320 is subnormal; the scaled one-sided solve
        # must neither overflow nor return rounding noise
        n, r = 160, 0.01
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["spectrum", "--symbol", "-1:1", "--n", str(n), "--pert", f"exp:{r}", "--seed", "3"])
        assert code == 0
        lines = capsys.readouterr().out.split()
        eigs = np.array([complex(*map(float, line.split(","))) for line in lines])
        assert len(eigs) == n
        assert np.all(np.abs(np.abs(eigs) - r) <= 5 * math.log(n) / n)


class TestPseudospectrumCommand:
    def test_field_and_contours(self, tmp_path):
        out = tmp_path / "field.csv"
        plot = tmp_path / "c.svg"
        code = main(
            [
                "pseudospectrum", "--symbol", "-1:1", "--n", "12",
                "--matrix", "circulant", "--nx", "31", "--ny", "31",
                "--levels", "0.1,0.3", "--out", str(out), "--plot", str(plot),
            ]
        )
        assert code == 0
        assert out.read_text().startswith("re,im,smin\n")
        assert "data-level" in plot.read_text()

    def test_level_above_the_field_draws_the_empty_box(self, tmp_path):
        plot = tmp_path / "c.svg"
        args = ["pseudospectrum", "--symbol", "-1:1", "--n", "8", "--nx", "5", "--ny", "5"]
        assert main([*args, "--levels", "50", "--plot", str(plot)]) == 0
        svg = plot.read_text()
        assert svg.startswith("<?xml") and "data-level" not in svg


class TestRunCommand:
    def test_runs_config_and_writes_report(self, tmp_path):
        config = {
            "scenario": "pairing",
            "symbol": "-1:1",
            "n": 30,
            "pert": {"kind": "poly", "gamma": 1},
            "noise": "rademacher",
            "trials": 2,
            "seed": 3,
            "params": {"p": 1.0},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "results"
        assert main(["run", str(cfg_path), "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["scenario"] == "pairing"
        assert "match_cost" in report["pass"]

    def test_levels_above_the_field_still_write_the_report(self, tmp_path):
        config = {
            **_TWO_SIDED,
            "scenario": "pseudospec_map",
            "params": {"grid": _GRID, "levels": [50.0, 100.0]},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "results"
        assert main(["run", str(cfg_path), "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["pass"] == {"nesting": True, "normal_oracle": True}
        assert "data-level" not in (out_dir / "contours.svg").read_text()

    def test_report_bytes_do_not_depend_on_blas_threads(self, tmp_path, monkeypatch):
        # this config's report bytes differ between one and two OpenBLAS
        # threads unless the package pins the thread count
        config = {
            "scenario": "eigvec_outlier",
            "symbol": "-1:1",
            "n": 40,
            "pert": {"kind": "poly", "gamma": 2},
            "noise": "complex_gaussian",
            "trials": 3,
            "seed": 7,
            "params": {},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        here = tmp_path / "here"
        here.mkdir()
        monkeypatch.chdir(here)
        assert main(["run", str(cfg_path), "--out-dir", "out"]) == 0
        src = str(Path(toepspec.__file__).resolve().parent.parent)
        argv = [sys.executable, "-m", "toepspec.cli", "run", str(cfg_path), "--out-dir", "out"]
        for threads in ("1", "2"):
            fresh = tmp_path / f"threads{threads}"
            fresh.mkdir()
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            subprocess.run(argv, cwd=fresh, env=env, capture_output=True, check=True)
            assert (fresh / "out" / "report.json").read_bytes() == (here / "out" / "report.json").read_bytes()

    def test_missing_config_exits_one(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 1

    def test_invalid_scenario_exits_one(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "scenario": "bogus", "symbol": "-1:1", "n": 10,
            "pert": {"kind": "none"}, "noise": "rademacher",
            "trials": 1, "seed": 0,
        }))
        assert main(["run", str(cfg_path)]) == 1


_TWO_SIDED = {
    "scenario": "lsd_exp",
    "symbol": "-1:0.1;1:1",
    "n": 20,
    "pert": {"kind": "exp", "r": 0.5},
    "noise": "complex_gaussian",
    "trials": 1,
    "seed": 1,
    "params": {},
}
_HUGE_INDEX = "-1:1;1000000000000000000:1"
_GRID_NO_NY = {"re_min": -1, "re_max": 1, "im_min": -1, "im_max": 1, "nx": 5}
_GRID = {**_GRID_NO_NY, "ny": 4}


def _params(scenario, **params):
    return {"scenario": scenario, "params": params}


@pytest.mark.parametrize(
    "patch, code, needle",
    [
        ({"params": {"probe_count": "3"}}, 1, "probe_count"),
        ({"scenario": "lsd_subexp", "pert": {"kind": "poly", "gamma": "2"}}, 1, "gamma"),
        ({"scenario": "pseudospec_map", "params": {"grid": _GRID_NO_NY}}, 1, "grid"),
        ({"scenario": "macro", "pert": {"kind": "macro", "sigma": 1e308}}, 2, "mean_abs2"),
        ({"scenario": "pairing", "n": 20.7}, 1, "n must be a positive integer"),
        (_params("lsd_subexp", quadrature_n=10), 1, "quadrature_n"),
        (_params("no_outlier", quadrature_n=10), 1, "quadrature_n"),
        ({"scenario": "macro", "pert": {"kind": "macro", "sigma": 1.0, "gamma": 2, "r": 5.0}}, 1, "takes no field"),
        ({"pert": {"kind": "weird", "r": 0.5}}, 1, "unknown perturbation kind 'weird'"),
        ({"pert": {"kind": ["exp"], "r": 0.5}}, 1, "unknown perturbation kind ['exp']"),
        ({"pert": {"kind": "exp", "r": 0.5, "rho": 2}}, 1, "exp perturbation takes no field ['rho']"),
        ({"pert": {"kind": "exp", "r": 0.5, "gamma": None}}, 1, "exp perturbation takes no field ['gamma']"),
        ({"scenario": "outlier_count", "pert": {"kind": "none", "gamma": 2}}, 1, "none perturbation takes no field"),
        ({"pert": {"kind": "exp", "r": True}}, 1, "exp perturbation needs r in (0, 1)"),
        ({"pert": {"kind": "exp", "r": float("nan")}}, 1, "exp perturbation needs r in (0, 1)"),
        ({"pert": {"kind": "exp"}}, 1, "exp perturbation needs r in (0, 1)"),
        (_params("pseudospec_map", grid=_GRID, levels=[-1.0, 0.1]), 1, "param levels"),
        (_params("pseudospec_map", grid=_GRID, levels=[0.1, 0.1]), 1, "param levels"),
        (_params("pseudospec_map", grid=_GRID, levels=[]), 1, "param levels"),
        (_params("pseudospec_map", grid={**_GRID, "re_min": 2}), 1, "param grid"),
        (_params("pseudospec_map", grid={**_GRID, "nx": 1}), 1, "param grid"),
        (_params("pseudospec_map", grid={**_GRID, "nx": 2001, "ny": 2000}), 1, "param grid"),
        (_params("eigvec_bulk", supp_mu1=1.5), 1, "param supp_mu1"),
        (_params("pairing", p=0.5), 1, "param p"),
        (_params("grushin", alpha=-1), 1, "param alpha"),
        ({"scenario": "eigvec_bulk", "n": 1}, 1, "n >= 2"),
        ({"symbol": "0:1"}, 1, "constant symbol"),
        ({"symbol": "-1:nan"}, 1, "not finite"),
        ({"symbol": "-1:1;0:inf"}, 1, "not finite"),
        (_params("no_outlier", eps=0.0), 1, "param eps"),
        (_params("radius_law", eps=-0.5), 1, "param eps"),
        (_params("outlier_count", margin=-0.1), 1, "param margin"),
        (_params("lsd_exp", probe_margin=-0.1), 1, "param probe_margin"),
        (_params("lsd_superexp", gap_margin=1.0), 1, "param gap_margin"),
        (_params("lsd_superexp", gap_margin=-0.1), 1, "param gap_margin"),
        ({**_params("pseudospec_map", grid=_GRID, matrix="circulant"), "n": 2}, 1, "too wide"),
        (_params("lsd_exp", probe_margin=1e308), 2, "probe box"),
        ({"symbol": "-1:1e308"}, 2, "probe box"),
        ({"scenario": "lsd_superexp", "symbol": "-1:1e308;1:1", "pert": {"kind": "superexp", "c": 1}}, 2, "probe box"),
        ({"scenario": "lsd_subexp", "symbol": "-1:1e308", "pert": {"kind": "poly", "gamma": 2}}, 2, "energy_distances"),
        ({"scenario": "pairing", "symbol": "-1:1e308", "pert": {"kind": "poly", "gamma": 2}}, 2, "match_costs"),
        ({"scenario": "no_outlier", "symbol": "-1:1e308", "n": 1, "pert": {"kind": "exp", "r": 0.1}}, 2, "overflows"),
        ({**_params("eigvec_bulk", c_band=1e308), "symbol": "-1:1e308", "n": 7}, 2, "norm overflows"),
        ({"scenario": "lsd_subexp", "pert": {"kind": "poly", "gamma": -700}}, 2, "coupling for kind='poly' overflows"),
        ({"scenario": "grushin", "pert": {"kind": "poly", "gamma": -700}}, 2, "coupling for kind='poly' overflows"),
        (
            {**_params("pseudospec_map", grid=_GRID), "symbol": "0:1.79e308;-1:1", "n": 30,
             "pert": {"kind": "macro", "sigma": 1e308}},
            2,
            "perturbed 30 x 30 matrix overflows",
        ),
        ({"scenario": "lsd_subexp", "n": 1e20, "pert": {"kind": "poly", "gamma": 2}}, 1, "array size limit"),
        ({"scenario": "pairing", "n": 1e20, "pert": {"kind": "poly", "gamma": 1}}, 1, "array size limit"),
        # a symbol index past numpy's array size limit: the root and distance kernels refuse it
        ({"scenario": "no_outlier", "symbol": _HUGE_INDEX, "n": 20, "pert": {"kind": "poly", "gamma": 2}}, 1,
         "array size limit"),
        ({"scenario": "lsd_superexp", "symbol": _HUGE_INDEX, "n": 20, "pert": {"kind": "superexp", "c": 1}}, 1,
         "array size limit"),
    ],
    ids=[
        "string_int_param",
        "string_pert_field",
        "grid_without_ny",
        "overflowing_metric",
        "fractional_n",
        "short_quadrature_lsd_subexp",
        "short_quadrature_no_outlier",
        "macro_pert_with_foreign_fields",
        "unknown_pert_kind",
        "list_pert_kind",
        "foreign_pert_field",
        "null_foreign_pert_field",
        "none_pert_with_field",
        "bool_pert_value",
        "nan_pert_value",
        "missing_pert_value",
        "negative_level",
        "duplicate_level",
        "no_level",
        "inverted_grid_bounds",
        "one_grid_column",
        "grid_over_node_guard",
        "supp_mu1_above_one",
        "pairing_p_below_one",
        "negative_alpha",
        "eigvec_bulk_n_one",
        "constant_symbol",
        "nan_symbol_coefficient",
        "inf_symbol_coefficient",
        "zero_eps",
        "negative_radius_law_eps",
        "negative_margin",
        "negative_probe_margin",
        "gap_margin_one",
        "negative_gap_margin",
        "circulant_band_too_wide",
        "overflowing_probe_margin",
        "overflowing_probe_curves",
        "overflowing_off_support_box",
        "overflowing_energy_distance",
        "overflowing_match_cost",
        "overflowing_root",
        "overflowing_matrix_norm",
        "overflowing_poly_coupling",
        "overflowing_grushin_coupling",
        "overflowing_perturbed_matrix",
        "n_beyond_array_limit",
        "pairing_n_beyond_array_limit",
        "no_outlier_symbol_index_beyond_array_limit",
        "lsd_superexp_symbol_index_beyond_array_limit",
    ],
)
def test_malformed_config_ends_in_one_line(tmp_path, capsys, patch, code, needle):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**_TWO_SIDED, **patch}))
    assert main(["run", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(("error: ", "numerical failure: ")) and needle in err[0]
    # a numerical failure is the one line; a configuration error adds the usage hint
    assert len(err) == (1 if code == 2 else 2)


_SPECTRUM = ["spectrum", "--symbol", "-1:1", "--n", "4"]
_PSEUDO = ["pseudospectrum", "--symbol", "-1:1", "--n", "4", "--nx", "5", "--ny", "5"]


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["spectrum", "--symbol", "-1:nan", "--n", "4"], "not finite"),
        (["spectrum", "--symbol", "-1:inf", "--n", "4"], "not finite"),
        (["spectrum", "--symbol", "0:1", "--n", "4"], "constant symbol"),
        ([*_SPECTRUM, "--n", "0"], "--n"),
        ([*_PSEUDO, "--n", "0"], "--n"),
        ([*_PSEUDO, "--levels", "abc"], "--levels"),
        ([*_PSEUDO, "--levels", "-1"], "param levels"),
        ([*_PSEUDO, "--levels", "0.1,0.1", "--plot", "x.svg"], "param levels"),
        ([*_PSEUDO, "--nx", "1"], "param grid"),
        ([*_PSEUDO, "--re-min", "3"], "param grid"),
        ([*_PSEUDO, "--nx", "3000", "--ny", "3000"], "param grid"),
        ([*_PSEUDO, "--im-max", "nan"], "param grid.im_max"),
        ([*_SPECTRUM, "--pert", "none:3"], "none perturbation takes no value"),
        ([*_PSEUDO, "--symbol", "-1:1;1:1", "--n", "2", "--matrix", "circulant"], "too wide"),
        ([*_SPECTRUM, "--n", "99999999999999999999"], "array size limit"),
        ([*_SPECTRUM, "--n", "99999999999999999999", "--pert", "exp:0.5"], "array size limit"),
        ([*_PSEUDO, "--n", "99999999999999999999"], "array size limit"),
        ([*_PSEUDO, "--n", "99999999999999999999", "--matrix", "circulant"], "array size limit"),
    ],
    ids=[
        "nan_symbol",
        "inf_symbol",
        "constant_symbol",
        "spectrum_n_zero",
        "pseudospectrum_n_zero",
        "non_numeric_levels",
        "negative_level",
        "duplicate_level_with_plot",
        "one_grid_column",
        "inverted_grid_bounds",
        "grid_over_node_guard",
        "nan_grid_bound",
        "none_pert_with_value",
        "circulant_band_too_wide",
        "spectrum_n_beyond_array_limit",
        "spectrum_exp_n_beyond_array_limit",
        "pseudospectrum_n_beyond_array_limit",
        "circulant_n_beyond_array_limit",
    ],
)
def test_malformed_flag_ends_in_one_line(tmp_path, monkeypatch, capsys, argv, needle):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith("error: ") and needle in first
    assert not (tmp_path / "x.svg").exists()


_HUGE_DIAGONAL = ["--symbol=0:1.79e308;-1:1", "--n", "30", "--pert", "macro:1e308"]


@pytest.mark.parametrize(
    "argv, message",
    [
        # 50 ** 700 overflows a float: a numerical failure, as an underflowing coupling is
        ([*_SPECTRUM, "--n", "50", "--pert", "poly:-700"], "coupling for kind='poly' overflows at n=50"),
        (
            [*_PSEUDO, "--n", "50", "--matrix", "perturbed", "--pert", "poly:-700"],
            "coupling for kind='poly' overflows at n=50",
        ),
        # a finite coupling whose noise overflows the diagonal: refused before any solve
        (["spectrum", *_HUGE_DIAGONAL, "--out", "f.csv"], "an entry of the perturbed 30 x 30 matrix overflows"),
        (
            ["pseudospectrum", *_HUGE_DIAGONAL, "--matrix", "perturbed", "--nx", "3", "--ny", "3", "--out", "f.csv"],
            "an entry of the perturbed 30 x 30 matrix overflows",
        ),
    ],
    ids=["spectrum", "pseudospectrum", "spectrum_overflowing_matrix", "pseudospectrum_overflowing_matrix"],
)
def test_overflowing_coupling_flag_ends_in_one_line(tmp_path, monkeypatch, capfd, argv, message):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    # one line on stderr, also at the file-descriptor level, where LAPACK reports illegal arguments
    assert capfd.readouterr().err.splitlines() == [f"numerical failure: {message}"]
    assert [str(w.message) for w in caught] == []
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("flags", [["--pert", "poly:2"], ["--noise", "rademacher"], ["--seed", "0"]])
@pytest.mark.parametrize("matrix", [[], ["--matrix", "toeplitz"], ["--matrix", "circulant"]])
def test_perturbation_flags_need_the_perturbed_matrix(capsys, flags, matrix):
    # they would change nothing: only --matrix perturbed draws noise
    assert main([*_PSEUDO, *matrix, *flags]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error: ")] == [
        f"error: {flags[0]}: only --matrix perturbed draws noise, not --matrix {matrix[1] if matrix else 'toeplitz'}"
    ]
    assert main([*_PSEUDO, "--matrix", "perturbed", *flags]) == 0


@pytest.mark.parametrize(
    "argv, path",
    [
        (["run", "config.json", "--out-dir", "config.json"], "config.json"),
        ([*_SPECTRUM, "--out", "missing/x.csv"], "missing/x.csv"),
        ([*_SPECTRUM, "--plot", "missing/x.svg"], "missing/x.svg"),
        ([*_PSEUDO, "--out", "missing/x.csv"], "missing/x.csv"),
        ([*_PSEUDO, "--plot", "missing/x.svg"], "missing/x.svg"),
    ],
    ids=["run_out_dir_is_a_file", "spectrum_out", "spectrum_plot", "pseudospectrum_out", "pseudospectrum_plot"],
)
def test_unwritable_output_ends_in_one_line(tmp_path, monkeypatch, capsys, argv, path):
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(_TWO_SIDED))
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and path in err[0]


class TestListCommand:
    def test_lists_twelve(self, capsys):
        assert main(["list"]) == 0
        names = capsys.readouterr().out.split()
        assert len(names) == 12


_SCIPY_SUBMODULES = """
import json, sys
from pathlib import Path
from toepspec import _pool, cli

def loaded():
    return [m for m in ("scipy.linalg", "scipy.optimize", "scipy.spatial") if m in sys.modules]

out, steps = Path(sys.argv[1]), {}
assert cli.main(["list"]) == 0
steps["list"] = loaded()
for name, cfg in json.loads(sys.argv[2]).items():
    (out / f"{name}.json").write_text(json.dumps(cfg))
    assert cli.main(["run", str(out / f"{name}.json"), "--out-dir", str(out / name)]) == 0
    steps[name] = loaded()
# an s_min field above n = 24 on a grid large enough to be split over workers
assert 15 * 11 * 30**3 >= _pool._POOL_MIN_WORK
field = ["pseudospectrum", "--symbol=-1:1", "--n", "30", "--matrix", "perturbed", "--pert", "poly:2"]
assert cli.main(field + ["--nx", "15", "--ny", "11", "--out", str(out / "field.csv")]) == 0
steps["pseudospectrum"] = loaded()
print(json.dumps(steps))
"""


def test_commands_import_only_the_scipy_submodules_they_use(tmp_path):
    # each command starts in a fresh interpreter, where importing scipy.linalg
    # or scipy.optimize alone takes longer than a small run
    small = {"symbol": "-1:1;1:1", "n": 30, "pert": {"kind": "poly", "gamma": 1}, "noise": "rademacher", "seed": 3}
    configs = {
        "lsd_subexp": {**small, "scenario": "lsd_subexp", "trials": 2, "params": {}},
        "lsd_exp": {
            **small,
            "scenario": "lsd_exp",
            "pert": {"kind": "exp", "r": 0.5},
            "trials": 2,
            "params": {"probe_count": 4},
        },
        "grushin": {**small, "scenario": "grushin", "trials": 1, "params": {}},
        # a Jordan band, where eigvec_bulk finds qualifying eigenpairs at n = 30
        "eigvec_bulk": {
            **small,
            "symbol": "-1:1",
            "pert": {"kind": "poly", "gamma": 2},
            "scenario": "eigvec_bulk",
            "trials": 1,
            "params": {},
        },
        "eigvec_outlier": {**small, "scenario": "eigvec_outlier", "trials": 2, "params": {}},
        "pseudospec_map": {
            **small,
            "scenario": "pseudospec_map",
            "trials": 1,
            "params": {"grid": {"re_min": -2, "re_max": 2, "im_min": -2, "im_max": 2, "nx": 5, "ny": 5}},
        },
        "pairing": {**small, "scenario": "pairing", "trials": 1, "params": {}},
    }
    src = str(Path(toepspec.__file__).resolve().parent.parent)
    argv = [sys.executable, "-c", _SCIPY_SUBMODULES, str(tmp_path), json.dumps(configs)]
    out = subprocess.run(argv, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    steps = json.loads(out.stdout.splitlines()[-1])
    # the s_min iteration above n = 24 and the pairing's assignment load
    # their compiled kernels alone, never the package around them
    assert steps == {name: [] for name in ["list", *configs, "pseudospectrum"]}


class TestRenderSvg:
    """The two SVG writers: eigenvalues over a curve, and level lines."""

    def test_scatter_has_point_elements(self, tmp_path):
        write_scatter(tmp_path / "s.svg", [1, 1j, -1, -1j, 0.5], [1, 1j, -1, -1j], "t")
        svg = (tmp_path / "s.svg").read_text()
        assert svg.count("<circle") == 5
        assert svg.count("<path") == 1 and " Z" in svg

    def test_contour_single_path(self, tmp_path):
        # one path per polyline of two or more vertices
        square = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
        inner = [(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)]
        write_contour(tmp_path / "c.svg", [(0.5, square), (0.5, inner), (0.9, [(0.5, 0.5)])], (), "t")
        svg = (tmp_path / "c.svg").read_text()
        assert svg.count("data-level") == 2 and svg.count('data-level="0.5"') == 2

    def test_contour_without_lines_frames_its_box(self, tmp_path):
        write_contour(tmp_path / "c.svg", [], (-1.0, 3.0, -2.0, 2.0), "t")
        svg = (tmp_path / "c.svg").read_text()
        assert "data-level" not in svg
        # the box padded by 5 % per side sets the outer tick labels
        for tick in ("-1.2", "3.2", "-2.2", "2.2"):
            assert f">{tick}</text>" in svg

    def test_deterministic(self, tmp_path):
        for name in ("a.svg", "b.svg"):
            write_scatter(tmp_path / name, [0.3 + 0.1j, -0.2j], [1, 1j, -1], "t")
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(EmptyDataError):
            write_scatter(tmp_path / "s.svg", [], [1, 1j, -1], "t")


class TestSizeLimits:
    @pytest.mark.parametrize("command", ["spectrum", "pseudospectrum"])
    def test_out_of_memory_exits_one(self, monkeypatch, capsys, command):
        # the matrix build raises as numpy does when it cannot allocate; nothing is allocated
        def no_memory(symbol, n):
            raise MemoryError(f"Unable to allocate an array with shape ({n}, {n})")

        monkeypatch.setattr(matrixgen, "toeplitz", no_memory)
        assert main([command, "--symbol=-1:1", "--n", "1000000"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: out of memory")

    def test_assignment_cap_is_a_configuration_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(measures, "MATCH_MAX_POINTS", 10)
        solved = []
        monkeypatch.setattr(linalg, "eigenvalues", lambda m: solved.append(m))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**_TWO_SIDED, "scenario": "pairing", "pert": {"kind": "poly", "gamma": 1}}))
        assert main(["run", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: assignment capped at 10 points")
        # the cap is known from n alone: no trial is solved first
        assert solved == []
