"""Self-test of the benchmark at smoke size.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

It covers config generation, the oracles (including that they reject
corrupted output), the traced wrappers and their rebinding across modules,
and the JSON result line, on every workload.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from toepspec import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_config_stream_is_a_function_of_the_seed():
    a = workloads.rotation("eig_ensemble", 7)
    assert a == workloads.rotation("eig_ensemble", 7)
    assert a != workloads.rotation("eig_ensemble", 8)
    assert [c["scenario"] for c in a] == [c["scenario"] for c in workloads.WORKLOADS["eig_ensemble"]]
    stream = workloads.config_stream("eig_ensemble", 7)
    first_two = [next(stream) for _ in range(2 * len(a))]
    assert first_two[: len(a)] == a
    assert [c["seed"] for c in first_two[len(a):]] != [c["seed"] for c in a]


def _check_result(result, section):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"} and math.isfinite(m["value"])
    json.loads(json.dumps(result, allow_nan=False))


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_end_to_end(workload, tmp_path):
    result, info = run.execute(workload, 3, 0.2, False, tmp_path / "w", smoke=True, setup_runs=1)
    _check_result(result, "end_to_end")
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert info["timed_reports"] >= len(workloads.WORKLOADS[workload])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_traced(workload, tmp_path):
    result, info = run.execute(workload, 3, 0.2, True, tmp_path / "w", smoke=True)
    _check_result(result, "per_layer")
    assert info["drift"] == 0 and info["passes_traced"] >= 2
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["cli.main.self_s"] > 0 and m["experiments.run.self_s"] > 0
    assert m["io.artifact_bytes"] > 0
    if workload == "pseudospec_grid":
        nodes = sum(c["params"]["grid"]["nx"] * c["params"]["grid"]["ny"] for c in workloads.shapes(workload, True))
        assert m["pseudospec.smin_field.nodes"] == nodes
        assert 0 < m["linalg.smin_fallback_frac"] < 1
        assert m["linalg.eigenvalues.calls"] == 0
    if workload == "factor_ensemble":
        assert m["grushin.truncated_logdet.calls"] == workloads.shapes(workload, True)[0]["trials"]
        assert m["linalg.eigenvector.calls"] > 0
    if workload == "probe_logpot":
        assert 0 < m["experiments.probe_accept_frac"] < 1
    if workload == "eig_ensemble":
        assert m["measures.dist_to_curve.points"] > 0
        assert m["linalg.smallest_singular.calls"] == 0


def test_tracer_rebinds_every_binding():
    from toepspec import experiments, grushin, linalg, measures, pseudospec, symbol

    originals = (symbol.classify_region, linalg.svd, linalg.smallest_singular, symbol.root_profile)
    t = tracer_mod.Tracer()
    with t.installed():
        assert experiments.classify_region is symbol.classify_region is measures.classify_region
        assert symbol.classify_region.__wrapped__ is originals[0]
        assert grushin.svd is linalg.svd and linalg.svd.__wrapped__ is originals[1]
        assert pseudospec.smallest_singular is linalg.smallest_singular
        assert measures.root_profile is symbol.root_profile
        # an s_min fallback calls svd from linalg's own namespace
        linalg.svd(linalg.np.eye(3))
        assert t.metrics()["linalg.svd.calls"] == 1
    assert (symbol.classify_region, linalg.svd, linalg.smallest_singular, symbol.root_profile) == originals
    assert experiments.classify_region is originals[0] and grushin.svd is originals[1]


def _one_report(cfg, tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_path), "--out-dir", str(out)]) == 0
    report, problems = oracles.check(cfg, out)
    assert problems == []
    return report, out


def _smoke_cfg(workload, index):
    return workloads.rotation(workload, 5, smoke=True)[index]


def test_oracles_reject_wrong_eigenvalues(tmp_path):
    cfg = _smoke_cfg("eig_ensemble", 0)
    _, out = _one_report(cfg, tmp_path)
    path = out / "eigenvalues.csv"
    lines = path.read_text().splitlines()
    lines[1] = "0.5,0.5"
    path.write_text("\n".join(lines) + "\n")
    assert oracles.check_eigenvalues(out)
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert oracles.check_eigenvalues(out)


def test_oracles_reject_wrong_field_values(tmp_path):
    cfg = _smoke_cfg("pseudospec_grid", 0)
    _, out = _one_report(cfg, tmp_path)
    path = out / "field.csv"
    lines = path.read_text().splitlines()
    re_, im_, val = lines[1].split(",")
    lines[1] = f"{re_},{im_},{float(val) * 1.01!r}"
    path.write_text("\n".join(lines) + "\n")
    assert oracles.check_field(cfg, out)


def test_oracles_reject_wrong_grushin_metrics(tmp_path):
    cfg = _smoke_cfg("factor_ensemble", 0)
    report, _ = _one_report(cfg, tmp_path)
    report["metrics"]["gaps_max"] *= 1.001
    assert oracles.check_grushin(cfg, report)


def test_oracles_reject_missing_criterion(tmp_path):
    cfg = _smoke_cfg("probe_logpot", 1)
    _, out = _one_report(cfg, tmp_path)
    path = out / "report.json"
    report = json.loads(path.read_text())
    report["pass"].pop(next(iter(report["pass"])))
    path.write_text(json.dumps(report))
    assert oracles.check_report_json(cfg, out)[1]


def test_oracles_reject_false_outliers(tmp_path):
    cfg = _smoke_cfg("factor_ensemble", 2)
    report, _ = _one_report(cfg, tmp_path)
    assert report["metrics"]["observations"]
    report["metrics"]["observations"][0]["lambda"] = [0.01, 0.02]
    assert oracles.check_outliers(cfg, report)


def test_tail_percentile_keeps_ten_above():
    vals = [float(i) for i in range(1, 41)]
    value, pct = run.tail(vals)
    assert sum(v > value for v in vals) == 10 and pct == 75.0


def test_command_line_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "probe_logpot", "--seed", "2", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    _check_result(last, "end_to_end")
    env = json.loads(next(l for l in proc.stdout.splitlines() if l.startswith("env "))[4:])
    assert env["TOEPSPEC_THREADS"] == "unset" and env["nproc"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eig_ensemble", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
