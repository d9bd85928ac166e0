"""Independent output checks, written against numpy alone.

Nothing here imports toepspec: matrices are rebuilt from the config (or the
eigenvalue sidecar) with a separate implementation of the documented
constructions, so a defect in the program cannot also hide in its oracle.
Every check returns a list of problems; an empty list means the report passed.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

import numpy as np

# declared criteria per scenario, as documented in the README's scenario table
CRITERIA = {
    "lsd_subexp": {"energy_distance", "curve_band"},
    "lsd_exp": {"radius_band", "logpot_probes"},
    "lsd_superexp": {"logpot_probes"},
    "no_outlier": {"no_outliers"},
    "pairing": {"match_cost"},
    "eigvec_bulk": {"localization"},
    "eigvec_outlier": {"outlier_linf"},
    "grushin": {"equiv_gap"},
    "pseudospec_map": {"nesting", "normal_oracle"},
}

EPS = np.finfo(float).eps
FIELD_SAMPLE = 9  # field nodes compared per pseudospectrum report
FIELD_RTOL = 1e-6
_MASK64 = (1 << 64) - 1


def parse_symbol(text: str) -> dict[int, complex]:
    out: dict[int, complex] = {}
    for term in text.split(";"):
        k, c = term.split(":", 1)
        out[int(k)] = out.get(int(k), 0j) + complex(c)
    return out


def _banded(coeffs: dict[int, complex], n: int, wrap: bool) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    for k, c in coeffs.items():
        for i in range(n):
            j = i - k
            if wrap:
                m[i, j % n] = c
            elif 0 <= j < n:
                m[i, j] = c
    return m


def toeplitz(coeffs, n):
    """Entry (i, j) = a_{i-j}."""
    return _banded(coeffs, n, wrap=False)


def circulant(coeffs, n):
    """Entry (i, j) = a_k for the band index k with k = i - j (mod n)."""
    return _banded(coeffs, n, wrap=True)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def task_seed(master: int, index: int) -> int:
    return _splitmix64(_splitmix64(master & _MASK64) ^ (index & _MASK64))


def noise(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=seed & _MASK64))
    if kind == "complex_gaussian":
        g = rng.standard_normal((2, n, n))
        return (g[0] + 1j * g[1]) / math.sqrt(2)
    if kind == "real_gaussian":
        return rng.standard_normal((n, n)).astype(complex)
    if kind == "rademacher":
        return (2.0 * rng.integers(0, 2, size=(n, n)) - 1.0).astype(complex)
    return rng.uniform(-math.sqrt(3), math.sqrt(3), size=(n, n)).astype(complex)


def coupling(pert: dict, n: int) -> float:
    kind = pert["kind"]
    if kind == "none":
        return 0.0
    if kind == "poly":
        return float(n) ** -pert["gamma"]
    if kind == "exp":
        return pert["r"] ** n
    if kind == "superexp":
        return math.exp(-pert["c"] * n * math.log(n))
    return pert["sigma"] / math.sqrt(n)


def noise_kind(noise) -> str:
    return noise["kind"] if isinstance(noise, dict) else noise


def perturbed(symbol: str, n: int, pert: dict, kind: str, seed: int) -> np.ndarray:
    m = toeplitz(parse_symbol(symbol), n)
    delta = coupling(pert, n)
    return m if delta == 0.0 else m + delta * noise(kind, n, seed)


def _smin(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def _is_eigenvalue(m: np.ndarray, lam: complex) -> bool:
    # a computed eigenvalue is exact for m + E with ||E|| ~ eps ||m||
    tol = 1e3 * EPS * m.shape[0] * max(np.linalg.norm(m), 1.0)
    return _smin(m - lam * np.eye(m.shape[0])) <= tol


# ---------------------------------------------------------------------------
# per-artifact checks


def check_report_json(cfg: dict, out_dir: Path):
    """The parsed report, plus problems with its shape."""
    path = out_dir / "report.json"
    if not path.exists():
        return None, ["no report.json"]
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        return None, [f"report.json is not JSON: {exc}"]
    problems = []
    if not isinstance(report, dict) or not {"scenario", "config", "metrics", "pass", "artifacts"} <= set(report):
        return None, ["report.json lacks scenario/config/metrics/pass/artifacts"]
    if report["scenario"] != cfg["scenario"]:
        problems.append(f"scenario {report['scenario']!r} != {cfg['scenario']!r}")
    passed = report["pass"]
    if set(passed) != CRITERIA[cfg["scenario"]]:
        problems.append(f"criteria {sorted(passed)} != declared {sorted(CRITERIA[cfg['scenario']])}")
    if not all(isinstance(v, bool) for v in passed.values()):
        problems.append("a criterion value is not a boolean")
    echo = report["config"]
    for key in ("n", "trials", "seed", "symbol"):
        if echo.get(key) != cfg[key]:
            problems.append(f"config echo {key}={echo.get(key)!r} != {cfg[key]!r}")
    return report, problems


def check_eigenvalues(out_dir: Path) -> list[str]:
    """n eigenvalues whose sum matches the trace of the regenerated matrix."""
    csv_path = out_dir / "eigenvalues.csv"
    meta_path = out_dir / "eigenvalues.csv.meta.json"
    if not csv_path.exists() or not meta_path.exists():
        return ["eigenvalues.csv or its sidecar is missing"]
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    with csv_path.open(encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["re", "im"]:
        return ["eigenvalues.csv has a wrong header"]
    eigs = np.array([complex(float(a), float(b)) for a, b in rows[1:]])
    n = meta["n"]
    if len(eigs) != n:
        return [f"{len(eigs)} eigenvalues for n={n}"]
    m = perturbed(meta["symbol"], n, meta["pert"], meta["noise"], meta["seed"])
    tol = 1e3 * EPS * n * max(np.linalg.norm(m), 1.0)
    err = abs(complex(np.sum(eigs)) - complex(np.trace(m)))
    if not err <= tol:
        return [f"sum of eigenvalues misses trace(M) by {err:.3e} (tol {tol:.1e})"]
    return []


def _pseudospec_matrix(cfg: dict) -> np.ndarray:
    kind = cfg["params"].get("matrix", "perturbed")
    coeffs = parse_symbol(cfg["symbol"])
    if kind == "circulant":
        return circulant(coeffs, cfg["n"])
    if kind == "toeplitz":
        return toeplitz(coeffs, cfg["n"])
    return perturbed(cfg["symbol"], cfg["n"], cfg["pert"], noise_kind(cfg["noise"]), task_seed(cfg["seed"], 0))


def check_field(cfg: dict, out_dir: Path) -> list[str]:
    """Sampled nodes of field.csv against a direct SVD.

    Nodes whose true s_min lies below ~eps ||M|| are unresolved in double
    precision: any value there is rounding noise, so they are skipped, not
    counted as mismatches.
    """
    path = out_dir / "field.csv"
    if not path.exists() or not (out_dir / "contours.svg").exists():
        return ["field.csv or contours.svg is missing"]
    with path.open(encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    g = cfg["params"]["grid"]
    if rows[0] != ["re", "im", "smin"] or len(rows) - 1 != g["nx"] * g["ny"]:
        return ["field.csv has a wrong header or node count"]
    m = _pseudospec_matrix(cfg)
    n = m.shape[0]
    floor = 100 * EPS * n * max(np.linalg.norm(m, 2), 1.0)
    problems = []
    picks = np.unique(np.linspace(0, len(rows) - 2, FIELD_SAMPLE).astype(int))
    res = np.linspace(g["re_min"], g["re_max"], g["nx"])
    ims = np.linspace(g["im_min"], g["im_max"], g["ny"])
    for k in picks:
        re, im, val = (float(x) for x in rows[k + 1])
        if re != res[k % g["nx"]] or im != ims[k // g["nx"]]:
            problems.append(f"node {k} sits at ({re}, {im}), off the grid")
            continue
        want = _smin(complex(re, im) * np.eye(n) - m)
        if want > floor and not abs(val - want) <= FIELD_RTOL * want:
            problems.append(f"node {k}: s_min {val!r} vs direct SVD {want!r}")
    return problems


@functools.lru_cache(maxsize=4)
def _shifted_toeplitz(symbol: str, n: int, z: complex, alpha: float):
    """(A = T_n(a) - zI, (1/n) sum of log s_j(A) over s_j > alpha); seed-independent."""
    a = toeplitz(parse_symbol(symbol), n) - z * np.eye(n)
    s = np.linalg.svd(a, compute_uv=False)
    return a, float(np.sum(np.log(s[s > alpha]))) / n


def check_grushin(cfg: dict, report: dict) -> list[str]:
    """Gaps recomputed from slogdet and one direct SVD of the shifted Toeplitz matrix."""
    p = cfg["params"]
    n = cfg["n"]
    alpha = p.get("alpha") or 1.0 / n
    delta = coupling(cfg["pert"], n)
    a, trunc = _shifted_toeplitz(cfg["symbol"], n, complex(*p["z"]), alpha)
    tol = p.get("gap_tol", 0.05)
    gaps = []
    for t in range(cfg["trials"]):
        q = noise(noise_kind(cfg["noise"]), n, task_seed(cfg["seed"], t))
        _, logabs = np.linalg.slogdet(a + delta * q)
        gaps.append(abs(logabs / n - trunc))
    met = report["metrics"]
    problems = []
    if not math.isclose(met["gaps_max"], max(gaps), rel_tol=1e-6, abs_tol=1e-12):
        problems.append(f"gaps_max {met['gaps_max']!r} vs oracle {max(gaps)!r}")
    if all(abs(g - tol) > 1e-9 for g in gaps):
        ok_frac = float(np.mean([g <= tol for g in gaps]))
        if met["ok_frac"] != ok_frac:
            problems.append(f"ok_frac {met['ok_frac']!r} vs oracle {ok_frac!r}")
    return problems


def _trial_matrices(cfg: dict, trials: int):
    kind = noise_kind(cfg["noise"])
    for t in range(trials):
        yield perturbed(cfg["symbol"], cfg["n"], cfg["pert"], kind, task_seed(cfg["seed"], t))


def check_outliers(cfg: dict, report: dict) -> list[str]:
    """Each reported outlier is an eigenvalue, inside the disk, of one of the trials run."""
    met = report["metrics"]
    mats = list(_trial_matrices(cfg, met["trials_run"]))
    problems = []
    for obs in met["observations"]:
        lam = complex(*obs["lambda"])
        if abs(lam) > cfg["params"]["disk_radius"]:
            problems.append(f"outlier {lam} lies outside the disk")
        elif not any(_is_eigenvalue(m, lam) for m in mats):
            problems.append(f"outlier {lam} is no eigenvalue of the trial matrices")
    return problems


def check_localization(cfg: dict, report: dict, out_dir: Path) -> list[str]:
    """Row count matches the report; three sampled rows are eigenvalues of a trial."""
    qualifying = report["metrics"]["qualifying"]
    path = out_dir / "localization.csv"
    if qualifying == 0:
        return [] if not path.exists() else ["localization.csv written for zero rows"]
    if not path.exists():
        return ["localization.csv is missing"]
    with path.open(encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != qualifying:
        return [f"localization.csv has {len(rows)} rows, report says {qualifying}"]
    mats = list(_trial_matrices(cfg, cfg["trials"]))
    problems = []
    for k in sorted({0, len(rows) // 2, len(rows) - 1}):
        lam = complex(float(rows[k][0]), float(rows[k][1]))
        if not any(_is_eigenvalue(m, lam) for m in mats):
            problems.append(f"localization row {k}: {lam} is no eigenvalue")
    return problems


def check(cfg: dict, out_dir: Path) -> tuple[dict | None, list[str]]:
    """All checks that apply to one report's out-dir."""
    report, problems = check_report_json(cfg, out_dir)
    if report is None or problems:
        return report, problems
    sc = cfg["scenario"]
    if sc in ("lsd_subexp", "lsd_exp", "lsd_superexp", "no_outlier", "pairing"):
        problems += check_eigenvalues(out_dir)
    elif sc == "pseudospec_map":
        problems += check_field(cfg, out_dir)
    elif sc == "grushin":
        problems += check_grushin(cfg, report)
    elif sc == "eigvec_outlier":
        problems += check_outliers(cfg, report)
    elif sc == "eigvec_bulk":
        problems += check_localization(cfg, report, out_dir)
    return report, problems
