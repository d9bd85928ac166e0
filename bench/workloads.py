"""Workload definitions: fixed rotations of `toepspec run` config shapes.

Each workload is a list of config shapes.  Report i of a run uses shape
i mod K and a config seed drawn from a stream keyed by (workload, --seed), so
the mix is identical in every run and the same --seed gives the same inputs.

Sizes are chosen so that one report takes roughly 0.2-1 s on a 2-vCPU box at
the program's default thread settings: a 25 s run then holds 30-100 reports,
enough for a median and a tail percentile with ten reports above it.  The
per-unit work (the n of each matrix, the per-node kernel) follows the
acceptance scenarios named in the comments; trial counts and grid sizes are
smaller than at acceptance size.
"""

from __future__ import annotations

import copy
import random

JORDAN = "-1:1"
TRIDIAG = "-1:1;1:1"


def _cfg(scenario, symbol, n, pert, trials, noise="complex_gaussian", **params):
    return {
        "scenario": scenario,
        "symbol": symbol,
        "n": n,
        "pert": pert,
        "noise": noise,
        "trials": trials,
        "seed": 0,
        "params": params,
    }


def _grid(re_min, re_max, im_min, im_max, nx, ny):
    return {"re_min": re_min, "re_max": re_max, "im_min": im_min, "im_max": im_max, "nx": nx, "ny": ny}


POLY1 = {"kind": "poly", "gamma": 1.0}
POLY2 = {"kind": "poly", "gamma": 2.0}
POLY3 = {"kind": "poly", "gamma": 3.0}
EXP05 = {"kind": "exp", "r": 0.5}

WORKLOADS: dict[str, list[dict]] = {
    # dense zgeev eigensolves plus per-eigenvalue Python post-processing
    "eig_ensemble": [
        _cfg("lsd_subexp", JORDAN, 500, POLY2, 1),  # c06 shape
        _cfg("no_outlier", JORDAN, 500, POLY2, 1, eps=0.2),  # c09 shape
        _cfg("pairing", JORDAN, 400, POLY1, 2, noise="rademacher"),  # c10 shape
        # c07a shape: its radius criterion is false at every seed (ROADMAP item 5)
        _cfg("lsd_exp", JORDAN, 200, EXP05, 2, check_radius=True, probe_count=4),
    ],
    # LU, SVD and inverse iteration at mid n
    "factor_ensemble": [
        _cfg("grushin", TRIDIAG, 400, POLY3, 2, z=[3.0, 0.2]),  # c05 shape
        _cfg("eigvec_bulk", JORDAN, 100, POLY2, 1),
        _cfg("eigvec_outlier", JORDAN, 100, POLY2, 200, disk_radius=0.8, linf_min=0.2, stop_after_found=10),  # c11 shape
    ],
    # one s_min(zI - M) per grid node
    "pseudospec_grid": [
        # the two perturbed grids cost about the same, so the median and the tail
        # both fall inside their common two-thirds of the reports
        _cfg("pseudospec_map", JORDAN, 50, POLY2, 1, grid=_grid(-2.0, 2.0, -2.0, 2.0, 15, 15)),
        _cfg("pseudospec_map", TRIDIAG, 100, POLY2, 1, grid=_grid(-2.5, 2.5, -1.5, 1.5, 5, 3)),
        _cfg(  # c12 shape: normal matrix, direct-SVD branch for n <= 24
            "pseudospec_map", JORDAN, 8, {"kind": "none"}, 1,
            matrix="circulant", oracle=True, oracle_tol=1e-8,
            grid=_grid(-2.0, 2.0, -2.0, 2.0, 101, 101), levels=[0.1, 0.3],
        ),
    ],
    # scalar symbol kernels: root profiles, winding numbers, region labels
    # c07b runs twice per rotation: a c08 report is ~5x cheaper, and with equal
    # weights the median would fall in the gap between the two shapes
    "probe_logpot": [
        _cfg("lsd_exp", "-1:0.1;1:1", 44, EXP05, 10, check_radius=False, probe_count=10),  # c07b shape
        _cfg("lsd_exp", "-1:0.1;1:1", 44, EXP05, 10, check_radius=False, probe_count=10),
        _cfg("lsd_superexp", "-1:0.5;1:1", 80, {"kind": "superexp", "c": 1.0}, 5, probe_count=10),  # c08 shape
    ],
}


def _smoke(cfg: dict) -> dict:
    """The same scenario at a size that runs in well under a second."""
    cfg = copy.deepcopy(cfg)
    if cfg["scenario"] == "pseudospec_map":
        g = cfg["params"]["grid"]
        g["nx"], g["ny"] = min(g["nx"], 7), min(g["ny"], 5)
        cfg["n"] = min(cfg["n"], 30)
    else:
        cfg["n"] = min(cfg["n"], 60)
    if cfg["scenario"] != "eigvec_outlier":
        cfg["trials"] = min(cfg["trials"], 2)
    if "stop_after_found" in cfg["params"]:
        cfg["params"]["stop_after_found"] = 1
    return cfg


def shapes(workload: str, smoke: bool = False) -> list[dict]:
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    out = [copy.deepcopy(c) for c in WORKLOADS[workload]]
    return [_smoke(c) for c in out] if smoke else out


def config_stream(workload: str, seed: int, smoke: bool = False):
    """Endless configs in rotation order; the config seeds depend only on (workload, seed)."""
    base = shapes(workload, smoke)
    rng = random.Random(f"{workload}/{seed}")
    i = 0
    while True:
        cfg = copy.deepcopy(base[i % len(base)])
        cfg["seed"] = rng.getrandbits(31)
        yield cfg
        i += 1


def rotation(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The first K configs of the stream: one of each shape."""
    stream = config_stream(workload, seed, smoke)
    return [next(stream) for _ in WORKLOADS[workload]]
