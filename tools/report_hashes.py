"""Hash the reports and artifacts of a fixed set of `toepspec run` configs.

Usage (from the repository root):

    python tools/report_hashes.py WORK_DIR [--src SRC_DIR] > hashes.json

The set is every scenario at a small size plus the first rotation of each
benchmark workload at --seed 1.  Each config runs in-process through
`toepspec.cli.main` with a relative out-dir under WORK_DIR, so the artifact
paths inside the reports do not depend on WORK_DIR.  A few `spectrum` and
`pseudospectrum` invocations (the README's two examples at small n, and three
that print to stdout) run the same way.  The output maps each config or
invocation to its exit code and the sha256 prefix of every file it wrote,
plus, for an invocation, of its stdout; it exits 1 if any of them exited
non-zero.  Run it on two checkouts (`--src` picks the package source) and
diff the two outputs to see which reports a change touched.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXP = {"kind": "exp", "r": 0.5}
GRID = {"re_min": -2, "re_max": 2, "im_min": -2, "im_max": 2}


def _cfg(scenario, symbol="-1:1", n=40, pert=None, trials=2, noise="complex_gaussian", **params):
    return {
        "scenario": scenario,
        "symbol": symbol,
        "n": n,
        "pert": pert or {"kind": "poly", "gamma": 2},
        "noise": noise,
        "trials": trials,
        "seed": 7,
        "params": params,
    }


# CLI invocations; "{out}" is the invocation's own output directory
CLI = {
    "cli_spectrum": [
        "spectrum", "--symbol", "-1:1", "--n", "40", "--pert", "poly:2", "--noise", "complex_gaussian",
        "--seed", "7", "--out", "{out}/eigs.csv", "--plot", "{out}/eigs.svg",
    ],
    "cli_spectrum_stdout": ["spectrum", "--symbol", "-1:1;1:1", "--n", "12", "--pert", "exp:0.5", "--seed", "3"],
    # a real matrix with an all-real spectrum: the real solver's float result is cast back to complex
    "cli_spectrum_real": ["spectrum", "--symbol", "-1:1;1:1", "--n", "12", "--pert", "none"],
    "cli_pseudospectrum": [
        "pseudospectrum", "--symbol", "-1:1;1:1", "--n", "20", "--re-min", "-3", "--re-max", "3",
        "--im-min", "-3", "--im-max", "3", "--nx", "21", "--ny", "21", "--levels", "0.01,0.1",
        "--out", "{out}/field.csv", "--plot", "{out}/contours.svg",
    ],
    "cli_pseudospectrum_stdout": [
        "pseudospectrum", "--symbol", "-1:1", "--n", "8", "--matrix", "circulant", "--nx", "9", "--ny", "9",
        "--levels", "0.3,0.1",
    ],
}


def _hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def configs() -> dict:
    out = {
        "lsd_subexp": _cfg("lsd_subexp", n=60),
        "lsd_exp": _cfg("lsd_exp", pert=EXP, check_radius=True, probe_count=4),
        "lsd_exp_2sided": _cfg("lsd_exp", symbol="-1:0.1;1:1", n=30, pert=EXP, probe_count=4),
        # winding number +2 and -2: probes in S2,0 and S2,2, and in S-2,0 and S-2,2,
        # where two log r factors add
        "lsd_exp_d2_upper": _cfg("lsd_exp", symbol="2:1", pert=EXP, probe_count=4),
        "lsd_exp_d2_lower": _cfg("lsd_exp", symbol="-2:1", pert=EXP, probe_count=4),
        # region probing that stops well past the discovery floor, after about 11k and 7k draws
        "lsd_exp_thin_region": _cfg("lsd_exp", symbol="-1:0.3;2:1", pert=EXP, probe_count=40),
        "lsd_exp_d_minus2": _cfg("lsd_exp", symbol="-2:1;1:0.2", pert={"kind": "exp", "r": 0.6}, probe_count=10),
        "lsd_superexp": _cfg(
            "lsd_superexp", symbol="-1:0.5;1:1", pert={"kind": "superexp", "c": 1.0}, probe_count=4
        ),
        "macro": _cfg("macro", n=30, pert={"kind": "macro", "sigma": 0.5}),
        "no_outlier": _cfg("no_outlier"),
        "outlier_count": _cfg("outlier_count"),
        "pairing": _cfg("pairing", n=64, pert={"kind": "poly", "gamma": 1}),
        "radius_law": _cfg("radius_law", n=60),
        "eigvec_bulk": _cfg("eigvec_bulk", n=80, trials=1),
        "eigvec_outlier": _cfg("eigvec_outlier", n=40, trials=3),
        "grushin": _cfg("grushin", symbol="-1:1;1:1", n=60, pert={"kind": "poly", "gamma": 3}, trials=3),
        "pseudospec_map": _cfg("pseudospec_map", n=30, trials=1, grid={**GRID, "nx": 9, "ny": 7}),
        # every level above the field: contours.svg is the bare grid box
        "pseudospec_empty": _cfg(
            "pseudospec_map", n=30, trials=1, grid={**GRID, "nx": 9, "ny": 7}, levels=[50.0, 100.0]
        ),
        "pseudospec_circ": _cfg(
            "pseudospec_map", n=8, trials=1, matrix="circulant", oracle=True,
            grid={**GRID, "nx": 21, "ny": 21}, levels=[0.1, 0.3],
        ),
        "pseudospec_toep": _cfg("pseudospec_map", n=30, trials=1, matrix="toeplitz", grid={**GRID, "nx": 7, "ny": 7}),
        # perturbed, n <= 24: the field goes to LAPACK as several stacks of shifted matrices
        "pseudospec_stacked": _cfg("pseudospec_map", n=16, trials=1, grid={**GRID, "nx": 41, "ny": 41}),
        # eigenvector scenarios under r^n noise on a one-sided symbol (scaled solve)
        "eigvec_outlier_exp": _cfg("eigvec_outlier", n=100, pert=EXP, trials=2, stop_after_found=3),
        # r near 1 keeps the eigenvalues inside the bulk band, so localization.csv has rows
        "eigvec_bulk_exp": _cfg("eigvec_bulk", pert={"kind": "exp", "r": 0.8}, trials=3),
        # work 20 * 100^3 = 2e7, over the pool threshold: on two or more CPUs forked workers share the trials
        "eigvec_bulk_pooled": _cfg("eigvec_bulk", n=100, trials=20),
        # real matrices, solved in real arithmetic: work 3 * 200^3 = 2.4e7 pools the trials on
        # two or more CPUs, and the tridiagonal block's spectrum is all real
        "pairing_real_pooled": _cfg("pairing", n=200, pert={"kind": "poly", "gamma": 1}, trials=3, noise="rademacher"),
        "outlier_count_real": _cfg("outlier_count", symbol="-1:1;1:1", pert={"kind": "none"}),
    }
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    for w in sorted(workloads.WORKLOADS):
        for i, cfg in enumerate(workloads.rotation(w, 1)):
            out[f"bench_{w}_{i}"] = cfg
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("work_dir")
    ap.add_argument("--src", default=str(ROOT / "src"))
    args = ap.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    from toepspec import cli

    todo = configs()
    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    out = {}
    for name, cfg in todo.items():
        Path(f"{name}.json").write_text(json.dumps(cfg), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", f"{name}.json", "--out-dir", f"out/{name}"])
        files = sorted(Path("out", name).glob("*")) if code == 0 else []
        out[name] = {"exit": code, **{f.name: _hash(f.read_bytes()) for f in files}}
    for name, argv in CLI.items():
        out_dir = Path("out", name)
        out_dir.mkdir(parents=True, exist_ok=True)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([a.format(out=out_dir.as_posix()) for a in argv])
        files = sorted(out_dir.glob("*"))
        out[name] = {"exit": code, "stdout": _hash(stdout.getvalue().encode()), **{f.name: _hash(f.read_bytes()) for f in files}}
    print(json.dumps(out, indent=1, sort_keys=True))
    failed = sorted(name for name, entry in out.items() if entry["exit"] != 0)
    if failed:
        print(f"error: non-zero exit from {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
