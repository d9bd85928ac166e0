"""Registry of named, seeded Monte-Carlo scenarios with machine-checkable reports.

Every scenario reads its trials from one :class:`TrialEnsemble`: trial t's
noise is drawn from :func:`matrixgen.task_seed` (seed, t), so reports are
byte-identical for identical configs.  :func:`run` parses and checks the
config, writes the artifacts, and decides every verdict from the pass rules
declared with the scenario; a runner is only a reduction over the trials to
metrics.  Trials run through :meth:`TrialEnsemble.map`, which splits a large
ensemble over this process and forked workers, one pinned to each other CPU.
Serial: ``eigvec_outlier``'s loop, which stops early, and the Grushin gaps.

Eigenvector direction convention.  For an eigenvalue lambda with winding
number d(lambda) of the symbol curve, the localized mass sits at the FRONT
of the vector when d(lambda) < 0 (forward tail norms decay; the upper-banded
monomial case with its geometric eigenvectors is the model) and at the BACK
when d(lambda) > 0 (reverse tail norms decay).  The scenarios below apply
this mapping when they pick which tail profile to measure.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from . import eigloc, grushin, linalg, matrixgen, measures, pseudospec, svgplot
from ._pool import map_chunks
from .errors import BoundaryError, ConfigError, ConvergenceError, NonFiniteError, OnCurveError
from .errors import SizeLimitError, ToepspecError
from .matrixgen import NoiseSpec, PerturbationSpec, is_real, task_seed
from .symbol import (
    LaurentSymbol,
    classify_region,
    curve_samples,
    parse_symbol,
    root_profiles,
    winding_number,
)

_PROBE_STREAM = 0x70726F62  # distinct seed stream for probe-point placement
_REGION_MAX_DRAWS = 60000  # draws before region probing gives up
_DISCOVERY_FLOOR = 5000  # region probing samples this long so thin regions can show up
_SUPPORT_MAX_DRAWS = 20000  # draws before off-support probing gives up
# probe draws per block, each block's root profiles one stacked solve.  A divisor
# of _DISCOVERY_FLOOR, so region probing that stops at the floor profiles no
# spare draw; 1000 runs as fast but holds ~0.4 MB more peak RSS in profile objects
_PROBE_BLOCK = 250
# relative band around the probe margin inside which the k-d tree's distance is rechecked
_MARGIN_RECHECK = 1e-9


_TYPE_NAMES = {int: "an integer", bool: "true or false", str: "a string"}


def _typed(name: str, value, default):
    """value checked against the type of its default: the schema of configs and params.

    Integers are taken only when exact (20.0 reads as 20, 20.7 is refused),
    and must be positive where the default is; floats are any finite number.
    A None default stands for an optional float, a list default for a list
    of its element type, and a dict default fixes the keys of a nested object.
    """
    if isinstance(default, dict):
        if not isinstance(value, dict) or set(value) != set(default):
            raise ConfigError(f"{name} must be an object with the fields {sorted(default)}")
        return {k: _typed(f"{name}.{k}", value[k], default[k]) for k in default}
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list")
        return [_typed(f"{name}[{i}]", v, default[0]) for i, v in enumerate(value)]
    if type(default) is int and type(value) is float and value.is_integer():
        value = int(value)
    if default is None or type(default) is float:
        ok, want = is_real(value) or value is default, "a finite number"
    elif type(default) is int and default > 0:  # a count
        ok, want = type(value) is int and value > 0, "a positive integer"
    else:
        ok, want = type(value) is type(default), _TYPE_NAMES[type(default)]
    if not ok:
        raise ConfigError(f"{name} must be {want}, got {value!r}")
    return value


def _valid_grid(g: dict) -> bool:
    try:
        pseudospec.GridSpec(**g)
    except ToepspecError:
        return False
    return True


# param -> (predicate on its typed value, what the value must be): the ranges
# that the kernels would otherwise reject mid-run, or not at all
_RANGES = {
    "eps": (lambda e: e > 0, "positive"),
    "margin": (lambda m: m >= 0, "non-negative"),
    "probe_margin": (lambda m: m >= 0, "non-negative"),
    "gap_margin": (lambda g: 0 <= g < 1, "in [0, 1)"),
    "c_band": (lambda c: c > 0, "positive"),
    "supp_mu1": (lambda mu: 0 < mu < 1, "in (0, 1)"),
    "p": (lambda p: p >= 1, "at least 1"),
    "z": (lambda z: len(z) == 2, "[re, im]"),
    "alpha": (lambda a: a is None or a > 0, "positive"),
    "grid": (
        _valid_grid,
        f"a box with re_min < re_max, im_min < im_max and nx, ny >= 2, nx * ny <= {pseudospec.MAX_GRID_NODES}",
    ),
    "levels": (lambda ls: ls and min(ls) > 0 and len(set(ls)) == len(ls), "distinct positive numbers"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    symbol: str
    n: int
    pert: PerturbationSpec
    noise: NoiseSpec
    trials: int
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, default in (("n", 1), ("trials", 1), ("seed", 0)):
            object.__setattr__(self, name, _typed(name, getattr(self, name), default))
        matrixgen.check_size(self.n)  # before a scenario sizes any array by n
        parse_symbol(self.symbol)  # validates

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "symbol": self.symbol,
            "n": self.n,
            "pert": self.pert.to_dict(),
            "noise": {"kind": self.noise.kind},
            "trials": self.trials,
            "seed": self.seed,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        required = {"scenario", "symbol", "n", "pert", "noise", "trials", "seed"}
        missing = required - set(d)
        if missing:
            raise ConfigError(f"config is missing fields: {sorted(missing)}")
        extra = set(d) - required - {"params"}
        if extra:
            raise ConfigError(f"config has unknown fields: {sorted(extra)}")
        noise = d["noise"]
        if isinstance(noise, dict) and set(noise) == {"kind"}:
            noise = noise["kind"]
        if not isinstance(noise, str):
            raise ConfigError("noise must be a kind string or an object with the one field 'kind'")
        params = d.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("params must be an object")
        return cls(
            scenario=str(d["scenario"]),
            symbol=str(d["symbol"]),
            n=d["n"],
            pert=PerturbationSpec.from_dict(d["pert"]),
            noise=NoiseSpec(noise),
            trials=d["trials"],
            seed=d["seed"],
            params=dict(params),
        )


@dataclass(frozen=True)
class ExperimentReport:
    scenario: str
    config: dict
    metrics: dict
    passed: dict
    artifacts: list

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "config": self.config,
            "metrics": self.metrics,
            "pass": self.passed,
            "artifacts": list(self.artifacts),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n"


@dataclass(frozen=True)
class Scenario:
    description: str
    criteria: dict  # criterion -> its pass rule, see _verdict
    defaults: dict
    runner: object
    pert_kind: str | None  # the one perturbation kind the scenario accepts, if any
    eig_artifacts: bool  # write trial 0's eigenvalue CSV, sidecar and scatter plot


def _solve_scale(sym: LaurentSymbol, pert: PerturbationSpec) -> float | None:
    """The rho of the basis D = diag(rho^i) that resolves r^n noise, or None."""
    if pert.kind == "exp":
        if sym.nplus_eff == 0:
            return pert.r
        if sym.nminus_eff == 0:
            return 1.0 / pert.r
    return None


def trial_eigenvalues(
    sym: LaurentSymbol, n: int, pert: PerturbationSpec, noise: NoiseSpec, seed: int
) -> np.ndarray:
    """Eigenvalues of one perturbed realization, a pure function of its arguments.

    Under r^n noise a one-sided band is solved in the basis D = diag(rho^i)
    (see :func:`matrixgen.perturbed`): rho = r for an upper-triangular band
    (nplus_eff = 0), rho = 1/r for a lower-triangular one (nminus_eff = 0).
    Either maps the r^n corner noise to O(r) and shrinks the band, so the
    spectrum is resolved far below the double-precision floor of the
    unscaled solve.  No such rule is settled for two-sided bands, which keep
    the unscaled solve and resolve r^n only while n log10(1/r) <~ 13.
    A real symbol under real noise (or none) gives a real matrix, scaled or
    not, which :func:`linalg.eigenvalues` solves in real arithmetic.
    """
    return linalg.eigenvalues(matrixgen.perturbed(sym, n, pert, noise, seed, scale=_solve_scale(sym, pert)))


def _solve(ens: "TrialEnsemble", t: int) -> np.ndarray:
    return linalg.eigenvalues(ens.matrix(t))


class TrialEnsemble:
    """The trials of one config, each a pure function of (config, t): nothing per trial is kept.

    Trial t's matrix is the one :func:`trial_eigenvalues` solves at seed task_seed(seed, t).
    :meth:`map` runs a per-trial function over all trials, a large ensemble's first stride here and
    the others in forked workers (see :func:`_pool.map_chunks`); :attr:`eigenvalues` maps the eigensolve.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.sym = parse_symbol(cfg.symbol)
        self.rho = _solve_scale(self.sym, cfg.pert)

    def matrix(self, t: int) -> np.ndarray:
        cfg = self.cfg
        return matrixgen.perturbed(self.sym, cfg.n, cfg.pert, cfg.noise, task_seed(cfg.seed, t), scale=self.rho)

    def map(self, fn) -> list:
        """[fn(self, t) for every trial t], in trial order; a worker's results must pickle, fn need not."""
        return map_chunks(lambda ts: [fn(self, t) for t in ts], range(self.cfg.trials), self.cfg.n)

    @cached_property
    def eigenvalues(self) -> list[np.ndarray]:
        return self.map(_solve)

    def eigenvector(self, m: np.ndarray, lam: complex) -> np.ndarray:
        """Unit eigenvector, for the eigenvalue lam, of the unscaled matrix M behind the trial matrix m.

        An eigenvector w of m = D^-1 M D maps back as v = D w.  D is formed
        as exp(i log rho - max) so that no entry overflows, then v is normalized.
        """
        w = linalg.eigenvector(m, lam)
        if self.rho is None:
            return w
        log_d = np.arange(len(w)) * math.log(self.rho)
        v = np.exp(log_d - log_d.max()) * w
        return v / np.linalg.norm(v)


def _probe_blocks(sym: LaurentSymbol, radii, pad: float, seed: int, total: int):
    """`total` pseudo-random points, uniform on the padded box around the curves at radii, in blocks.

    Each block draws (re, im) pairs row by row: the same stream as drawing
    re and im alternately, one point at a time.  The box is built and checked
    on the call, before the first block is drawn.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        pts = np.concatenate([curve_samples(sym, 256, rad) for rad in radii])
        lo = np.array([pts.real.min(), pts.imag.min()]) - pad
        hi = np.array([pts.real.max(), pts.imag.max()]) + pad
        if not np.all(np.isfinite(hi - lo)):
            raise NonFiniteError(f"the probe box around the symbol curves at radii {radii} overflows")
    rng = np.random.Generator(np.random.Philox(key=task_seed(seed, _PROBE_STREAM)))
    sizes = (min(_PROBE_BLOCK, total - start) for start in range(0, total, _PROBE_BLOCK))
    return (rng.uniform(lo, hi, size=(b, 2)).view(complex).ravel() for b in sizes)


def _near_curves(curves: np.ndarray, tree, zs: np.ndarray, margin: float) -> np.ndarray:
    """np.min(np.abs(curves - z)) < margin for each z of zs, exactly.

    The k-d tree over the curve samples decides every z whose nearest
    distance lies outside a thin relative band around margin; the tree's
    rounding differs from np.abs, so the few inside the band are decided by
    the expression itself.
    """
    dist, _ = tree.query(np.column_stack([zs.real, zs.imag]))
    near = dist < margin
    for i in np.flatnonzero(np.abs(dist - margin) <= _MARGIN_RECHECK * margin):
        near[i] = np.min(np.abs(curves - zs[i])) < margin
    return near


def _probe_points_regions(
    sym: LaurentSymbol, r: float, count: int, margin: float, seed: int
) -> dict[str, list[complex]]:
    """Pseudo-random probe points per region, away from all separating curves.

    Only regions that collect the full count are kept; almost-every-point
    statements are then tested on generic points of each fat region.
    """
    from scipy.spatial import cKDTree  # imported here: only lsd_exp places probes

    radii = (1.0, r, 1.0 / r)
    blocks = _probe_blocks(sym, radii, 2 * margin + 0.3, seed, _REGION_MAX_DRAWS)
    curves = np.concatenate([curve_samples(sym, 720, rad) for rad in radii])
    tree = cKDTree(np.column_stack([curves.real, curves.imag]))

    def draws():
        """Each draw with its root profile, or None within margin of a curve."""
        for zs in blocks:
            near = _near_curves(curves, tree, zs, margin)
            profs = iter(root_profiles(sym, zs[~near]))
            for z, too_near in zip(zs.tolist(), near.tolist()):
                yield z, None if too_near else next(profs)

    buckets: dict[str, list[complex]] = {}
    pending = draws()
    for attempt in range(_REGION_MAX_DRAWS):
        if (
            attempt >= _DISCOVERY_FLOOR
            and buckets
            and all(len(b) >= count for b in buckets.values())
        ):
            break
        z, prof = next(pending)  # after the stop test: a stop at a block's end solves no further block
        if prof is None:
            continue
        try:
            key = classify_region(sym, z, r, prof)
        except (BoundaryError, OnCurveError):
            continue
        bucket = buckets.setdefault(key, [])
        if len(bucket) < count:
            bucket.append(z)
    return {k: v for k, v in sorted(buckets.items()) if len(v) >= count}


def _probe_points_off_support(sym: LaurentSymbol, count: int, gap_margin: float, seed: int) -> list[complex]:
    """Probe points with a fat relative gap between the split root moduli.

    The gap keeps the points off the limiting support set of the unperturbed
    matrices, where their limit log-potential is defined.
    """
    out: list[complex] = []
    draws = (z for zs in _probe_blocks(sym, (1.0,), 1.0, seed, _SUPPORT_MAX_DRAWS) for z in zs.tolist())
    for z in draws:
        if len(out) >= count:
            break
        hi, lo = measures.split_root_moduli(sym, z)
        if math.isinf(hi) or (hi > 0 and (hi - lo) / hi >= gap_margin):
            out.append(z)
    if len(out) < count:
        raise ConfigError("could not place enough probe points off the support set")
    return out


def _logpot_devs(eig_trials, zs, sym: LaurentSymbol, r: float) -> list[float]:
    """|mean over trials of the empirical log-potential at z - limit_logpot(sym, z, r)| per probe z."""
    # probes x trials, C-contiguous: each mean reduces a contiguous row, as np.mean of a list does
    emp = np.stack([measures.empirical_logpot(e, zs) for e in eig_trials], axis=1)
    return np.abs(emp.mean(axis=1) - measures.limit_logpot(sym, zs, r)).tolist()


def _write_eigs_artifacts(ens: TrialEnsemble, out_dir: Path) -> list[str]:
    cfg = ens.cfg
    eigs = ens.eigenvalues[0]
    # the stored seed is the realization's own seed, so the sample can be
    # regenerated bit-exactly from the sidecar alone (via trial_eigenvalues)
    meta = {
        "symbol": cfg.symbol,
        "n": cfg.n,
        "pert": cfg.pert.to_dict(),
        "noise": cfg.noise.kind,
        "seed": task_seed(cfg.seed, 0),
        "master_seed": cfg.seed,
        "trial": 0,
    }
    csv_path = out_dir / "eigenvalues.csv"
    measures.write_sample_csv(eigs, meta, csv_path)
    svg_path = out_dir / "eigenvalues.svg"
    svgplot.write_scatter(svg_path, eigs, curve_samples(ens.sym, 512), f"{cfg.scenario}: one realization")
    return [str(csv_path), str(csv_path) + ".meta.json", str(svg_path)]


def _windings(sym: LaurentSymbol, eigs) -> list[int | None]:
    """The symbol curve's winding number around each eigenvalue; None on the curve."""
    out = []
    for lam, prof in zip(eigs, root_profiles(sym, eigs)):
        try:
            out.append(winding_number(sym, complex(lam), prof))
        except OnCurveError:
            out.append(None)
    return out


# ---------------------------------------------------------------------------
# scenario runners: each takes (ensemble, params, out_dir or None) and
# returns (metrics, artifacts of its own); run() decides the verdicts

_REGISTRY: dict[str, Scenario] = {}
_OPS = {"<=": operator.le, ">=": operator.ge}


def _scenario(name, description, criteria, defaults, pert_kind=None, eig_artifacts=True):
    """Register the decorated runner as scenario `name`: criteria map to pass rules, defaults are the params schema."""

    def register(runner):
        _REGISTRY[name] = Scenario(description, dict(criteria), dict(defaults), runner, pert_kind, eig_artifacts)
        return runner

    return register


def _verdict(rule, metrics: dict, params: dict) -> bool:
    """One criterion's verdict under its pass rule; a metric the rule reads and the runner left out raises KeyError.

    A row (metric, op, param) reads metrics[metric] <= or >= params[param]; a function of (metrics, params)
    decides a rule with a gate or a second metric; None marks a criterion nothing evaluates, which reads True.
    """
    if rule is None:
        return True
    if callable(rule):
        return bool(rule(metrics, params))
    metric, op, param = rule
    return bool(_OPS[op](metrics[metric], params[param]))


@_scenario(
    "lsd_subexp",
    "eigenvalues under polynomially small noise approach the symbol-curve law",
    {
        "energy_distance": ("energy_max", "<=", "energy_tol"),
        "curve_band": ("band_fraction_min", ">=", "band_frac_min"),
    },
    {
        "energy_tol": 0.05,
        "band_mult": 5.0,
        "band_frac_min": 0.9,
    },
)
def _run_lsd_subexp(ens: TrialEnsemble, params: dict, out_dir):
    n = ens.cfg.n
    push = curve_samples(ens.sym, n)
    band = params["band_mult"] * math.log(n) / n
    energies = [measures.energy_distance(e, push) for e in ens.eigenvalues]
    band_fracs = [float(np.mean(measures.dist_to_curve(e, ens.sym) <= band)) for e in ens.eigenvalues]
    return {
        "energy_distances": energies,
        "energy_max": max(energies),
        "band_width": band,
        "band_fractions": band_fracs,
        "band_fraction_min": min(band_fracs),
    }, []


def _radius_band(metrics: dict, params: dict) -> bool:
    """Evaluated only with check_radius: the worst trial's in-band fraction."""
    return not params["check_radius"] or metrics["radius_band_fraction_min"] >= params["band_frac_min"]


def _logpot_probes(metrics: dict, params: dict) -> bool:
    """Fails when no region collected its probes, else the worst deviation within logpot_tol."""
    return bool(metrics["logpot_regions"]) and metrics["logpot_dev_max"] <= params["logpot_tol"]


@_scenario(
    "lsd_exp",
    "eigenvalues under noise at scale r^N follow the radius-r limit law",
    {"radius_band": _radius_band, "logpot_probes": _logpot_probes},
    {
        "check_radius": False,
        "band_mult": 5.0,
        "band_frac_min": 0.9,
        "probe_count": 10,
        "probe_margin": 0.1,
        "logpot_tol": 0.1,
    },
    pert_kind="exp",
)
def _run_lsd_exp(ens: TrialEnsemble, params: dict, out_dir):
    sym, n, r = ens.sym, ens.cfg.n, ens.cfg.pert.r
    eig_trials = ens.eigenvalues
    metrics: dict = {"radius_devs": None}
    if params["check_radius"]:
        band = params["band_mult"] * math.log(n) / n
        # the law is about the empirical measure: a few genuine interior
        # eigenvalues per trial (their expected number does not grow with n)
        # are allowed, so the criterion is the in-band fraction per trial
        dev_trials = [np.abs(np.abs(eigs) - r) for eigs in eig_trials]
        fracs = [float(np.mean(d <= band)) for d in dev_trials]
        metrics.update(
            {
                "radius_devs": [float(np.max(d)) for d in dev_trials],
                "radius_band": band,
                "radius_band_fractions": fracs,
                "radius_band_fraction_min": min(fracs),
                "radius_outside": int(sum(np.sum(d > band) for d in dev_trials)),
            }
        )
    probes = _probe_points_regions(sym, r, params["probe_count"], params["probe_margin"], ens.cfg.seed)
    devs_by_region = {key: _logpot_devs(eig_trials, zs, sym, r) for key, zs in probes.items()}
    worst = max((max(devs) for devs in devs_by_region.values()), default=0.0)
    metrics.update(
        {
            "logpot_regions": {k: len(v) for k, v in probes.items()},
            "logpot_devs": devs_by_region,
            "logpot_dev_max": worst,
        }
    )
    return metrics, []


@_scenario(
    "lsd_superexp",
    "noise below every exponential leaves the unperturbed spectral law intact",
    {"logpot_probes": ("logpot_dev_max", "<=", "logpot_tol")},
    {"probe_count": 10, "gap_margin": 0.1, "logpot_tol": 0.1},
    pert_kind="superexp",
)
def _run_lsd_superexp(ens: TrialEnsemble, params: dict, out_dir):
    probes = _probe_points_off_support(ens.sym, params["probe_count"], params["gap_margin"], ens.cfg.seed)
    devs = _logpot_devs(ens.eigenvalues, probes, ens.sym, 0.0)
    return {"logpot_devs": devs, "logpot_dev_max": max(devs), "probes": len(probes)}, []


@_scenario(
    "macro",
    "order-sqrt(1/N) noise: moments and plots only, no closed-form limit",
    {"moments_finite": None},  # run() refuses a non-finite metric before any verdict
    {},
    pert_kind="macro",
)
def _run_macro(ens: TrialEnsemble, params: dict, out_dir):
    # an overflow here is reported by run() as a non-finite metric
    with np.errstate(over="ignore", invalid="ignore"):
        means = [complex(np.mean(e)) for e in ens.eigenvalues]
        second = [float(np.mean(np.abs(e) ** 2)) for e in ens.eigenvalues]
        return {
            "mean_re": float(np.mean([m.real for m in means])),
            "mean_im": float(np.mean([m.imag for m in means])),
            "mean_abs2": float(np.mean(second)),
        }, []


@_scenario(
    "no_outlier",
    "no eigenvalue escapes the eps-fattening of the limit-operator spectrum",
    {"no_outliers": ("max_dist", "<=", "eps")},
    {"eps": 0.2},
)
def _run_no_outlier(ens: TrialEnsemble, params: dict, out_dir):
    eps = params["eps"]
    eigs = np.concatenate(ens.eigenvalues)
    # the limit operator's spectrum is the curve plus every point of nonzero
    # winding, so only winding-0 eigenvalues lie at a positive distance from it
    off = eigs[[w == 0 for w in _windings(ens.sym, eigs)]]
    dists = measures.dist_to_curve(off, ens.sym)
    return {"violations": int(np.sum(dists > eps)), "max_dist": float(np.max(dists, initial=0.0)), "eps": eps}, []


@_scenario(
    "outlier_count",
    "empirical counts of eigenvalues far from the curve, per winding number",
    {"counted": None},  # counts only: no law is checked
    {"margin": 0.1},
)
def _run_outlier_count(ens: TrialEnsemble, params: dict, out_dir):
    margin = params["margin"]
    trial_dicts = []
    for eigs in ens.eigenvalues:
        far = eigs[measures.dist_to_curve(eigs, ens.sym) > margin]
        trial_dicts.append(Counter(str(w) for w in _windings(ens.sym, far) if w is not None))
    keys = sorted(set().union(*trial_dicts))
    mean_counts = {k: float(np.mean([d.get(k, 0) for d in trial_dicts])) for k in keys}
    return {"mean_counts_by_winding": mean_counts, "margin": margin}, []


@_scenario(
    "pairing",
    "optimal matching of eigenvalues to the symbol at roots of unity",
    {"match_cost": ("ok_frac", ">=", "pass_frac")},
    {"p": 1.0, "cost_tol": 0.1, "pass_frac": 0.9},
)
def _run_pairing(ens: TrialEnsemble, params: dict, out_dir):
    if ens.cfg.n > measures.MATCH_MAX_POINTS:
        # each assignment pairs n eigenvalues: refuse before any matrix is built
        raise SizeLimitError(f"assignment capped at {measures.MATCH_MAX_POINTS} points")
    targets = curve_samples(ens.sym, ens.cfg.n)
    costs = [measures.match_cost(e, targets, params["p"]) for e in ens.eigenvalues]
    ok_frac = float(np.mean([c <= params["cost_tol"] for c in costs]))
    return {"match_costs": costs, "cost_max": max(costs), "ok_frac": ok_frac}, []


@_scenario(
    "radius_law",
    "all eigenvalues stay (gamma-1-eps) log N / N inside the unit circle",
    {"radius_bound": ("ok_frac", ">=", "pass_frac")},
    {"eps": 0.5, "pass_frac": 0.9},
    pert_kind="poly",
)
def _run_radius_law(ens: TrialEnsemble, params: dict, out_dir):
    n = ens.cfg.n
    eig_trials = ens.eigenvalues
    bound = (ens.cfg.pert.gamma - 1.0 - params["eps"]) * math.log(n) / n
    min_gaps = [float(np.min(1.0 - np.abs(e))) for e in eig_trials]
    pooled = np.concatenate([1.0 - np.abs(e) for e in eig_trials])
    return {
        "bound": bound,
        "min_gaps": min_gaps,
        "gap_quantiles": {
            "q10": float(np.quantile(pooled, 0.10)),
            "q50": float(np.quantile(pooled, 0.50)),
            "q90": float(np.quantile(pooled, 0.90)),
        },
        "ok_frac": float(np.mean([g >= bound for g in min_gaps])),
    }, []


def _localization_rows(band_lo, band_hi, mu1, ens: TrialEnsemble, t: int) -> list:
    """One row per near-curve eigenpair of trial t, eigenvalues in lexicographic order."""
    m = ens.matrix(t)
    eigs = linalg.eigenvalues(m)
    dists = measures.dist_to_curve(eigs, ens.sym)
    in_band = [i for i in np.lexsort((eigs.imag, eigs.real)) if band_lo <= dists[i] <= band_hi]
    rows = []
    for idx, w in zip(in_band, _windings(ens.sym, eigs[in_band])):
        if not w:  # on the curve (None) or winding 0
            continue
        lam = complex(eigs[idx])
        try:
            v = ens.eigenvector(m, lam)
        except ConvergenceError:
            continue
        profile = eigloc.tail_norm_profile(v, "forward" if w < 0 else "reverse")
        below = np.nonzero(profile <= 0.5)[0]
        tail_halflen = int(below[0]) + 1 if len(below) else len(v)
        rows.append(
            (
                lam,
                float(dists[idx]),
                w,
                float(np.max(np.abs(v))),
                eigloc.supp_size(v, mu1),
                tail_halflen,
            )
        )
    return rows


def _localization(metrics: dict, params: dict) -> bool:
    """Fails without a qualifying eigenpair, else the localized fraction at least frac."""
    return metrics["qualifying"] > 0 and metrics["supp_frac_localized"] >= params["frac"]


@_scenario(
    "eigvec_bulk",
    "eigenvectors of near-curve eigenvalues localize at scale N / log N",
    {"localization": _localization},
    {
        "c_band": 4.0,
        "loc_mult": 4.0,
        "supp_mu1": 0.5,
        "frac": 0.9,
    },
    eig_artifacts=False,
)
def _run_eigvec_bulk(ens: TrialEnsemble, params: dict, out_dir):
    n = ens.cfg.n
    if n < 2:
        raise ConfigError("eigvec_bulk needs n >= 2: its band and localization length scale with log n")
    band_hi = params["c_band"] * math.log(n) / n
    band_lo = math.log(n) / (params["c_band"] * n)
    loc_len = params["loc_mult"] * n / math.log(n)
    linalg.lapack_lu()  # load LAPACK before any fork, or each worker imports scipy.linalg again
    per_trial = ens.map(partial(_localization_rows, band_lo, band_hi, params["supp_mu1"]))
    all_rows = [row for rows in per_trial for row in rows]
    if not all_rows:
        return {"qualifying": 0}, []
    supps = np.array([r[4] for r in all_rows], dtype=float)
    halflens = np.array([r[5] for r in all_rows], dtype=float)
    metrics = {
        "qualifying": len(all_rows),
        "band": [band_lo, band_hi],
        "loc_length": loc_len,
        "supp_median": float(np.median(supps)),
        "supp_frac_localized": float(np.mean(supps <= loc_len)),
        "tail_halflen_median": float(np.median(halflens)),
    }
    artifacts = []
    if out_dir is not None:
        path = out_dir / "localization.csv"
        eigloc.write_localization_csv(all_rows, path)
        artifacts.append(str(path))
    return metrics, artifacts


def _outlier_linf(metrics: dict, params: dict) -> bool:
    """Evaluated only once an outlier is found: its smallest sup-norm at least linf_min."""
    return metrics["linf_min"] is None or metrics["linf_min"] >= params["linf_min"]


def _outlier_observations(disk_radius, ens: TrialEnsemble, t: int) -> list:
    """One observation per eigenpair of trial t within disk_radius, eigenvalues in lexicographic order."""
    m = ens.matrix(t)
    inside = [complex(l) for l in linalg.eigenvalues(m) if abs(l) <= disk_radius]
    found = []
    for lam in sorted(inside, key=lambda c: (c.real, c.imag)):
        try:
            v = ens.eigenvector(m, lam)
        except ConvergenceError:
            continue
        found.append(
            {
                "lambda": [lam.real, lam.imag],
                "linf": float(np.max(np.abs(v))),
                "pure_state_dist": eigloc.phase_aligned_distance(v, eigloc.pure_state(lam, len(v))),
            }
        )
    return found


@_scenario(
    "eigvec_outlier",
    "eigenvectors of deep-interior eigenvalues are completely localized",
    {"outlier_linf": _outlier_linf},
    {"disk_radius": 0.8, "linf_min": 0.2, "stop_after_found": 1},
    eig_artifacts=False,
)
def _run_eigvec_outlier(ens: TrialEnsemble, params: dict, out_dir):
    found = []
    for t in range(ens.cfg.trials):
        found += _outlier_observations(params["disk_radius"], ens, t)
        if found and len(found) >= params["stop_after_found"]:
            break
    return {
        "outliers_found": len(found),
        "trials_run": t + 1,
        "observations": found,
        "linf_min": min((f["linf"] for f in found), default=None),
    }, []


@_scenario(
    "grushin",
    "log-determinant of the noisy matrix vs truncated singular-value sum",
    {"equiv_gap": ("ok_frac", ">=", "pass_frac")},
    {"z": [3.0, 0.2], "alpha": None, "gap_tol": 0.05, "pass_frac": 0.95},
    eig_artifacts=False,
)
def _run_grushin(ens: TrialEnsemble, params: dict, out_dir):
    cfg = ens.cfg
    z = complex(params["z"][0], params["z"][1])
    alpha = params["alpha"] if params["alpha"] is not None else 1.0 / cfg.n
    delta = cfg.pert.coupling(cfg.n)
    a = matrixgen.toeplitz(ens.sym, cfg.n) - z * np.eye(cfg.n)
    sv = linalg.svd(a).singular_values
    # not ens.map: two n=400 gaps, ~15 ms each, slow each other pooled and gain nothing (README)
    gaps = [
        grushin.equivalence_gap(a, sv, matrixgen.sample_noise(cfg.noise, cfg.n, task_seed(cfg.seed, t)), delta, alpha)
        for t in range(cfg.trials)
    ]
    return {
        "gaps_max": max(gaps),
        "gaps_median": float(np.median(gaps)),
        "ok_frac": float(np.mean([g <= params["gap_tol"] for g in gaps])),
        "alpha": alpha,
        "delta": delta,
    }, []


def _normal_oracle(metrics: dict, params: dict) -> bool:
    """Evaluated only for a circulant with oracle set: the field's worst error."""
    if params["matrix"] != "circulant" or not params["oracle"]:
        return True
    return metrics["oracle_err_max"] <= params["oracle_tol"]


@_scenario(
    "pseudospec_map",
    "smallest-singular-value field over a grid, with the normal-matrix oracle",
    # sublevel sets of one field nest at ascending levels, so nesting has nothing to evaluate
    {"nesting": None, "normal_oracle": _normal_oracle},
    {
        "grid": {"re_min": -2.0, "re_max": 2.0, "im_min": -2.0, "im_max": 2.0, "nx": 41, "ny": 41},
        "levels": [0.01, 0.1, 0.5],
        "matrix": "perturbed",
        "oracle": False,
        "oracle_tol": 1e-8,
    },
    eig_artifacts=False,
)
def _run_pseudospec_map(ens: TrialEnsemble, params: dict, out_dir):
    cfg = ens.cfg
    grid = pseudospec.GridSpec(**params["grid"])
    kind = params["matrix"]
    m = matrixgen.build_matrix(kind, ens.sym, cfg.n, cfg.pert, cfg.noise, task_seed(cfg.seed, 0))
    field = pseudospec.smin_field(m, grid)
    levels = sorted(float(l) for l in params["levels"])
    metrics = {
        "field_min": float(field.values.min()),
        "field_max": float(field.values.max()),
        "levels": levels,
    }
    if kind == "circulant" and params["oracle"]:
        spectrum = curve_samples(ens.sym, cfg.n)
        zs = (grid.res()[None, :] + 1j * grid.ims()[:, None]).ravel()
        dist = np.min(np.abs(zs[:, None] - spectrum[None, :]), axis=1)
        metrics["oracle_err_max"] = float(np.max(np.abs(field.values - dist)))
    artifacts = []
    if out_dir is not None:
        csv_path = out_dir / "field.csv"
        svg_path = out_dir / "contours.svg"
        pseudospec.write_field_csv(field, csv_path)
        pseudospec.write_contour_svg(field, levels, svg_path, "pseudospectrum")
        artifacts.extend([str(csv_path), str(svg_path)])
    return metrics, artifacts


def scenarios() -> dict:
    """Static registry listing: criteria and default params per scenario."""
    return {
        name: {
            "description": sc.description,
            "criteria": list(sc.criteria),
            "params": dict(sc.defaults),
        }
        for name, sc in _REGISTRY.items()
    }


def scenario_names() -> list[str]:
    return list(_REGISTRY)


def check_params(scenario: str, params: dict) -> dict:
    """The scenario's defaults updated by params, each checked for type and range.

    Raises ConfigError for an unknown scenario or param, a value of the
    wrong type, or one outside its range in :data:`_RANGES`.
    """
    if scenario not in _REGISTRY:
        raise ConfigError(f"unknown scenario {scenario!r}; see `toepspec list`")
    defaults = _REGISTRY[scenario].defaults
    unknown = set(params) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown params for {scenario}: {sorted(unknown)}")
    out = dict(defaults)
    out.update({k: _typed(f"param {k}", v, defaults[k]) for k, v in params.items()})
    for name in sorted(out.keys() & _RANGES):
        ok, want = _RANGES[name]
        if not ok(out[name]):
            raise ConfigError(f"param {name} must be {want}, got {out[name]!r}")
    return out


def run(config: ExperimentConfig, out_dir=None) -> ExperimentReport:
    """Run one scenario; deterministic given the config (seed included)."""
    params = check_params(config.scenario, config.params)
    sc = _REGISTRY[config.scenario]
    if sc.pert_kind is not None and config.pert.kind != sc.pert_kind:
        raise ConfigError(f"{config.scenario} needs a {sc.pert_kind!r} perturbation")
    ens = TrialEnsemble(config)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    metrics, artifacts = sc.runner(ens, params, out_dir)
    for key, val in metrics.items():
        try:
            json.dumps(val, allow_nan=False)
        except ValueError:
            raise NonFiniteError(f"metric {key} of {config.scenario} is not finite") from None
    passed = {name: _verdict(rule, metrics, params) for name, rule in sc.criteria.items()}
    if sc.eig_artifacts and out_dir is not None:
        artifacts = _write_eigs_artifacts(ens, out_dir) + artifacts
    report = ExperimentReport(
        scenario=config.scenario,
        config=config.to_dict(),
        metrics=metrics,
        passed=passed,
        artifacts=artifacts,
    )
    if out_dir is not None:
        (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
    return report
