"""Empirical spectral measures, closed-form limit log-potentials, and
distances between point sets.

The log-potential of a measure mu at z is int log|z - x| dmu(x); for the
empirical measure of eigenvalues it is (1/n) sum log|z - lambda_i|, which is
also (1/n) log|det(z - M)|.  The three limit laws implemented here are the
push-forward of the uniform circle measure by the symbol (sub-exponential
noise), its radius-r refinement (noise at scale r^N), and the law of the
unperturbed matrices themselves (super-exponentially small noise).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import (
    BadPointError,
    EmptyDataError,
    LambdaSetError,
    NonFiniteError,
    OnCurveError,
    ShapeError,
    SizeLimitError,
)
from .symbol import (
    LaurentSymbol,
    RegionKind,
    RootProfile,
    classify_region,
    curve_samples,
    evaluate,
    root_profile,
)

MATCH_MAX_POINTS = 1024
# relative gap between the split root moduli below which z counts as on the
# limiting support set of the unperturbed matrices
_SUPPORT_REL_GAP = 1e-6


@dataclass(frozen=True)
class SpectralSample:
    """A set of spectral points plus the provenance needed to regenerate it."""

    points: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=complex).ravel())


def empirical_logpot(sample: SpectralSample, z: complex) -> float:
    """(1/n) sum log|z - lambda_i|; -inf when z hits a point exactly."""
    pts = sample.points
    if len(pts) == 0:
        raise EmptyDataError("empty spectral sample")
    d = np.abs(z - pts)
    if np.any(d == 0):
        return -math.inf
    return float(np.mean(np.log(d)))


def _log_leading_and_top_roots(prof: RootProfile, count: int) -> float:
    """log|leading| + sum of log moduli of the `count` largest roots.

    Roots at infinity pair off against the vanished top coefficients, so the
    combination stays finite provided count >= number of infinite roots.
    """
    if count < prof.infinite:
        raise BadPointError("log-potential formula needs more roots than sit at infinity")
    finite_count = count - prof.infinite
    val = math.log(abs(prof.leading))
    for j in range(finite_count):
        r = abs(prof.roots[j])
        if r == 0:
            return -math.inf
        val += math.log(r)
    return val


def limit_logpot_subexp(symbol: LaurentSymbol, z: complex) -> float:
    """Log-potential of the push-forward of the uniform circle measure by the symbol.

    Equals log|leading| + sum over roots outside the unit circle of log|zeta_j|,
    and matches the circle quadrature of log|a(u) - z| (Jensen's formula).
    """
    prof = root_profile(symbol, z)
    if prof.on_circle:
        raise OnCurveError(f"z = {z} lies on the symbol curve")
    return _log_leading_and_top_roots(prof, prof.mplus)


def circle_quadrature_logpot(symbol: LaurentSymbol, z: complex, n: int = 4096, radius: float = 1.0) -> float:
    """Trapezoid quadrature of (1/2 pi) int log|a(radius e^{i t}) - z| dt.

    Independent oracle for the closed-form limit values; spectrally accurate
    as long as z stays off the sampled curve.
    """
    vals = np.abs(curve_samples(symbol, n, radius=radius) - z)
    if np.min(vals) == 0:
        raise OnCurveError(f"z = {z} hit the quadrature curve")
    return float(np.mean(np.log(vals)))


def limit_logpot_exp(symbol: LaurentSymbol, z: complex, r: float) -> float:
    """Log-potential of the limit law under noise at coupling r^N.

    Piecewise in the region label of z: in S0 it coincides with the
    sub-exponential limit; for winding number d != 0 the straddling count ell
    replaces (d - ell)+ (resp. (ell - nplus)+) root factors by powers of r.
    """
    label = classify_region(symbol, z, r)
    if label.kind is RegionKind.ON_CURVE:
        raise OnCurveError(f"z = {z} lies on the symbol curve")
    prof = root_profile(symbol, z)
    if label.kind is RegionKind.S0:
        return _log_leading_and_top_roots(prof, prof.mplus)
    d, ell = label.d, label.ell
    if d > 0:
        count = prof.mplus + min(ell, d)
        return _log_leading_and_top_roots(prof, count) + max(d - ell, 0) * math.log(r)
    count = max(ell, symbol.nplus_eff)
    return _log_leading_and_top_roots(prof, count) + max(ell - symbol.nplus_eff, 0) * math.log(r)


def _split_moduli(prof: RootProfile, k: int) -> tuple[float, float]:
    """Moduli of the k-th and (k+1)-th roots (inf and 0 past the ends)."""
    mods = prof.moduli()
    return (mods[k - 1] if k >= 1 else math.inf), (mods[k] if k < prof.total else 0.0)


def split_root_moduli(symbol: LaurentSymbol, z: complex) -> tuple[float, float]:
    """Moduli of the nplus-th and (nplus+1)-th roots (inf and 0 past the ends)."""
    return _split_moduli(root_profile(symbol, z), symbol.nplus_eff)


def limit_logpot_unperturbed(symbol: LaurentSymbol, z: complex) -> float:
    """Log-potential of the spectral law of the unperturbed Toeplitz matrices.

    Equals log|leading| + sum of the log moduli of the nplus_eff largest roots
    of q_z.  This is the circle quadrature of log|a(rho e^{i t}) - z| at any
    rho strictly between the moduli of the nplus-th and (nplus+1)-th roots:
    by Jensen's formula that mean is log|leading| + sum_j log max(rho, |zeta_j|),
    and the log rho of the n_minus roots inside the circle cancel the factor
    zeta^{-n_minus}, so the value does not depend on rho.  Points where the
    interval closes (the limiting support set) are rejected.
    """
    prof = root_profile(symbol, z)
    hi, lo = _split_moduli(prof, symbol.nplus_eff)
    if not (hi > lo and (math.isinf(hi) or (hi - lo) > _SUPPORT_REL_GAP * hi)):
        raise LambdaSetError(f"z = {z} lies on the limiting support set (root moduli {hi} ~ {lo})")
    return _log_leading_and_top_roots(prof, symbol.nplus_eff)


def pushforward_sample(symbol: LaurentSymbol, n: int) -> SpectralSample:
    """The deterministic n-point quadrature of the push-forward measure a(U)."""
    pts = curve_samples(symbol, n)
    return SpectralSample(points=pts, meta={"kind": "pushforward", "n": n})


def energy_distance(sample_a: SpectralSample, sample_b: SpectralSample) -> float:
    """2 E|X - Y| - E|X - X'| - E|Y - Y'| over the two empirical laws.

    V-statistic form (diagonal pairs included), so the distance is exactly 0
    iff the empirical measures coincide.
    """
    xs, ys = sample_a.points, sample_b.points
    if len(xs) == 0 or len(ys) == 0:
        raise EmptyDataError("energy distance needs nonempty samples")
    exy = float(np.mean(np.abs(xs[:, None] - ys[None, :])))
    exx = float(np.mean(np.abs(xs[:, None] - xs[None, :])))
    eyy = float(np.mean(np.abs(ys[:, None] - ys[None, :])))
    return 2.0 * exy - exx - eyy


def match_cost(points, targets, p: float = 2.0) -> float:
    """min over pairings of ((1/N) sum |lambda_i - xi_{pi(i)}|^p)^{1/p}.

    Exact optimal assignment on the |.|^p cost matrix.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    tgt = np.asarray(targets, dtype=complex).ravel()
    if len(pts) != len(tgt):
        raise ShapeError("point sets must have equal size")
    if len(pts) == 0:
        raise EmptyDataError("empty point sets")
    if len(pts) > MATCH_MAX_POINTS:
        raise SizeLimitError(f"assignment capped at {MATCH_MAX_POINTS} points")
    if p < 1:
        raise ShapeError("p must be >= 1")
    with np.errstate(over="ignore"):
        cost = np.abs(pts[:, None] - tgt[None, :]) ** p
    if not np.all(np.isfinite(cost)):
        raise NonFiniteError(f"the |.|^{p} costs overflow")
    rows, cols = linear_sum_assignment(cost)
    return float(np.mean(cost[rows, cols]) ** (1.0 / p))


def dist_to_curve(points, symbol: LaurentSymbol, quadrature_n: int = 1024) -> np.ndarray:
    """Distance of each point to the symbol curve a(S^1).

    The distance is sampled at quadrature_n angles.  Every sampled local
    minimum that could still hide the global one (the distance moves at most
    sum |k a_k| per radian) is refined by golden section over its bracketing
    arc, and the least value is kept.  All points and candidates run at once.
    """
    if quadrature_n < 256:
        raise ShapeError("need at least 256 quadrature points")
    pts = np.asarray(points, dtype=complex).ravel()
    if len(pts) == 0:
        return np.zeros(0)
    samples = curve_samples(symbol, quadrature_n)
    thetas = 2 * np.pi * np.arange(quadrature_n) / quadrature_n
    h = 2 * np.pi / quadrature_n
    slack = h * sum(abs(k * c) for k, c in symbol.coeffs.items())
    # the coarse search in blocks of points: no (points x samples) array above 4 MB
    block = max(1, (1 << 18) // quadrature_n)
    found = []
    for s in range(0, len(pts), block):
        d = np.abs(samples[None, :] - pts[s : s + block, None])
        local_min = (d <= np.roll(d, 1, axis=1)) & (d <= np.roll(d, -1, axis=1))
        rows, ks = np.nonzero(local_min & (d <= d.min(axis=1, keepdims=True) + slack))
        found.append((s + rows, ks, d[rows, ks]))
    owner, k, coarse = (np.concatenate(parts) for parts in zip(*found))
    p = pts[owner]

    def f(theta):
        return np.abs(evaluate(symbol, np.cos(theta) + 1j * np.sin(theta)) - p)

    gr = (math.sqrt(5) - 1) / 2
    a, b = thetas[k] - h, thetas[k] + h
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(60):
        # keep [a, d] where f(c) < f(d), else [c, b]; the kept inner point is reused
        left = fc < fd
        kept, fkept = np.where(left, c, d), np.where(left, fc, fd)
        a, b = np.where(left, a, c), np.where(left, d, b)
        new = np.where(left, b - gr * (b - a), a + gr * (b - a))
        fnew = f(new)
        c, fc = np.where(left, new, kept), np.where(left, fnew, fkept)
        d, fd = np.where(left, kept, new), np.where(left, fkept, fnew)
    out = np.full(len(pts), np.inf)
    np.minimum.at(out, owner, np.minimum(np.minimum(fc, fd), coarse))
    return out


def write_sample_csv(sample: SpectralSample, path) -> None:
    """Write points as `re,im` rows plus a JSON sidecar `<path>.meta.json`."""
    path = Path(path)
    rows = [f"{float(p.real)!r},{float(p.imag)!r}" for p in sample.points]
    path.write_text("\n".join(["re,im", *rows]) + "\n", encoding="utf-8")
    sidecar = path.with_name(path.name + ".meta.json")
    sidecar.write_text(json.dumps(sample.meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def read_sample_csv(path) -> SpectralSample:
    path = Path(path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    if not lines or lines[0] != "re,im":
        raise ShapeError(f"{path} is not a spectral-sample CSV")
    pts = []
    for line in lines[1:]:
        re_s, im_s = line.split(",")
        pts.append(complex(float(re_s), float(im_s)))
    sidecar = path.with_name(path.name + ".meta.json")
    meta = json.loads(sidecar.read_text(encoding="utf-8")) if sidecar.exists() else {}
    return SpectralSample(points=np.asarray(pts, dtype=complex), meta=meta)
