"""Empirical spectral measures, closed-form limit log-potentials, and
distances between point sets.

Spectra and probe sets are plain complex arrays.  The log-potential of a
measure mu at z is int log|z - x| dmu(x); for the empirical measure of
eigenvalues it is (1/n) sum log|z - lambda_i|, which is also
(1/n) log|det(z - M)|.  One closed form in r covers the three limit laws: the
push-forward of the uniform circle measure by the symbol (r = 1, polynomially
small noise), its radius-r refinement (noise at scale r^N) and the law of the
unperturbed matrices themselves (r = 0, super-exponentially small noise).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import DomainError, EmptyDataError, NonFiniteError, ShapeError, SizeLimitError
from .symbol import LaurentSymbol, curve_samples, evaluate, root_profile, root_profiles
# unused here, but bench/test_bench.py pins this binding until ROADMAP item 1 lands
from .symbol import classify_region  # noqa: F401

MATCH_MAX_POINTS = 1024
# angles at which dist_to_curve samples the symbol curve before refining
CURVE_SAMPLES = 1024


def empirical_logpot(points, z):
    """(1/n) sum log|z - lambda_i| at a point z, or at each z of an array; -inf where z hits a point."""
    pts = np.asarray(points, dtype=complex).ravel()
    if len(pts) == 0:
        raise EmptyDataError("empty spectral sample")
    zs = np.asarray(z, dtype=complex)
    with np.errstate(divide="ignore"):
        out = np.log(np.abs(zs[..., None] - pts)).mean(axis=-1)
    return out if out.ndim else float(out)


def limit_logpot(symbol: LaurentSymbol, z, r: float):
    """Log-potential at z, a point or an array, of the limit law under noise at coupling r^N, 0 <= r <= 1.

    With k = nplus_eff and the roots zeta_j of q_z sorted by nonincreasing
    modulus, the value is

        log|leading| + sum_{j<k} log max(|zeta_j|, r) + sum_{j>=k} log max(r |zeta_j|, 1).

    r = 1 is the push-forward of the uniform circle measure by the symbol
    (polynomially small noise): the sum is sum_j log+|zeta_j|, the mean of
    log|a(u) - z| over the unit circle by Jensen's formula.  0 < r < 1 is the
    law under noise at scale r^N, and r = 0 the law of the unperturbed matrices
    (super-exponentially small noise), the top-k root sum.  A root at infinity
    pairs off against the vanished top coefficient and contributes log r when
    j >= k.  The value is continuous in z, on the symbol curve and on the
    limiting support set included; it is -inf where the law has an atom at z.
    """
    if not 0 <= r <= 1:
        raise DomainError("the radius parameter must lie in [0, 1]")
    zs = np.asarray(z, dtype=complex)
    k = symbol.nplus_eff
    vals = []
    for prof in root_profiles(symbol, zs):
        val = math.log(abs(prof.leading))
        # roots contributing log r: at infinity past k, below r before k, beyond 1/r past k
        n_r = max(prof.infinite - k, 0)
        for j, root in enumerate(prof.roots, start=prof.infinite):
            m = abs(root)
            if j < k:
                if m > r:
                    val += math.log(m)
                else:
                    n_r += 1
            elif r * m > 1:
                val += math.log(m)
                n_r += 1
        if n_r:
            val = val + n_r * math.log(r) if r > 0 else -math.inf
        vals.append(val)
    return np.reshape(vals, zs.shape) if zs.ndim else vals[0]


def split_root_moduli(symbol: LaurentSymbol, z: complex) -> tuple[float, float]:
    """Moduli of the nplus-th and (nplus+1)-th roots (inf and 0 past the ends)."""
    mods = root_profile(symbol, z).moduli()
    k = symbol.nplus_eff
    return (mods[k - 1] if k >= 1 else math.inf), (mods[k] if k < len(mods) else 0.0)


def energy_distance(xs, ys) -> float:
    """2 E|X - Y| - E|X - X'| - E|Y - Y'| over the empirical laws of two point sets.

    V-statistic form (diagonal pairs included), so the distance is exactly 0
    iff the empirical measures coincide.
    """
    xs, ys = (np.asarray(v, dtype=complex).ravel() for v in (xs, ys))
    if len(xs) == 0 or len(ys) == 0:
        raise EmptyDataError("energy distance needs nonempty samples")
    with np.errstate(over="ignore"):  # overflowing points give a non-finite distance for the caller to report
        exy = float(np.mean(np.abs(xs[:, None] - ys[None, :])))
        exx = float(np.mean(np.abs(xs[:, None] - xs[None, :])))
        eyy = float(np.mean(np.abs(ys[:, None] - ys[None, :])))
    return 2.0 * exy - exx - eyy


def match_cost(points, targets, p: float = 2.0) -> float:
    """min over pairings of ((1/N) sum |lambda_i - xi_{pi(i)}|^p)^{1/p}.

    Exact optimal assignment on the |.|^p cost matrix.
    """
    from scipy.optimize import linear_sum_assignment  # imported here: most commands never assign

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
    with np.errstate(over="ignore"):  # finite costs can still sum past the float range
        return float(np.mean(cost[rows, cols]) ** (1.0 / p))


def dist_to_curve(points, symbol: LaurentSymbol) -> np.ndarray:
    """Distance of each point to the symbol curve a(S^1).

    The distance is sampled at CURVE_SAMPLES angles.  Every sampled local
    minimum that could still hide the global one (the distance moves at most
    sum |k a_k| per radian) is refined by golden section over its bracketing
    arc, and the least value is kept.  All points and candidates run at once.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    if len(pts) == 0:
        return np.zeros(0)
    samples = curve_samples(symbol, CURVE_SAMPLES)
    thetas = 2 * np.pi * np.arange(CURVE_SAMPLES) / CURVE_SAMPLES
    h = 2 * np.pi / CURVE_SAMPLES
    slack = h * sum(abs(k * c) for k, c in symbol.coeffs.items())
    # the coarse search in blocks of points: no (points x samples) array above 4 MB
    block = (1 << 18) // CURVE_SAMPLES
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


def write_sample_csv(points, meta: dict, path) -> None:
    """Write points as `re,im` rows plus `meta` as a JSON sidecar `<path>.meta.json`."""
    path = Path(path)
    rows = [f"{float(p.real)!r},{float(p.imag)!r}" for p in points]
    path.write_text("\n".join(["re,im", *rows]) + "\n", encoding="utf-8")
    sidecar = path.with_name(path.name + ".meta.json")
    sidecar.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
