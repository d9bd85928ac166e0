"""Shared test utilities: independent oracles kept deliberately simple."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from toepspec import experiments, matrixgen, measures
from toepspec.errors import BoundaryError, ConfigError, DomainError, OnCurveError, ShapeError
from toepspec.pseudospec import GridSpec, ScalarField
from toepspec.symbol import LaurentSymbol, classify_region, curve_samples, root_profile, winding_number


def jordan(n: int) -> np.ndarray:
    """The nilpotent Jordan block: ones on the first superdiagonal."""
    if n < 2:
        raise DomainError("Jordan block needs n >= 2")
    return np.diag(np.ones(n - 1, dtype=complex), 1)


def corner(n: int, eps: complex) -> np.ndarray:
    """The matrix with single entry eps in the bottom-left corner."""
    if n < 2:
        raise DomainError("corner perturbation needs n >= 2")
    m = np.zeros((n, n), dtype=complex)
    m[n - 1, 0] = eps
    return m


def random_symbol(rng: np.random.Generator, max_band: int = 4) -> LaurentSymbol:
    """A random banded symbol with tight nonzero endpoints, for property tests."""
    while True:
        kmin = int(rng.integers(-max_band, 2))
        kmax = int(rng.integers(kmin + 1, max_band + 1))
        ks = range(kmin, kmax + 1)
        coeffs = {}
        for k in ks:
            c = complex(rng.normal(), rng.normal())
            if k in (kmin, kmax) or rng.random() < 0.8:
                coeffs[k] = c
        sym = LaurentSymbol(coeffs)
        if sym.kmin == kmin and sym.kmax == kmax:
            return sym


def winding_number_quadrature(symbol: LaurentSymbol, z: complex, n: int = 4096) -> int:
    """Slow phase-integral winding number, used as an independent oracle.

    Accumulates the argument increments of a(e^{i theta}) - z over a uniform
    sampling of the circle and rounds the total to the nearest integer.
    """
    w = curve_samples(symbol, n) - z
    if np.min(np.abs(w)) < 1e-12:
        raise OnCurveError(f"z = {z} lies on the sampled symbol curve")
    ratios = w / np.roll(w, 1)
    steps = np.angle(ratios)
    if np.max(np.abs(steps)) > 2.5:
        if n > 1 << 20:
            raise OnCurveError(f"z = {z} is too close to the symbol curve to integrate")
        return winding_number_quadrature(symbol, z, n=4 * n)
    total = float(np.sum(steps)) / (2 * math.pi)
    wind = round(total)
    if abs(total - wind) > 0.25:
        raise ConfigError(f"phase integral did not settle: total = {total}")
    return wind


@dataclass(frozen=True)
class BadSetFlags:
    double_root: bool
    equal_modulus_ratio: bool
    is_a0: bool

    def any(self) -> bool:
        return self.double_root or self.equal_modulus_ratio or self.is_a0


def near_bad_set(symbol: LaurentSymbol, z: complex, tol: float) -> BadSetFlags:
    """Flags for proximity to the exceptional set where root formulas degenerate.

    double_root: two roots closer than tol (roots at infinity count as
    coincident).  equal_modulus_ratio: two distinct roots whose modulus ratio
    is within tol of 1.  is_a0: z within tol of the constant coefficient a_0.
    """
    prof = root_profile(symbol, z)
    roots = prof.roots
    double = prof.infinite >= 2
    equal_mod = prof.infinite >= 2
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) < tol:
                double = True
            mi, mj = abs(roots[i]), abs(roots[j])
            hi, lo = max(mi, mj), min(mi, mj)
            if hi > 0 and abs(lo / hi - 1.0) < tol:
                equal_mod = True
    is_a0 = abs(z - symbol.coeffs.get(0, 0j)) < tol
    return BadSetFlags(double_root=double, equal_modulus_ratio=equal_mod, is_a0=is_a0)


def circle_quadrature_logpot(symbol: LaurentSymbol, z: complex, n: int = 4096, radius: float = 1.0) -> float:
    """Trapezoid quadrature of (1/2 pi) int log|a(radius e^{i t}) - z| dt.

    Independent oracle for the closed-form limit values; spectrally accurate
    as long as z stays off the sampled curve.
    """
    vals = np.abs(curve_samples(symbol, n, radius=radius) - z)
    if np.min(vals) == 0:
        raise OnCurveError(f"z = {z} hit the quadrature curve")
    return float(np.mean(np.log(vals)))


def read_sample_csv(path) -> tuple[np.ndarray, dict]:
    """Inverse of :func:`toepspec.measures.write_sample_csv`: the points and the sidecar metadata."""
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
    return np.asarray(pts, dtype=complex), meta


def read_field_csv(path) -> ScalarField:
    """Inverse of :func:`toepspec.pseudospec.write_field_csv` (grid inferred from the node columns)."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not lines or lines[0] != "re,im,smin":
        raise ShapeError(f"{path} is not a field CSV")
    re_col, im_col, smin = np.array([[float(t) for t in line.split(",")] for line in lines[1:]]).T
    res, ims = np.unique(re_col), np.unique(im_col)
    grid = GridSpec(
        re_min=float(res[0]), re_max=float(res[-1]), im_min=float(ims[0]), im_max=float(ims[-1]),
        nx=len(res), ny=len(ims),
    )
    return ScalarField(grid=grid, values=smin)


def pitch(grid: GridSpec) -> float:
    """The larger of the grid's two node spacings."""
    return max(
        (grid.re_max - grid.re_min) / (grid.nx - 1),
        (grid.im_max - grid.im_min) / (grid.ny - 1),
    )


def ks_distance(xs, ys) -> float:
    """Two-sample Kolmogorov-Smirnov distance between empirical CDFs."""
    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    allv = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, allv, side="right") / len(xs)
    fy = np.searchsorted(ys, allv, side="right") / len(ys)
    return float(np.max(np.abs(fx - fy)))


def det_orders_by_interpolation(symbol: LaurentSymbol, z: complex, e: np.ndarray, delta: float):
    """All coupling-order terms of det(T(a - z) + delta e) at once.

    det(T + x e) is a polynomial of degree n in x; sampling it on a circle of
    radius delta in x and taking an FFT recovers the coefficients c_k, and the
    order-k term is c_k delta^k.  Completely independent of the subset
    enumeration route.
    """
    n = e.shape[0]
    t = matrixgen.toeplitz(symbol, n) - z * np.eye(n)
    m = 2 * (n + 1)
    nodes = delta * np.exp(2j * np.pi * np.arange(m) / m)
    vals = np.array([np.linalg.det(t + x * e) for x in nodes])
    # vals_j = sum_k (c_k delta^k) w^{jk}, so a forward FFT recovers c_k delta^k
    terms = np.fft.fft(vals) / m
    return terms[: n + 1]


def sample_widom_checkable(rng, max_n: int = 40, max_band: int = 4):
    """A random (symbol, z, n) where the LU determinant oracle is reliable.

    z is rejected until it sits off the exceptional set, at winding number 0,
    and at distance >= 0.05 from the symbol curve: there T_n(a - z) stays
    well conditioned, so the double-precision LU log-determinant carries the
    full 1e-8 comparison accuracy.  At nonzero winding the matrix is
    exponentially ill conditioned and the LU side, not the root formula,
    breaks down.
    """
    while True:
        sym = random_symbol(rng, max_band=max_band)
        curve = curve_samples(sym, 1024)
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if float(np.min(np.abs(curve - z))) < 0.05:
            continue
        if near_bad_set(sym, z, 1e-3).any():
            continue
        prof = root_profile(sym, z)
        if prof.on_circle or prof.infinite:
            continue
        if winding_number(sym, z) != 0:
            continue
        n = int(rng.integers(2, max_n + 1))
        return sym, z, n


def brute_permutation_sign(subset, n) -> int:
    """Sign of the permutation placing `subset` first, by explicit inversion count."""
    rest = [i for i in range(n) if i not in set(subset)]
    perm = list(subset) + rest
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def probe_draws_per_point(sym: LaurentSymbol, radii, pad: float, seed: int):
    """Endless probe draws one point at a time: re, then im, from the probe stream."""
    pts = np.concatenate([curve_samples(sym, 256, rad) for rad in radii])
    lo_re, hi_re = float(pts.real.min()) - pad, float(pts.real.max()) + pad
    lo_im, hi_im = float(pts.imag.min()) - pad, float(pts.imag.max()) + pad
    rng = np.random.Generator(np.random.Philox(key=matrixgen.task_seed(seed, experiments._PROBE_STREAM)))
    while True:
        yield complex(rng.uniform(lo_re, hi_re), rng.uniform(lo_im, hi_im))


def probe_points_regions_per_draw(
    sym: LaurentSymbol, r: float, count: int, margin: float, seed: int
) -> dict[str, list[complex]]:
    """Region probe placement one draw at a time: a margin test and a classify_region call per draw."""
    radii = (1.0, r, 1.0 / r)
    curves = np.concatenate([curve_samples(sym, 720, rad) for rad in radii])
    draws = probe_draws_per_point(sym, radii, 2 * margin + 0.3, seed)
    buckets: dict[str, list[complex]] = {}
    for attempt, z in zip(range(experiments._REGION_MAX_DRAWS), draws):
        if (
            attempt >= experiments._DISCOVERY_FLOOR
            and buckets
            and all(len(b) >= count for b in buckets.values())
        ):
            break
        if np.min(np.abs(curves - z)) < margin:
            continue
        try:
            key = classify_region(sym, z, r)
        except (BoundaryError, OnCurveError):
            continue
        bucket = buckets.setdefault(key, [])
        if len(bucket) < count:
            bucket.append(z)
    return {k: v for k, v in sorted(buckets.items()) if len(v) >= count}


def probe_points_off_support_per_draw(sym: LaurentSymbol, count: int, gap_margin: float, seed: int) -> list[complex]:
    """Off-support probe placement one draw at a time."""
    out: list[complex] = []
    for _, z in zip(range(experiments._SUPPORT_MAX_DRAWS), probe_draws_per_point(sym, (1.0,), 1.0, seed)):
        if len(out) >= count:
            break
        hi, lo = measures.split_root_moduli(sym, z)
        if math.isinf(hi) or (hi > 0 and (hi - lo) / hi >= gap_margin):
            out.append(z)
    if len(out) < count:
        raise ConfigError("could not place enough probe points off the support set")
    return out
