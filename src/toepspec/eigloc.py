"""Eigenvector localization diagnostics: tail norms, minimal support, pure states."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import NormalizationError, ShapeError

_UNIT_TOL = 1e-8
# relative slack when a prefix mass ties the support threshold at float resolution
_TIE_RTOL = 1e-12


def _check_unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex).ravel()
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > _UNIT_TOL:
        raise NormalizationError(f"expected a unit vector, got norm {nrm}")
    return v


def tail_norm_profile(v) -> np.ndarray:
    """Tail norms of a unit vector: entry l is ||v[l:]||, so entry 0 is the full norm.

    The profile is nonincreasing in l; a vector whose mass sits at its back
    reads through its mirror v[::-1].
    """
    sq = np.abs(_check_unit(v)) ** 2
    return np.sqrt(np.maximum(np.cumsum(sq[::-1])[::-1], 0.0))


def supp_size(v, mu1: float) -> int:
    """Minimal number of entries capturing l2 mass above 1 - mu1.

    Sorts |v_i| descending and takes the shortest prefix whose squared mass
    exceeds (1 - mu1)^2; prefix masses tying the threshold at float
    resolution count as captured.
    """
    v = _check_unit(v)
    if not 0 < mu1 < 1:
        raise ShapeError("mu1 must lie in (0, 1)")
    weights = np.sort(np.abs(v) ** 2)[::-1]
    threshold = (1.0 - mu1) ** 2
    cum = np.cumsum(weights)
    hits = np.nonzero(cum >= threshold * (1.0 - _TIE_RTOL))[0]
    if len(hits) == 0:
        return len(v)
    return int(hits[0]) + 1


def pure_state(z: complex, n: int) -> np.ndarray:
    """The normalized geometric vector (1, z, z^2, ..., z^{n-1}).

    Computed with an exponent shift so large |z| and large n cannot overflow.
    """
    if n < 1:
        raise ShapeError("need n >= 1")
    z = complex(z)
    if z == 0:
        out = np.zeros(n, dtype=complex)
        out[0] = 1.0
        return out
    ks = np.arange(n)
    log_mod = ks * math.log(abs(z))
    shift = float(np.max(log_mod))
    mags = np.exp(log_mod - shift)
    phases = np.exp(1j * ks * math.atan2(z.imag, z.real))
    out = mags * phases
    return out / np.linalg.norm(out)


def phase_aligned_distance(u, v) -> float:
    """min over phases theta of ||u - e^{i theta} v|| = sqrt(2 - 2 |<u, v>|)."""
    u = np.asarray(u, dtype=complex).ravel()
    v = np.asarray(v, dtype=complex).ravel()
    if u.shape != v.shape:
        raise ShapeError("vectors must have equal length")
    return math.sqrt(max(0.0, 2.0 - 2.0 * abs(np.vdot(u, v))))


LOCALIZATION_CSV_HEADER = "lambda_re,lambda_im,dist_to_curve,wind,linf,supp50,tail_halflen"


def write_localization_csv(rows, path) -> None:
    """Rows of per-eigenpair localization diagnostics.

    Each row: (lambda, dist_to_curve, wind, linf, supp50, tail_halflen).
    """
    lines = [LOCALIZATION_CSV_HEADER]
    for lam, dist, wind, linf, supp50, tail_halflen in rows:
        lam = complex(lam)
        lines.append(
            f"{float(lam.real)!r},{float(lam.imag)!r},{float(dist)!r},{int(wind)},{float(linf)!r},"
            f"{int(supp50)},{int(tail_halflen)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
