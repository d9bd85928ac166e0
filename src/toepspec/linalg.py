"""Dense complex linear-algebra kernels behind a small, stable surface.

Determinants are always carried as (log magnitude, unit phase) pairs: the
determinants met here span thousands of orders of magnitude, so they are
never exponentiated internally.  Singular values follow the nondecreasing
convention s_1 <= ... <= s_n.  The heavy factorizations delegate to
LAPACK through numpy/scipy; the LU kernels call zgetrf/zgetrs directly,
without scipy's per-call wrapper.  Eigenvalues of a matrix with no
imaginary part come from the real solver dgeev, all others from zgeev.
LAPACK, and with it scipy.linalg, loads on the first LU, so a process
that factors nothing never imports it.  Up to
SMIN_DIRECT_MAX_N the smallest singular value is the last one of a direct
SVD; above it, a two-sided inverse iteration with LU reuse, falling back to
a full SVD when it stagnates.  All kernels are reentrant and deterministic.

Importing this module runs both bundled OpenBLAS copies on one thread: at
the sizes met here (n = 50-500) extra BLAS threads cost more than they
give, and one thread makes every result independent of the core count and
of OPENBLAS_NUM_THREADS.  Their idle pool threads stop, so _pool forks a
single-threaded process; scipy.linalg, loaded later, calls that pinned copy.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from .errors import ConvergenceError, NonFiniteError, ShapeError


def _one_blas_thread() -> None:
    """Run numpy's and scipy's bundled OpenBLAS on one thread, idle pool stopped; skip a copy not found."""
    for package, libdir, pattern, symbol in (
        (np, "numpy.libs", "libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_"),
        (scipy, "scipy.libs", "libscipy_openblas-*.so", "scipy_openblas_set_num_threads"),
    ):
        base = Path(package.__file__).resolve().parent.parent / libdir
        for path in sorted(glob.glob(str(base / pattern))):
            try:
                lib = ctypes.CDLL(path)
                fn = getattr(lib, symbol)
            except (OSError, AttributeError):
                continue
            fn.argtypes = [ctypes.c_int]
            fn.restype = None
            fn(1)
            stop = getattr(lib, "blas_thread_shutdown_", None)  # at one thread no pool starts again
            if stop is not None:
                stop.argtypes, stop.restype = [], ctypes.c_int
                stop()
            break


_one_blas_thread()


@functools.cache
def lapack_lu():
    """(zgetrf, zgetrs), loaded on the first call: scipy.linalg takes most of a bare import's time.

    Called before a fork, it hands the loaded library to every worker, which would otherwise import it again.
    """
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(("getrf", "getrs"), dtype=np.complex128)


def _lu_factor(a):
    """(lu, piv) of a copy of the complex matrix a; an exactly singular factor is returned silently."""
    lu, piv, _ = lapack_lu()[0](a)
    return lu, piv


def _lu_solve(lu, piv, b, trans=0):
    """Solve with a factor from :func:`_lu_factor`: trans 0 solves a x = b, trans 2 a* x = b."""
    return lapack_lu()[1](lu, piv, b, trans=trans)[0]


# Fixed Philox keys for the start vectors of the iterative kernels, each drawn once per (key, n).
_SMIN_KEY = 0x5EEDC0DE
_EIGVEC_KEY = 0x5EEDBEEF

# up to this size smallest_singular (and pseudospec.smin_field) take the
# direct SVD: it beats factor-plus-iterate, and near-tied smallest singular
# values (Voronoi boundaries of normal matrices) cannot stall an iteration
SMIN_DIRECT_MAX_N = 24
_SMIN_MAX_ITER = 50
_SMIN_RTOL = 1e-10
_EIGVEC_MAX_ITER = 50


@functools.cache
def _start_vector(key: int, n: int) -> np.ndarray:
    """Unit complex Gaussian vector of length n, read-only; the same key gives the same bits."""
    rng = np.random.Generator(np.random.Philox(key=key))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = v / np.linalg.norm(v)
    v.flags.writeable = False
    return v


def _require_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class LogDet:
    """det = exp(log_abs) * phase; log_abs = -inf and phase = 0 flag singularity."""

    log_abs: float
    phase: complex


def lu_logdet(m: np.ndarray) -> LogDet:
    """Log-determinant from a partial-pivoted LU factorization."""
    m = _require_square(m)
    if m.shape[0] == 0:
        return LogDet(0.0, 1.0 + 0j)
    lu, piv = _lu_factor(m)
    diag = np.diag(lu)
    if np.any(diag == 0):
        return LogDet(-math.inf, 0j)
    log_abs = float(np.sum(np.log(np.abs(diag))))
    phase = complex(np.prod(diag / np.abs(diag)))
    swaps = int(np.sum(piv != np.arange(len(piv))))
    if swaps % 2:
        phase = -phase
    return LogDet(log_abs, phase)


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """All n eigenvalues with multiplicity (Hessenberg reduction + shifted QR), as complex128.

    A matrix with no nonzero imaginary part is solved in real arithmetic
    (dgeev, 2.5-2.8x cheaper than zgeev at n = 200-500), so its spectrum is
    exactly closed under conjugation; any other matrix goes to zgeev.
    """
    m = _require_square(m)
    if not m.imag.any():
        m = m.real
    try:
        # dgeev hands back a float array when every eigenvalue is real
        return np.linalg.eigvals(m).astype(complex, copy=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc


@dataclass(frozen=True)
class SVDResult:
    """Singular triplets with values sorted nondecreasing.

    When vectors are requested, right_vectors[:, i] = e_i and
    left_vectors[:, i] = f_i satisfy A e_i = s_i f_i and A* f_i = s_i e_i.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray | None = None
    right_vectors: np.ndarray | None = None


def svd(m: np.ndarray, want_vectors: bool = False) -> SVDResult:
    m = _require_square(m)
    try:
        if not want_vectors:
            s = np.linalg.svd(m, compute_uv=False)
            return SVDResult(singular_values=s[::-1].copy())
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD iteration failed: {exc}") from exc
    order = slice(None, None, -1)
    return SVDResult(
        singular_values=s[order].copy(),
        left_vectors=u[:, order].copy(),
        right_vectors=vh.conj().T[:, order].copy(),
    )


def smallest_singular(m: np.ndarray) -> float:
    """s_min(m) via inverse iteration on (A A*)^{-1} with LU reuse.

    Exactly singular matrices return 0.  Stagnation falls back to the full
    SVD, so the result always agrees with :func:`svd` up to the iteration
    tolerance.  So does slow contraction: from the third iterate on, once the
    observed step ratio d_k / d_{k-1} (d_k = |s_k - s_{k-1}|) cannot bring the
    step under the tolerance by the last iterate, the SVD is taken at once.
    """
    m = _require_square(m)
    n = m.shape[0]
    if n == 1:
        return float(abs(m[0, 0]))
    if n <= SMIN_DIRECT_MAX_N:
        return float(np.linalg.svd(m, compute_uv=False)[-1])
    lu, piv = _lu_factor(m)
    if np.abs(np.diag(lu)).min() == 0.0:
        return 0.0
    mh = m.conj().T
    v = _start_vector(_SMIN_KEY, n)
    s_prev = d_prev = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(_SMIN_MAX_ITER):
            u = _lu_solve(lu, piv, v, trans=0)
            w = _lu_solve(lu, piv, u, trans=2)
            nw = np.linalg.norm(w)
            if not np.isfinite(nw):
                # the solve overflowed: numerically singular
                return 0.0
            if nw == 0.0:
                return float(svd(m).singular_values[0])
            f = w / nw
            s_est = float(np.linalg.norm(mh @ f))
            d = abs(s_est - s_prev)
            tol = _SMIN_RTOL * max(s_est, 1e-300)
            if d <= tol:
                return s_est
            # geometric contraction projected over the iterates left
            if k >= 2 and (d >= d_prev or d * (d / d_prev) ** (_SMIN_MAX_ITER - 1 - k) > tol):
                break
            s_prev, d_prev = s_est, d
            v = f
    return float(svd(m).singular_values[0])


def eigenvector(m: np.ndarray, lam: complex) -> np.ndarray:
    """Unit right eigenvector for a computed eigenvalue, by shifted inverse iteration.

    The residual contract is ||(m - lam I) v|| <= 1e-6 ||m||; stagnation above
    that raises :class:`ConvergenceError` naming the best residual reached.
    """
    m = _require_square(m)
    n = m.shape[0]
    # ||m||_F / sqrt(n) lower-bounds the spectral norm, so the residual
    # contract is met without an extra O(n^3) norm computation per call
    with np.errstate(over="ignore"):
        scale = float(np.linalg.norm(m)) / math.sqrt(n)
    if not math.isfinite(scale):
        raise NonFiniteError("the matrix norm overflows")
    shift = complex(lam)
    lu, piv = _lu_factor(m - shift * np.eye(n))
    if np.abs(np.diag(lu)).min() == 0.0:
        # nudge off the exact eigenvalue so the factor is nonsingular
        shift = shift + 1e-13 * max(scale, 1.0)
        lu, piv = _lu_factor(m - shift * np.eye(n))
    v = _start_vector(_EIGVEC_KEY, n)
    tol = 1e-6 * max(scale, 1e-300)
    best_res = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_EIGVEC_MAX_ITER):
            w = _lu_solve(lu, piv, v)
            nw = np.linalg.norm(w)
            if not np.isfinite(nw) or nw == 0.0:
                break
            v = w / nw
            res = float(np.linalg.norm(m @ v - lam * v))
            if res <= tol:
                return v
            best_res = min(best_res, res)
    raise ConvergenceError(f"inverse iteration stagnated at residual {best_res:.3e} (tol {tol:.3e})")
