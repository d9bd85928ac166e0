"""Dense complex linear-algebra kernels behind a small, stable surface.

Determinants are carried as np.linalg.slogdet's (sign, logabsdet) pair:
the determinants met here span thousands of orders of magnitude, so they
are never exponentiated internally.  Singular values come back as plain
arrays, nondecreasing s_1 <= ... <= s_n.  The factorizations delegate to
LAPACK through numpy, except in :func:`smallest_singular`, the one kernel
that reuses an LU factor for many solves: it calls zgetrf/zgetrs directly,
loaded from scipy's compiled _flapack module alone, so no scipy subpackage
loads for it.
Eigenvalues of a matrix with no imaginary part come from the real solver
dgeev, all others from zgeev.  Up to SMIN_DIRECT_MAX_N, and above it where
diagonal dominance certifies it (Varah's bound), the smallest singular value
is the last one of a direct SVD; otherwise a two-sided inverse iteration
with LU reuse gives it, falling back to a full SVD when it stagnates.  All
kernels are reentrant and deterministic.

Importing this module runs both bundled OpenBLAS copies on one thread: at
the sizes met here (n = 50-500) extra BLAS threads cost more than they
give, and one thread makes every result independent of the core count and
of OPENBLAS_NUM_THREADS.  Their idle pool threads stop, so _pool forks a
single-threaded process; _flapack, loaded later, calls that pinned copy.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
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
def scipy_extension(subpackage: str, name: str):
    """scipy's compiled module scipy.<subpackage>.<name>, loaded from its file without the subpackage's __init__.

    Registered in sys.modules, so a later import of the subpackage exposes the same functions;
    with no such file the module is imported.
    """
    import importlib.machinery
    import importlib.util
    import sys

    fullname = f"scipy.{subpackage}.{name}"
    base = Path(scipy.__file__).parent / subpackage
    path = next((p for p in (base / (name + s) for s in importlib.machinery.EXTENSION_SUFFIXES) if p.is_file()), None)
    if path is None or fullname in sys.modules:
        return importlib.import_module(fullname)
    loader = importlib.machinery.ExtensionFileLoader(fullname, str(path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(fullname, loader))
    sys.modules[fullname] = module
    loader.exec_module(module)
    return module


@functools.cache
def lapack_lu():
    """(zgetrf, zgetrs) for :func:`smallest_singular`, loaded on its first call from scipy's _flapack alone.

    Called before a fork, it hands the loaded library to every worker, which would otherwise load it again.
    """
    flapack = scipy_extension("linalg", "_flapack")
    return flapack.zgetrf, flapack.zgetrs


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
# values (Voronoi boundaries of normal matrices) cannot stall an iteration;
# above it only a matrix certified by its diagonal dominance does
SMIN_DIRECT_MAX_N = 24
_SMIN_MAX_ITER = 50
_SMIN_RTOL = 1e-10


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


def _require_finite(a: np.ndarray, what: str = "the matrix") -> np.ndarray:
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{what} has an inf or NaN entry")
    return a


def lu_logdet(m: np.ndarray):
    """np.linalg.slogdet's (sign, logabsdet) of a square matrix: (0, -inf) if exactly singular, (1, 0) if empty."""
    return np.linalg.slogdet(_require_square(m))


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


def svd(m: np.ndarray, want_vectors: bool = False):
    """Singular values of a square matrix as a nondecreasing array.

    With want_vectors, the tuple (s, f, e) whose columns e_i = e[:, i] and
    f_i = f[:, i] satisfy A e_i = s_i f_i and A* f_i = s_i e_i.
    """
    m = _require_square(m)
    try:
        if not want_vectors:
            return np.linalg.svd(m, compute_uv=False)[::-1].copy()
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD iteration failed: {exc}") from exc
    order = slice(None, None, -1)
    return s[order].copy(), u[:, order].copy(), vh.conj().T[:, order].copy()


def smallest_singular(m: np.ndarray) -> float:
    """s_min(m) via inverse iteration on (A A*)^{-1} with LU reuse.

    s_min is read from the solves, as 1 / sqrt(||w||) for w = (A A*)^{-1} v,
    so it stays accurate far below eps ||A||.  Exactly singular matrices
    return 0, and a matrix with an inf or NaN entry raises NonFiniteError.
    Stagnation falls back to the full SVD, so the result always agrees with
    :func:`svd` up to the iteration tolerance.  So does slow
    contraction: from the third iterate on, once the observed step ratio
    d_k / d_{k-1} (d_k = |s_k - s_{k-1}|) cannot bring the step under the
    tolerance by the last iterate, the SVD is taken at once.  The SVD comes
    first where row and column dominance margins a, b > 0 bound s_min >=
    sqrt(a b) (Varah 1975) and the SVD's backward error n eps ||m||_F lies
    within the tolerance of that bound.
    """
    m = _require_square(m)
    n = m.shape[0]
    if n <= SMIN_DIRECT_MAX_N:
        _require_finite(m)
        return float(abs(m[0, 0])) if n == 1 else float(np.linalg.svd(m, compute_uv=False)[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        # Varah's bound s_min >= sqrt(a b), a = min_i (|m_ii| - sum_{j != i} |m_ij|) and b its
        # column twin; an overflowing sum makes a margin -inf, an overflowing norm fails the test
        mag = np.abs(m)
        d = np.diag(mag)
        a, b = float((d - (mag.sum(axis=1) - d)).min()), float((d - (mag.sum(axis=0) - d)).min())
        if a > 0 and b > 0 and n * np.finfo(float).eps * np.linalg.norm(m) <= _SMIN_RTOL * math.sqrt(a) * math.sqrt(b):
            return float(np.linalg.svd(m, compute_uv=False)[-1])
        lu, piv = _lu_factor(m)
        # an inf or NaN entry fails the certificate and is carried into the factor
        _require_finite(lu, "the matrix or its LU factor")
        if np.abs(np.diag(lu)).min() == 0.0:
            return 0.0
        v = _start_vector(_SMIN_KEY, n)
        s_prev = d_prev = math.inf
        for k in range(_SMIN_MAX_ITER):
            u = _lu_solve(lu, piv, v, trans=0)
            w = _lu_solve(lu, piv, u, trans=2)
            nw = np.linalg.norm(w)
            if not np.isfinite(nw) and np.isfinite(w).all():
                # numpy's 2-norm squares the entries: scale a finite w whose norm overflows
                big = np.abs(w).max()
                nw = big * np.linalg.norm(w / big)
            if not np.isfinite(nw):
                # the solve overflowed: numerically singular
                return 0.0
            if nw == 0.0:
                # the solves underflowed (a matrix of huge norm)
                return float(svd(m)[0])
            s_est = 1.0 / math.sqrt(nw)
            d = abs(s_est - s_prev)
            tol = _SMIN_RTOL * max(s_est, 1e-300)
            if d <= tol:
                return s_est
            # geometric contraction projected over the iterates left
            if k >= 2 and (d >= d_prev or d * (d / d_prev) ** (_SMIN_MAX_ITER - 1 - k) > tol):
                break
            s_prev, d_prev = s_est, d
            v = w / nw
    return float(svd(m)[0])


def eigenvector(m: np.ndarray, lam: complex) -> np.ndarray:
    """Unit right eigenvector for a computed eigenvalue: one shifted solve from a fixed start vector.

    A computed eigenvalue leaves m - lam I within about n eps ||m|| of
    singular, so one np.linalg.solve meets the residual contract
    ||(m - lam I) v|| <= 1e-6 ||m|| unless the start vector is nearly
    orthogonal to the eigenvector; a miss raises :class:`ConvergenceError`
    naming the residual.  An exact eigenvalue is nudged off once.
    """
    m = _require_square(m)
    n = m.shape[0]
    # ||m||_F / sqrt(n) lower-bounds the spectral norm, so the residual
    # contract is met without an extra O(n^3) norm computation per call
    with np.errstate(over="ignore"):
        scale = float(np.linalg.norm(m)) / math.sqrt(n)
    if not math.isfinite(scale):
        raise NonFiniteError("the matrix norm overflows")
    lam = complex(lam)
    tol = 1e-6 * max(scale, 1e-300)
    with np.errstate(over="ignore", invalid="ignore"):
        for shift in (lam, lam + 1e-13 * max(scale, 1.0)):
            try:
                w = np.linalg.solve(m - shift * np.eye(n), _start_vector(_EIGVEC_KEY, n))
                break
            except np.linalg.LinAlgError:
                continue  # singular at an exact eigenvalue: nudge the shift off it
        else:
            raise ConvergenceError("the shifted matrix stays singular after a nudge")
        nw = float(np.linalg.norm(w))
        v = w / nw
        # an overflowing or vanishing solve leaves no direction to measure
        res = float(np.linalg.norm(m @ v - lam * v)) if 0.0 < nw < math.inf else math.inf
    if res <= tol:
        return v
    raise ConvergenceError(f"one shifted solve left residual {res:.3e} (tol {tol:.3e})")
