"""Exact determinant expansions at small size: minor decompositions, the
coupling-order terms det_k, the root-product determinant formula for banded
Toeplitz matrices, and closed-form bidiagonal minors.

These are oracle-grade routines: subset enumeration is capped (the work grows
like a central binomial squared) and summation order is fixed so results are
bitwise reproducible.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from . import matrixgen
from .errors import BadPointError, ShapeError, SizeLimitError
from .symbol import LaurentSymbol, root_profile

MAX_MINOR_SIZE = 14
_BATCH_ELEMS = 1 << 22  # cap on scratch elements per batched determinant call


def _subset_sign(subset: tuple[int, ...]) -> int:
    """Sign of the permutation placing `subset` first, order preserved inside.

    Parity of sum(x_i - i); subset entries are 0-based and ascending.
    """
    return -1 if sum(x - i for i, x in enumerate(subset)) % 2 else 1


def _signed_minor_sum(a: np.ndarray, b: np.ndarray, k: int) -> complex:
    """sum over |X| = |Y| = k of sgn(X) sgn(Y) det(a[Xc; Yc]) det(b[X; Y])."""
    n = a.shape[0]
    subsets = list(itertools.combinations(range(n), k))
    comp = np.array(
        [[i for i in range(n) if i not in set(s)] for s in subsets], dtype=np.intp
    ).reshape(len(subsets), n - k)
    sub = np.array(subsets, dtype=np.intp).reshape(len(subsets), k)
    signs = np.array([_subset_sign(s) for s in subsets], dtype=float)
    ns = len(subsets)
    # chunk the X axis so scratch stays bounded
    per_pair = max((n - k) ** 2, k**2, 1)
    chunk = max(1, _BATCH_ELEMS // max(ns * per_pair, 1))
    total = 0j
    for start in range(0, ns, chunk):
        stop = min(ns, start + chunk)
        rows_c = comp[start:stop]
        rows_s = sub[start:stop]
        det_a = np.linalg.det(a[rows_c[:, None, :, None], comp[None, :, None, :]])
        det_b = np.linalg.det(b[rows_s[:, None, :, None], sub[None, :, None, :]])
        weighted = (signs[start:stop, None] * signs[None, :]) * det_a * det_b
        # fixed subset-lexicographic reduction order
        total += complex(np.sum(weighted))
    return total


def minor_decomposition(a: np.ndarray, b: np.ndarray, k: int) -> complex:
    """The order-k slice of the expansion det(a + b) = sum_k (this value).

    Sums sgn(sigma_X) sgn(sigma_Y) det(a[Xc; Yc]) det(b[X; Y]) over all index
    sets of size k.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError("a and b must be square matrices of equal size")
    n = a.shape[0]
    if n > MAX_MINOR_SIZE:
        raise SizeLimitError(f"minor decomposition capped at n <= {MAX_MINOR_SIZE}")
    if not 0 <= k <= n:
        raise ShapeError(f"k must lie in [0, {n}]")
    return _signed_minor_sum(a, b, k)


def det_k(symbol: LaurentSymbol, z: complex, e: np.ndarray, delta: float, k: int) -> complex:
    """The coupling-order-k term of det(T_n(a - z) + delta * e).

    Order zero is det(T_n(a - z)) itself, independent of e and delta; the
    terms sum to the full determinant.
    """
    e = np.asarray(e, dtype=complex)
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        raise ShapeError("noise matrix must be square")
    n = e.shape[0]
    if n > MAX_MINOR_SIZE:
        raise SizeLimitError(f"det_k capped at n <= {MAX_MINOR_SIZE}")
    t = matrixgen.toeplitz(symbol, n) - z * np.eye(n)
    return delta**k * _signed_minor_sum(t.T, e.T, k)


def widom_det(symbol: LaurentSymbol, z: complex, n: int) -> tuple[complex, float]:
    """det(T_n(a - z)) as a sum of root powers over subsets, as slogdet's (sign, logabsdet) pair.

    Each subset I of size nplus_eff out of the roots of
    zeta^{nminus_eff}(a(zeta) - z) contributes
    C_I * leading^n * (-1)^{n * nplus_eff} * prod_{j in I} zeta_j^n with
    C_I = prod_{j in I, k not in I} zeta_j / (zeta_j - zeta_k).  Nearly
    coincident roots make the C_I blow up and raise :class:`BadPointError`.
    """
    if n < 1:
        raise ShapeError("matrix size must be positive")
    roots, leading = root_profile(symbol, z)
    if np.isinf(roots).any():
        raise BadPointError(
            "degree-deficient point (roots at infinity): the root-product formula degenerates"
        )
    # an exact double root only splits by ~sqrt(machine eps) in the computed
    # roots, so the proximity guard must sit well above that scale
    gaps = np.abs(roots[:, None] - roots)[np.triu_indices(len(roots), 1)]
    if (gaps < 1e-6 * np.abs(roots).max(initial=1.0)).any():
        raise BadPointError(f"near-double root at z = {z}")
    roots = roots.tolist()
    d = len(roots)
    s_eff = d - symbol.nminus_eff
    log_c = cmath.log(leading)
    log_roots = [cmath.log(r) if r != 0 else None for r in roots]
    term_logs: list[complex] = []
    for subset in itertools.combinations(range(d), s_eff):
        inside = set(subset)
        if any(log_roots[j] is None for j in subset):
            continue  # a zero root inside the subset kills the term
        term = n * log_c
        for j in subset:
            term += n * log_roots[j]
            for k in range(d):
                if k not in inside:
                    term += log_roots[j] - cmath.log(roots[j] - roots[k])
        term_logs.append(term)
    sign_flip = (n * s_eff) % 2
    if not term_logs:
        return 0j, -math.inf
    m = max(t.real for t in term_logs)
    s = sum(cmath.exp(t - m) for t in term_logs)
    if s == 0:
        return 0j, -math.inf
    phase = s / abs(s)
    return (-phase if sign_flip else phase), m + math.log(abs(s))


def bidiagonal_minor(zeta: complex, x_set, y_set, n: int) -> complex:
    """det((J_n + zeta I)[Xc; Yc]) in closed form (1-based sorted index sets).

    Nonzero exactly when the sets interleave as y_i <= x_i < y_{i+1}; the
    value is then a pure power of zeta.
    """
    xs = list(x_set)
    ys = list(y_set)
    if len(xs) != len(ys):
        raise ShapeError("index sets must have equal size")
    k = len(xs)
    if k > n:
        raise ShapeError("index sets larger than the matrix")
    for seq in (xs, ys):
        if any(not 1 <= v <= n for v in seq) or any(
            seq[i] >= seq[i + 1] for i in range(len(seq) - 1)
        ):
            raise ShapeError("index sets must be strictly increasing within [1, n]")
    if k == 0:
        return zeta**n
    for i in range(k):
        nxt = ys[i + 1] if i + 1 < k else math.inf
        if not (ys[i] <= xs[i] < nxt):
            return 0j
    exponent = ys[0] - 1 + (n - xs[-1])
    for i in range(1, k):
        step = ys[i] - xs[i - 1] - 1
        assert step >= 0, "negative exponent under valid interleaving: bug"
        exponent += step
    assert exponent >= 0
    return zeta**exponent
