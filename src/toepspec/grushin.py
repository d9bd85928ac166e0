"""Enlargement of a matrix to a well-posed block problem built from its SVD.

Splitting the singular values of A at a threshold alpha, the enlarged matrix
P = [[A, R_-], [R_+, 0]] is invertible with inverse E-blocks assembled from
the singular vectors; the Schur complement block E_{-+} carries exactly the
small singular values.  This gives the deterministic equivalence

    (1/N) log|det(A + delta Q)| ~ (1/N) sum_{s_j > alpha} log s_j

for couplings delta well below alpha, which is the quantity
:func:`equivalence_gap` measures.  The right side depends on A alone, so its
singular values are taken once per matrix and shared by every gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousCutError, CouplingTooLargeError, ShapeError
from .linalg import lu_logdet, svd

_CUT_RTOL = 1e-12


@dataclass(frozen=True)
class GrushinFactorization:
    """Blocks of the enlarged problem for one matrix and one threshold.

    With singular triplets (t_i, e_i, f_i) sorted nondecreasing and M the
    number of t_i <= alpha:

      r_plus  = sum delta_i e_i^*        (M x N)
      r_minus = sum f_i delta_i^*        (N x M)
      e_block = sum_{i>M} e_i f_i^* / t_i
      e_plus  = sum e_i delta_i^*        (N x M)
      e_minus = sum delta_i f_i^*        (M x N)
      e_mp    = -diag(t_1..t_M)

    where delta_i is the standard basis of C^M.
    """

    a: np.ndarray
    alpha: float
    m_cut: int
    singular_values: np.ndarray
    r_plus: np.ndarray
    r_minus: np.ndarray
    e_block: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray
    e_mp: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def p_matrix(self) -> np.ndarray:
        """The enlarged matrix [[A, R_-], [R_+, 0]] of size (N+M)^2."""
        n, m = self.n, self.m_cut
        p = np.zeros((n + m, n + m), dtype=complex)
        p[:n, :n] = self.a
        p[:n, n:] = self.r_minus
        p[n:, :n] = self.r_plus
        return p

    def e_matrix(self) -> np.ndarray:
        """The inverse [[E, E_+], [E_-, E_{-+}]] of the enlarged matrix."""
        n, m = self.n, self.m_cut
        e = np.zeros((n + m, n + m), dtype=complex)
        e[:n, :n] = self.e_block
        e[:n, n:] = self.e_plus
        e[n:, :n] = self.e_minus
        e[n:, n:] = self.e_mp
        return e


def build(a: np.ndarray, alpha: float) -> GrushinFactorization:
    """Factor a square matrix at threshold alpha.

    A singular value within 1e-12 * ||a|| of alpha makes the cut ambiguous
    and raises; callers nudge alpha and retry.
    """
    a = np.asarray(a, dtype=complex)
    if alpha <= 0:
        raise ShapeError("alpha must be positive")
    t, f_vec, e_vec = svd(a, want_vectors=True)
    scale = float(t[-1]) if len(t) else 0.0
    if np.any(np.abs(t - alpha) <= _CUT_RTOL * max(scale, 1.0)):
        raise AmbiguousCutError(f"singular value on the cut alpha = {alpha}")
    m = int(np.sum(t <= alpha))
    e_small, e_big = e_vec[:, :m], e_vec[:, m:]
    f_small, f_big = f_vec[:, :m], f_vec[:, m:]
    t_small, t_big = t[:m], t[m:]
    return GrushinFactorization(
        a=a,
        alpha=float(alpha),
        m_cut=m,
        singular_values=t,
        r_plus=e_small.conj().T,
        r_minus=f_small,
        e_block=(e_big / t_big[None, :]) @ f_big.conj().T,
        e_plus=e_small,
        e_minus=f_small.conj().T,
        e_mp=-np.diag(t_small.astype(complex)),
    )


@dataclass(frozen=True)
class PerturbedBlocks:
    """Inverse blocks of the enlarged problem for A + delta Q."""

    delta: float
    e_block: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray
    e_mp: np.ndarray


def perturbed_blocks(g: GrushinFactorization, q: np.ndarray, delta: float) -> PerturbedBlocks:
    """Blocks of the inverse of [[A + delta Q, R_-], [R_+, 0]].

    Requires 2 delta ||Q|| / alpha <= 1, which keeps I + delta Q E invertible
    by a Neumann bound; the assembled blocks then satisfy ||E^d|| <= 2/alpha
    and ||E_{-+}^d - E_{-+}|| <= alpha.
    """
    q = np.asarray(q, dtype=complex)
    n = g.n
    if q.shape != (n, n):
        raise ShapeError("perturbation must match the factored matrix")
    if delta < 0:
        raise ShapeError("delta must be nonnegative")
    qnorm = float(np.linalg.norm(q, 2)) if delta > 0 else 0.0
    if 2.0 * delta * qnorm > g.alpha:
        raise CouplingTooLargeError(
            f"2 delta ||Q|| / alpha = {2 * delta * qnorm / g.alpha:.3g} exceeds 1"
        )
    core = np.eye(n) + delta * (q @ g.e_block)
    # right-multiplication by core^{-1} via a transposed solve
    e_d = np.linalg.solve(core.T, g.e_block.T).T
    e_minus_d = np.linalg.solve(core.T, g.e_minus.T).T
    qe_plus = delta * (q @ g.e_plus)
    e_mp_d = g.e_mp - e_minus_d @ qe_plus
    e_plus_d = g.e_plus - e_d @ qe_plus
    return PerturbedBlocks(
        delta=float(delta),
        e_block=e_d,
        e_plus=e_plus_d,
        e_minus=e_minus_d,
        e_mp=e_mp_d,
    )


def truncated_logdet(s: np.ndarray, alpha: float) -> float:
    """(1/N) sum of log s_j over s_j > alpha (0 if none); s = svd(a), taken once per matrix."""
    return float(np.sum(np.log(s[s > alpha]))) / len(s)


def equivalence_gap(a: np.ndarray, s: np.ndarray, q: np.ndarray, delta: float, alpha: float) -> float:
    """| (1/N) log|det(A + delta Q)| - (1/N) sum_{s_j > alpha} log s_j |.

    s holds the singular values of A, ``svd(a)``, taken once
    per matrix.  Returns +inf when the perturbed matrix is numerically singular.
    """
    a = np.asarray(a, dtype=complex)
    q = np.asarray(q, dtype=complex)
    if a.shape != q.shape:
        raise ShapeError("matrix and perturbation must have equal shape")
    n = a.shape[0]
    _, log_abs = lu_logdet(a + delta * q)
    if not math.isfinite(log_abs):
        return math.inf
    return abs(float(log_abs) / n - truncated_logdet(s, alpha))
