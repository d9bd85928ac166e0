"""Laurent-polynomial symbols and the root data derived from them.

A symbol is a finite Laurent polynomial a(zeta) = sum_k a_k zeta^k whose
coefficients fill the diagonals of a Toeplitz matrix (entry (i, j) = a_{i-j}).
Everything spectral about those matrices is driven by the roots of

    q_z(zeta) = zeta^{n_minus} * (a(zeta) - z),

where n_minus = max(-min support, 0).  When the top coefficients of q_z
vanish (monomial-type symbols such as a = zeta^{-1}), the missing roots are
recorded as roots at infinity and counted among the large roots, so one code
path covers every band shape.  The winding number of the symbol curve a(S^1)
around z equals (number of roots inside the unit circle) - n_minus.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    BoundaryError,
    ConfigError,
    DegenerateInputError,
    DomainError,
    NonFiniteError,
    OnCurveError,
)

# Half-width of the modulus band around 1 inside which a root is treated as
# sitting on the unit circle.
ON_CIRCLE_TOL = 1e-9
# Half-width of the band around a separating circle (absolute at radius r,
# relative at radius 1/r) inside which :func:`classify_region` refuses a root.
_BOUNDARY_TOL = 1e-9


class LaurentSymbol:
    """A Laurent polynomial with tight support band [kmin, kmax].

    Zero coefficients are dropped, so the stored support endpoints always
    carry nonzero coefficients.  Constant symbols are rejected: the matrices
    they generate are multiples of the identity and fall outside every
    statement this package checks.
    """

    __slots__ = ("coeffs", "kmin", "kmax")

    def __init__(self, coeffs: Mapping[int, complex]):
        items = {int(k): complex(v) for k, v in coeffs.items() if complex(v) != 0}
        if not items:
            raise DegenerateInputError("symbol has no nonzero coefficient")
        if set(items) == {0}:
            raise DegenerateInputError("constant symbol generates a multiple of the identity")
        self.coeffs = items
        self.kmin = min(items)
        self.kmax = max(items)

    @property
    def nplus_eff(self) -> int:
        """max(kmax, 0): the upper band width once the spectral shift -z is included."""
        return max(self.kmax, 0)

    @property
    def nminus_eff(self) -> int:
        """max(-kmin, 0): the lower band width once the spectral shift -z is included."""
        return max(-self.kmin, 0)

    @property
    def band(self) -> int:
        """Total number of roots of q_z, counting roots at infinity."""
        return self.nminus_eff + self.nplus_eff

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentSymbol) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0])))

    def __repr__(self) -> str:
        return f"LaurentSymbol({format_symbol(self)!r})"


def parse_symbol(text: str) -> LaurentSymbol:
    """Parse the `k:re[,im]` semicolon-separated coefficient format.

    Examples: ``-1:1`` is zeta^{-1}; ``-1:1;1:1`` is zeta + zeta^{-1}.
    Whitespace is ignored.  A duplicated index k, a non-finite coefficient
    and a constant or all-zero symbol are configuration errors.
    """
    coeffs: dict[int, complex] = {}
    for term in text.split(";"):
        term = "".join(term.split())
        if not term:
            continue
        try:
            k_str, val = term.split(":")
            k = int(k_str)
            parts = val.split(",")
            if len(parts) == 1:
                c = complex(float(parts[0]), 0.0)
            elif len(parts) == 2:
                c = complex(float(parts[0]), float(parts[1]))
            else:
                raise ValueError(term)
        except ValueError as exc:
            raise ConfigError(f"cannot parse symbol term {term!r}") from exc
        if k in coeffs:
            raise ConfigError(f"duplicate symbol index {k}")
        if not cmath.isfinite(c):
            raise ConfigError(f"symbol term {term!r} is not finite")
        coeffs[k] = c
    try:
        return LaurentSymbol(coeffs)
    except DegenerateInputError as exc:
        raise ConfigError(f"symbol {text!r}: {exc}") from exc


def format_symbol(symbol: LaurentSymbol) -> str:
    """Inverse of :func:`parse_symbol`, with indices in increasing order."""
    terms = []
    for k in sorted(symbol.coeffs):
        c = symbol.coeffs[k]
        if c.imag == 0:
            terms.append(f"{k}:{c.real!r}")
        else:
            terms.append(f"{k}:{c.real!r},{c.imag!r}")
    return ";".join(terms)


def evaluate(symbol: LaurentSymbol, zeta):
    """a(zeta) at a point, or elementwise over an array of points.

    zeta = 0 is outside the domain of a Laurent polynomial.  The terms are
    summed in coefficient order, the order :func:`curve_samples` relies on.
    """
    zeta = np.asarray(zeta, dtype=complex)
    if np.any(zeta == 0):
        raise DomainError("Laurent symbol cannot be evaluated at zeta = 0")
    out = np.zeros(zeta.shape, dtype=complex)
    for k, c in symbol.coeffs.items():
        out += c * zeta**k
    return out if out.ndim else complex(out)


def curve_samples(symbol: LaurentSymbol, n: int, radius: float = 1.0) -> np.ndarray:
    """Samples a(radius * e^{2 pi i k / n}) for k = 0..n-1."""
    if n < 1:
        raise DomainError("need at least one sample point")
    if radius <= 0:
        raise DomainError("radius must be positive")
    return evaluate(symbol, radius * np.exp(2j * np.pi * np.arange(n) / n))


@dataclass(frozen=True)
class RootProfile:
    """Roots of q_z(zeta) = zeta^{n_minus_eff} (a(zeta) - z), sorted by nonincreasing modulus.

    ``infinite`` counts the roots at infinity created when the top coefficients
    of q_z vanish; they are included in ``mplus``.  ``leading`` is the
    coefficient of the actual top nonzero degree.
    """

    roots: tuple[complex, ...]
    infinite: int
    leading: complex
    mplus: int
    mminus: int
    on_circle: int

    @property
    def total(self) -> int:
        return self.infinite + len(self.roots)

    def moduli(self) -> list[float]:
        """Moduli in the sorted order, with math.inf for roots at infinity."""
        return [math.inf] * self.infinite + [abs(r) for r in self.roots]


def companion_roots(coeffs):
    """Roots of each row's polynomial sum_i coeffs[row, i] zeta^i, by stacked companion eigensolves.

    Yields ``(rows, roots)`` per group of rows that share their top nonzero
    degree, which is the column count of ``roots``, and their count of zero
    low-order coefficients (roots at 0).  All-zero rows yield nothing.
    """
    nonzero = coeffs != 0
    top = coeffs.shape[1] - 1
    degs = top - nonzero[:, ::-1].argmax(axis=1)
    groups = np.where(nonzero.any(axis=1), degs * (top + 1) + nonzero.argmax(axis=1), -1)
    for group in set(groups.tolist()) - {-1}:
        deg, nzero = divmod(group, top + 1)
        rows = np.flatnonzero(groups == group)
        m = deg - nzero
        roots = np.zeros((len(rows), deg), dtype=complex)
        if m > 0:
            with np.errstate(over="ignore", invalid="ignore"):
                body = coeffs[rows, nzero : deg + 1] / coeffs[rows, deg : deg + 1]
            if not np.isfinite(body).all():
                raise NonFiniteError("the monic normalization of a polynomial overflows")
            comp = np.zeros((len(rows), m, m), dtype=complex)
            comp[:, 1:, :-1] = np.eye(m - 1)
            comp[:, :, -1] = -body[:, :-1]
            roots[:, nzero:] = np.linalg.eigvals(comp)
        yield rows, roots


def root_profiles(symbol: LaurentSymbol, zs) -> list[RootProfile]:
    """Root data of zeta^{n_minus_eff} (a(zeta) - z) at every z of zs, with the roots-at-infinity convention.

    The roots come from :func:`companion_roots`, one stacked eigensolve per
    group of points; top zero coefficients of q_z become roots at infinity.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    nm, target = symbol.nminus_eff, symbol.band
    base = np.zeros(target + 1, dtype=complex)
    for k, c in symbol.coeffs.items():
        base[k + nm] += c
    coeffs = base[None, :].repeat(len(zs), axis=0)
    coeffs[:, nm] -= zs
    if not (coeffs != 0).any(axis=1).all():
        raise DegenerateInputError("shifted symbol polynomial is identically zero")
    out: list[RootProfile | None] = [None] * len(zs)
    for rows, roots in companion_roots(coeffs):
        deg = roots.shape[1]
        # deterministic nonincreasing-modulus order, angle as tie break
        order = np.lexsort((np.angle(roots), -np.abs(roots)), axis=-1)
        roots = roots[np.arange(len(rows))[:, None], order]
        mods = np.abs(roots)
        infinite = target - deg
        counts = zip(
            (np.abs(mods - 1.0) < ON_CIRCLE_TOL).sum(axis=-1).tolist(),
            (mods >= 1.0 + ON_CIRCLE_TOL).sum(axis=-1).tolist(),
            (mods <= 1.0 - ON_CIRCLE_TOL).sum(axis=-1).tolist(),
        )
        for row, rts, (on_circle, mplus, mminus) in zip(rows.tolist(), roots, counts):
            out[row] = RootProfile(
                roots=tuple(rts),
                infinite=infinite,
                leading=complex(coeffs[row, deg]),
                mplus=infinite + mplus,
                mminus=mminus,
                on_circle=on_circle,
            )
    return out


def root_profile(symbol: LaurentSymbol, z: complex) -> RootProfile:
    """Root data of zeta^{n_minus_eff} (a(zeta) - z): the one-point case of :func:`root_profiles`."""
    return root_profiles(symbol, [z])[0]


def winding_number(symbol: LaurentSymbol, z: complex, prof: RootProfile | None = None) -> int:
    """Winding number of the symbol curve around z, via root counting.

    Equals m_-(z) - n_minus_eff.  Points on the curve (a root of modulus 1
    within tolerance) are rejected.  ``prof``, when given, is
    ``root_profile(symbol, z)`` computed beforehand (see :func:`root_profiles`).
    """
    if prof is None:
        prof = root_profile(symbol, z)
    if prof.on_circle:
        raise OnCurveError(f"z = {z} lies on the symbol curve within tolerance")
    return prof.mminus - symbol.nminus_eff


def classify_region(symbol: LaurentSymbol, z: complex, r: float, prof: RootProfile | None = None) -> str:
    """The region of z in the decomposition used by the exponential-noise limit law.

    Returns ``"S0"`` for winding number 0, else ``"S{d},{ell}"`` for winding
    number d != 0, with ell counting how many roots straddle the radius-r
    circle (d > 0) or the radius-1/r circle (d < 0).  Points whose root
    moduli sit on that separating circle raise :class:`BoundaryError`;
    points on the symbol curve itself raise :class:`OnCurveError`.  ``prof``
    is as in :func:`winding_number`.
    """
    if not 0 < r < 1:
        raise ConfigError("the radius parameter must lie in (0, 1)")
    if prof is None:
        prof = root_profile(symbol, z)
    if prof.on_circle:
        raise OnCurveError(f"z = {z} lies on the symbol curve within tolerance")
    d = prof.mminus - symbol.nminus_eff
    if d == 0:
        return "S0"
    mods = prof.moduli()
    if d > 0:
        if any(abs(m - r) <= _BOUNDARY_TOL for m in mods if math.isfinite(m)):
            raise BoundaryError(f"z = {z} has a root modulus on the radius-{r} circle")
        ell = sum(1 for m in mods if r < m <= 1.0 - ON_CIRCLE_TOL)
    else:
        rinv = 1.0 / r
        if any(abs(m - rinv) <= _BOUNDARY_TOL * rinv for m in mods if math.isfinite(m)):
            raise BoundaryError(f"z = {z} has a root modulus on the radius-{rinv} circle")
        ell = sum(1 for m in mods if m > rinv)
    return f"S{d},{ell}"
