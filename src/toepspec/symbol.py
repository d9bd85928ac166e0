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

Root data are arrays: :func:`root_profile` solves q_z at a point or over an
array, and each count of roots is read off their moduli where it is needed.
"""

from __future__ import annotations

import cmath
import math
from typing import Mapping

import numpy as np

from .errors import (
    BoundaryError,
    ConfigError,
    DegenerateInputError,
    DomainError,
    NonFiniteError,
    OnCurveError,
    SizeLimitError,
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


def _zeros(*shape: int) -> np.ndarray:
    """np.zeros(shape, complex), or SizeLimitError for a shape past numpy's array size limit (a ValueError there)."""
    if math.prod(shape) > np.iinfo(np.intp).max // 16:
        raise SizeLimitError(f"{math.prod(shape)} polynomial coefficients exceed numpy's array size limit")
    return np.zeros(shape, dtype=complex)


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
            comp = _zeros(len(rows), m, m)
            comp[:, 1:, :-1] = np.eye(m - 1)
            comp[:, :, -1] = -body[:, :-1]
            roots[:, nzero:] = np.linalg.eigvals(comp)
        yield rows, roots


def root_profile(symbol: LaurentSymbol, z):
    """Roots and leading coefficient of q_z(zeta) = zeta^{n_minus_eff} (a(zeta) - z), at a point or over an array.

    Returns ``(roots, leading)``: ``symbol.band`` roots per point, sorted by
    nonincreasing modulus (angle as tie break), with one root at infinity,
    stored as inf, per vanished top coefficient of q_z; and the coefficient of
    q_z's top nonzero degree.  One stacked eigensolve per group of points
    (:func:`companion_roots`); no row of q_z is all zero, as no symbol is constant.
    """
    zs = np.asarray(z, dtype=complex)
    nm, band = symbol.nminus_eff, symbol.band
    coeffs = _zeros(zs.size, band + 1)
    for k, c in symbol.coeffs.items():
        coeffs[:, k + nm] += c
    coeffs[:, nm] -= zs.ravel()
    roots = np.full((zs.size, band), np.inf, dtype=complex)
    leading = np.empty(zs.size, dtype=complex)
    for rows, rts in companion_roots(coeffs):
        deg = rts.shape[1]
        order = np.lexsort((np.angle(rts), -np.abs(rts)), axis=-1)
        roots[rows, band - deg :] = np.take_along_axis(rts, order, axis=-1)
        leading[rows] = coeffs[rows, deg]
    # [()] turns the 0-d leading of a point into a scalar and leaves an array as it is
    return roots.reshape(zs.shape + (band,)), leading.reshape(zs.shape)[()]


def winding_number(symbol: LaurentSymbol, z):
    """Winding number of the symbol curve around z, a point or an array, via root counting.

    Equals m_-(z) - n_minus_eff, with m_-(z) the roots of q_z inside the
    unit circle.  A point on the curve (a root of modulus 1 within
    tolerance) raises :class:`OnCurveError`; over an array the winding
    numbers come as floats, NaN at the points on the curve.
    """
    mods = np.abs(root_profile(symbol, z)[0])
    on_curve = (np.abs(mods - 1.0) < ON_CIRCLE_TOL).any(axis=-1)
    wind = (mods <= 1.0 - ON_CIRCLE_TOL).sum(axis=-1) - symbol.nminus_eff
    if np.ndim(z):
        return np.where(on_curve, np.nan, wind)
    if on_curve:
        raise OnCurveError(f"z = {z} lies on the symbol curve within tolerance")
    return int(wind)


def classify_region(symbol: LaurentSymbol, z: complex, r: float, mods: list[float] | None = None) -> str:
    """The region of the point z in the decomposition used by the exponential-noise limit law.

    Returns ``"S0"`` for winding number 0, else ``"S{d},{ell}"`` for winding
    number d != 0, with ell counting how many roots straddle the radius-r
    circle (d > 0) or the radius-1/r circle (d < 0).  Points whose root
    moduli sit on that separating circle raise :class:`BoundaryError`;
    points on the symbol curve itself raise :class:`OnCurveError`.
    ``mods``, when given, is z's row of root moduli computed beforehand, as
    a list: ``np.abs(root_profile(symbol, zs)[0]).tolist()`` has one per
    point of zs.
    """
    if not 0 < r < 1:
        raise ConfigError("the radius parameter must lie in (0, 1)")
    if mods is None:
        mods = np.abs(root_profile(symbol, z)[0]).tolist()
    d = -symbol.nminus_eff
    for m in mods:  # one pass: plain loops beat generators on a row of a few roots
        if abs(m - 1.0) < ON_CIRCLE_TOL:
            raise OnCurveError(f"z = {z} lies on the symbol curve within tolerance")
        d += m <= 1.0 - ON_CIRCLE_TOL
    if d == 0:
        return "S0"
    # a root at infinity is never within tolerance of a finite circle
    if d > 0:
        if any(abs(m - r) <= _BOUNDARY_TOL for m in mods):
            raise BoundaryError(f"z = {z} has a root modulus on the radius-{r} circle")
        ell = sum(1 for m in mods if r < m <= 1.0 - ON_CIRCLE_TOL)
    else:
        rinv = 1.0 / r
        if any(abs(m - rinv) <= _BOUNDARY_TOL * rinv for m in mods):
            raise BoundaryError(f"z = {z} has a root modulus on the radius-{rinv} circle")
        ell = sum(1 for m in mods if m > rinv)
    return f"S{d},{ell}"
