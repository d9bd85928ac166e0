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
    OnCurveError,
)

# Half-width of the modulus band around 1 inside which a root is treated as
# sitting on the unit circle.
ON_CIRCLE_TOL = 1e-9
# Half-width of the band around a separating circle (absolute at radius r,
# relative at radius 1/r) inside which :func:`classify_region` refuses a root.
_BOUNDARY_TOL = 1e-9


class LaurentSymbol:
    """A Laurent polynomial with tight support band [-nminus, nplus].

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
    def nplus(self) -> int:
        """Upper support endpoint N_+ (may be negative)."""
        return self.kmax

    @property
    def nminus(self) -> int:
        """Lower support endpoint N_- in a_{-N_-} (may be negative)."""
        return -self.kmin

    @property
    def nplus_eff(self) -> int:
        """max(N_+, 0): the upper band width once the spectral shift -z is included."""
        return max(self.kmax, 0)

    @property
    def nminus_eff(self) -> int:
        """max(N_-, 0): the lower band width once the spectral shift -z is included."""
        return max(-self.kmin, 0)

    @property
    def a0(self) -> complex:
        return self.coeffs.get(0, 0j)

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


def _poly_roots(coeffs_ascending: np.ndarray) -> np.ndarray:
    """All roots of sum c_j zeta^j via the companion matrix of the monic normalization."""
    c = np.asarray(coeffs_ascending, dtype=complex)
    # strip exact-zero high-order coefficients; callers have already fixed the degree
    deg = len(c) - 1
    if deg == 0:
        return np.zeros(0, dtype=complex)
    nzero = 0
    while nzero < deg and c[nzero] == 0:
        nzero += 1
    body = c[nzero:] / c[-1]
    m = len(body) - 1
    roots = [0j] * nzero
    if m > 0:
        comp = np.zeros((m, m), dtype=complex)
        comp[1:, :-1] = np.eye(m - 1)
        comp[:, -1] = -body[:-1]
        roots.extend(np.linalg.eigvals(comp))
    return np.asarray(roots, dtype=complex)


def root_profile(symbol: LaurentSymbol, z: complex) -> RootProfile:
    """Root data of zeta^{n_minus_eff} (a(zeta) - z) with the roots-at-infinity convention."""
    nm = symbol.nminus_eff
    target = symbol.band
    coeffs = np.zeros(target + 1, dtype=complex)
    for k, c in symbol.coeffs.items():
        coeffs[k + nm] += c
    coeffs[nm] -= z
    deg = target
    while deg > 0 and coeffs[deg] == 0:
        deg -= 1
    if deg == 0 and coeffs[0] == 0:
        raise DegenerateInputError("shifted symbol polynomial is identically zero")
    leading = coeffs[deg]
    roots = _poly_roots(coeffs[: deg + 1])
    # deterministic nonincreasing-modulus order, angle as tie break
    order = np.lexsort((np.angle(roots), -np.abs(roots)))
    roots = roots[order]
    mods = np.abs(roots)
    infinite = target - deg
    on_circle = int(np.sum(np.abs(mods - 1.0) < ON_CIRCLE_TOL))
    mplus = infinite + int(np.sum(mods >= 1.0 + ON_CIRCLE_TOL))
    mminus = int(np.sum(mods <= 1.0 - ON_CIRCLE_TOL))
    return RootProfile(
        roots=tuple(roots),
        infinite=infinite,
        leading=complex(leading),
        mplus=mplus,
        mminus=mminus,
        on_circle=on_circle,
    )


def winding_number(symbol: LaurentSymbol, z: complex) -> int:
    """Winding number of the symbol curve around z, via root counting.

    Equals m_-(z) - n_minus_eff.  Points on the curve (a root of modulus 1
    within tolerance) are rejected.
    """
    prof = root_profile(symbol, z)
    if prof.on_circle:
        raise OnCurveError(f"z = {z} lies on the symbol curve within tolerance")
    return prof.mminus - symbol.nminus_eff


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


def classify_region(symbol: LaurentSymbol, z: complex, r: float) -> str:
    """The region of z in the decomposition used by the exponential-noise limit law.

    Returns ``"S0"`` for winding number 0, else ``"S{d},{ell}"`` for winding
    number d != 0, with ell counting how many roots straddle the radius-r
    circle (d > 0) or the radius-1/r circle (d < 0).  Points whose root
    moduli sit on that separating circle raise :class:`BoundaryError`;
    points on the symbol curve itself raise :class:`OnCurveError`.
    """
    if not 0 < r < 1:
        raise ConfigError("the radius parameter must lie in (0, 1)")
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
    is_a0 = abs(z - symbol.a0) < tol
    return BadSetFlags(double_root=double, equal_modulus_ratio=equal_mod, is_a0=is_a0)


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
