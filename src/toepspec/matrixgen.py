"""Deterministic matrix constructions and reproducible noise ensembles.

Matrices are plain dense ``numpy`` arrays of ``complex128``.  Noise sampling
uses the counter-based Philox generator keyed by a 64-bit seed, so a sample
is a pure function of (spec, n, seed) regardless of how callers schedule the
work; independent tasks derive their own streams through :func:`task_seed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NonFiniteError, SizeLimitError, UnderflowError
from .symbol import LaurentSymbol

NOISE_KINDS = ("complex_gaussian", "real_gaussian", "rademacher", "uniform_pm")
# perturbation kind -> the config field naming its value, the open interval
# the value must lie in, and the coupling delta_N as a function of (value, N)
_PERT_RULES = {
    "none": (None, None, None, None),
    "poly": ("gamma", -math.inf, math.inf, lambda g, n: float(n) ** -g),
    "exp": ("r", 0.0, 1.0, lambda r, n: r**n),
    "superexp": ("c", 0.0, math.inf, lambda c, n: math.exp(-c * n * math.log(n)) if n > 1 else 1.0),
    "macro": ("sigma", 0.0, math.inf, lambda s, n: s / math.sqrt(n)),
}
PERT_KINDS = tuple(_PERT_RULES)
MATRIX_KINDS = ("toeplitz", "circulant", "perturbed")
# the largest n whose n x n complex128 array numpy can describe; larger
# shapes raise ValueError in numpy, smaller ones at most MemoryError
MAX_N = math.isqrt(np.iinfo(np.intp).max // 16)

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def task_seed(master_seed: int, task_index: int) -> int:
    """Derive the seed for one task (a trial, a probe stream) from a master seed.

    A splitmix64 hash of (master, index) keeps task streams independent, and
    each stream depends on its index alone, not on the tasks run before it.
    """
    return _splitmix64(_splitmix64(master_seed & _MASK64) ^ (task_index & _MASK64))


def check_size(n: int) -> None:
    """Refuse a matrix size below 1 (DomainError) or above :data:`MAX_N` (SizeLimitError)."""
    if n < 1:
        raise DomainError("matrix size must be positive")
    if n > MAX_N:
        raise SizeLimitError(f"matrix size n={n} exceeds numpy's array size limit (n <= {MAX_N})")


def is_real(x) -> bool:
    """True for a finite int or float; bools are not numbers here."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


@dataclass(frozen=True)
class NoiseSpec:
    """An i.i.d. noise ensemble, centered with unit variance per entry."""

    kind: str = "complex_gaussian"

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"unknown noise kind {self.kind!r}; choose from {NOISE_KINDS}")


@dataclass(frozen=True)
class PerturbationSpec:
    """Coupling-strength schedule delta_N for the additive noise: a kind and its one value.

    kinds and values: ``none`` takes none; ``poly`` delta = n^-gamma, value
    gamma; ``exp`` delta = r^n, value r in (0, 1); ``superexp`` delta =
    exp(-c n log n), value c > 0; ``macro`` delta = sigma n^{-1/2}, value
    sigma > 0.  A config names the value by its field, ``{"kind": "poly",
    "gamma": 2}``, and the CLI writes ``poly:2``.
    """

    kind: str = "none"
    value: float | None = None

    def __post_init__(self):
        if self.kind not in PERT_KINDS:
            raise ConfigError(f"unknown perturbation kind {self.kind!r}; choose from {PERT_KINDS}")
        name, lo, hi, _ = _PERT_RULES[self.kind]
        if name is None and self.value is not None:
            raise ConfigError(f"{self.kind} perturbation takes no value")
        if name is not None and not (is_real(self.value) and lo < self.value < hi):
            raise ConfigError(f"{self.kind} perturbation needs {name} in ({lo:g}, {hi:g}), got {self.value!r}")

    def coupling(self, n: int) -> float:
        check_size(n)
        name, _, _, delta_n = _PERT_RULES[self.kind]
        if name is None:
            return 0.0
        try:
            delta = delta_n(self.value, n)
        except OverflowError:  # float ** raises rather than return inf, e.g. poly with gamma < 0
            raise NonFiniteError(f"coupling for kind={self.kind!r} overflows at n={n}") from None
        if delta <= 0.0:
            raise UnderflowError(f"coupling for kind={self.kind!r} underflowed at n={n}")
        return delta

    def to_dict(self) -> dict:
        name = _PERT_RULES[self.kind][0]
        return {"kind": self.kind} if name is None else {"kind": self.kind, name: self.value}

    @classmethod
    def from_dict(cls, d: dict) -> "PerturbationSpec":
        if not isinstance(d, dict) or "kind" not in d:
            raise ConfigError("perturbation spec must be a mapping with a 'kind'")
        kind = d["kind"]
        name = _PERT_RULES[kind][0] if kind in PERT_KINDS else None
        spec = cls(kind, d.get(name))
        extra = set(d) - {"kind", name}
        if extra:
            raise ConfigError(f"{kind} perturbation takes no field {sorted(extra)}")
        return spec

    @classmethod
    def parse(cls, text: str) -> "PerturbationSpec":
        """Parse the CLI grammar poly:<gamma> | exp:<r> | superexp:<c> | macro:<sigma> | none."""
        text = text.strip()
        if text == "none":
            return cls("none")
        try:
            kind, val = text.split(":")
            x = float(val)
        except ValueError as exc:
            raise ConfigError(f"cannot parse perturbation {text!r}") from exc
        return cls(kind, x)


def _band(coeffs: dict[int, complex], n: int) -> np.ndarray:
    """The n x n matrix with entry (i, j) = coeffs[i - j], zero off the given diagonals."""
    m = np.zeros((n, n), dtype=complex)
    idx = np.arange(n)
    diff = idx[:, None] - idx[None, :]
    for k, c in coeffs.items():
        m[diff == k] = c
    return m


def toeplitz(symbol: LaurentSymbol, n: int) -> np.ndarray:
    """The n x n Toeplitz matrix with entry (i, j) = a_{i-j}."""
    check_size(n)
    return _band(symbol.coeffs, n)


def circulant(symbol: LaurentSymbol, n: int) -> np.ndarray:
    """The circulant with entry (i, j) = a_{(i-j) mod n}, representative in the band.

    Its eigenvalues are a(omega^k) at the n-th roots of unity, which makes it
    the normal-matrix oracle throughout the test suite.
    """
    if n <= symbol.kmax - symbol.kmin:
        raise ConfigError(f"band [{symbol.kmin}, {symbol.kmax}] too wide for a {n} x {n} circulant")
    check_size(n)
    # a_k fills the diagonals i - j = k mod n and k mod n - n that lie in the matrix
    return _band({d: c for k, c in symbol.coeffs.items() for d in (k % n, k % n - n) if d > -n}, n)


def sample_noise(spec: NoiseSpec, n: int, seed: int) -> np.ndarray:
    """An n x n draw of i.i.d. unit-variance noise, a pure function of (spec, n, seed)."""
    check_size(n)
    rng = np.random.Generator(np.random.Philox(key=seed & _MASK64))
    if spec.kind == "complex_gaussian":
        g = rng.standard_normal((2, n, n))
        return (g[0] + 1j * g[1]) / math.sqrt(2)
    if spec.kind == "real_gaussian":
        return rng.standard_normal((n, n)).astype(complex)
    if spec.kind == "rademacher":
        return (2.0 * rng.integers(0, 2, size=(n, n)) - 1.0).astype(complex)
    # uniform_pm: uniform on [-sqrt(3), sqrt(3)], variance 1
    return (rng.uniform(-math.sqrt(3), math.sqrt(3), size=(n, n))).astype(complex)


def perturbed(
    symbol: LaurentSymbol,
    n: int,
    pert: PerturbationSpec,
    noise: NoiseSpec,
    seed: int,
    scale: float | None = None,
) -> np.ndarray:
    """toeplitz(symbol, n) + delta_n * sample_noise(noise, n, seed).

    With ``scale`` = rho > 0, for ``exp`` noise only, the result is the
    similar matrix D^-1 M D, D = diag(rho^i), built without forming M: the
    band coefficient a_k becomes a_k rho^-k, and noise entry (i, j) is
    multiplied by r^n rho^(j-i) evaluated as one power.  The product of a
    subnormal r^n and a rho^(j-i) beyond the float range is never formed, so
    a weight overflows only where r^n rho^(j-i) itself does.  A matrix with
    an entry that overflows raises NonFiniteError; a band outside the matrix
    is never placed, whatever its scaled coefficient.
    """
    if scale is not None and pert.kind != "exp":
        raise ConfigError(f"scale applies to exp perturbations only, not {pert.kind!r}")
    if pert.kind == "none":
        return toeplitz(symbol, n)
    weight = pert.coupling(n)  # raises UnderflowError once r^n underflows, scaled or not
    with np.errstate(over="ignore", invalid="ignore"):
        if scale is None:
            band = toeplitz(symbol, n)
        else:
            # a far a_k rho^-k may underflow to zero, which leaves its diagonal empty, or
            # overflow to inf, which a band outside the matrix never places
            band = _band({k: c * np.float64(scale) ** -k for k, c in symbol.coeffs.items()}, n)
            # n log r keeps the full precision that a subnormal r^n has lost
            idx = np.arange(n)
            weight = np.exp(n * math.log(pert.value) + (idx[None, :] - idx[:, None]) * math.log(scale))
        m = band + weight * sample_noise(noise, n, seed)
    if not np.isfinite(m).all():
        raise NonFiniteError(f"an entry of the perturbed {n} x {n} matrix overflows")
    return m


def build_matrix(
    kind: str, symbol: LaurentSymbol, n: int, pert: PerturbationSpec, noise: NoiseSpec, seed: int
) -> np.ndarray:
    """The matrix of one of :data:`MATRIX_KINDS`; ``perturbed`` draws its noise from ``seed``.

    The ``perturbed`` kind is never scaled: s_min(z - M), unlike the
    spectrum, is not invariant under the similarity D^-1 M D.
    """
    if kind not in MATRIX_KINDS:
        raise ConfigError(f"unknown matrix kind {kind!r}; choose from {MATRIX_KINDS}")
    if kind == "perturbed":
        return perturbed(symbol, n, pert, noise, seed)
    return circulant(symbol, n) if kind == "circulant" else toeplitz(symbol, n)
