"""toepspec: spectra, pseudospectra and eigenvector localization of randomly
perturbed banded Toeplitz matrices."""

from . import linalg  # noqa: F401  (importing it runs OpenBLAS on one thread)
from .errors import ToepspecError
from .matrixgen import NoiseSpec, PerturbationSpec, task_seed
from .symbol import LaurentSymbol, parse_symbol, format_symbol

__all__ = [
    "LaurentSymbol",
    "NoiseSpec",
    "PerturbationSpec",
    "ToepspecError",
    "format_symbol",
    "parse_symbol",
    "task_seed",
]

__version__ = "0.1.0"
