"""Exception hierarchy shared across the package."""


class ToepspecError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ToepspecError):
    """An argument lies outside the mathematical domain of the operation."""


class DegenerateInputError(ToepspecError):
    """The input collapses to a degenerate object (e.g. an identically zero polynomial)."""


class OnCurveError(ToepspecError):
    """The point lies on the symbol curve within tolerance."""


class BoundaryError(ToepspecError):
    """The point lies on a separating modulus boundary within tolerance."""


class BadPointError(ToepspecError):
    """The point belongs to the exceptional set where root-based formulas break down."""


class ShapeError(ToepspecError):
    """Matrix or vector dimensions do not match the operation's contract."""


class ConvergenceError(ToepspecError):
    """A kernel failed to converge or to meet its residual contract."""


class AmbiguousCutError(ToepspecError):
    """A singular value sits on the truncation threshold within tolerance."""


class CouplingTooLargeError(ToepspecError):
    """The perturbation is too strong for the enlarged problem to stay well posed."""


class UnderflowError(ToepspecError):
    """A coupling constant underflowed to exact zero."""


class NormalizationError(ToepspecError):
    """A vector expected to have unit norm does not."""


class ConfigError(ToepspecError):
    """Invalid experiment or CLI configuration."""


class SizeLimitError(ConfigError):
    """The input exceeds a hard size guard (combinatorial or memory blowup): a configuration error."""


class EmptyDataError(ToepspecError):
    """No data was supplied where at least one element is required."""


class NonFiniteError(ToepspecError):
    """A computed result overflowed to inf or became NaN."""


class WorkerDiedError(ToepspecError):
    """A worker process ended without returning its results."""
