"""Exception and warning types shared across the package.

Warnings are emitted through the standard ``warnings`` machinery so that the
CLI can collect every event raised during a run and attach it to the report.
"""


class MagHardyError(Exception):
    """Base class for all package errors."""


class NonIntegrableField(MagHardyError):
    """Field parameters give a flux integral that diverges at the origin."""


class QuadratureFailure(MagHardyError):
    """Adaptive quadrature could not meet the requested tolerance."""


class DomainError(MagHardyError):
    """Evaluation requested outside a weight's or function's domain."""


class UnknownClass(MagHardyError):
    """Custom profile lacks the metadata needed to classify it."""


class SupportError(MagHardyError):
    """Test function support leaks past the quadrature grid."""


class ParameterError(MagHardyError):
    """Probe parameters outside their admissible window."""


class FluxNotInteger(MagHardyError):
    """Total flux is not integer-valued within tolerance."""


class PreconditionError(MagHardyError):
    """Operation precondition violated (e.g. |alpha| > 1/4)."""


class StiffnessFailure(MagHardyError):
    """A cell of the Pruefer count's table is too long for its coefficient."""


class NoTruncation(MagHardyError):
    """Mode truncation failed: potential does not decay fast enough on the grid."""


class ConfigError(MagHardyError):
    """Invalid run configuration; message carries the offending key."""


class InsufficientGrowth(MagHardyError):
    """Coupling sweep never produced enough eigenvalues to fit an exponent."""


class ZeroPivotWarning(UserWarning):
    """An exact zero pivot occurred in the tridiagonal factorization."""


class ScanResolutionWarning(UserWarning):
    """Level-set scan grid may be too coarse for the potential ratio."""


class UnboundedWarning(UserWarning):
    """A capped integral kept growing without saturating."""
