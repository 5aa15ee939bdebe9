"""Exception hierarchy shared across the package."""


class PanotrackError(Exception):
    """Base class for all package errors."""


class GeometryError(PanotrackError):
    """Point outside the valid domain of a camera-model mapping."""


class AboveHorizonError(GeometryError):
    """Ground-range requested for a direction at or above the horizon."""


class DegenerateSkeletonError(PanotrackError):
    """A detection lacks the joints required by an operation."""


class FilterDivergenceError(PanotrackError):
    """Track covariance could not be kept positive definite."""


class InputError(PanotrackError):
    """Malformed or inconsistent input stream/file."""


class ConfigError(InputError):
    """Invalid configuration value or inconsistent parameter combination."""
