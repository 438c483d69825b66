"""Exception types shared across the package.

Every error raised on a bad input or a degenerate computation derives from
SpecdistError so callers can catch one base.  Each class carries the CLI
exit code of its failure class: 4 for malformed input (FormatError), 5 for
an invalid configuration (ConfigurationError), 6 for degenerate data
(AnalysisError); subclasses inherit their parent's code.
"""


class SpecdistError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 1


class FormatError(SpecdistError):
    """Malformed input file: bad header, bad schema, or too many bad rows."""

    exit_code = 4


class AlignmentError(FormatError):
    """Two metric series do not share a common window grid."""


class DimensionError(FormatError):
    """Metric series of mismatched shape or length, or too short to fit."""


class ConfigurationError(SpecdistError):
    """Invalid simulation or analysis configuration."""

    exit_code = 5


class InvalidWindowError(ConfigurationError):
    """Window width or stride outside the valid range."""


class AnalysisError(SpecdistError):
    """Analysis cannot proceed (too few channels, too little data)."""

    exit_code = 6


class TransformError(AnalysisError):
    """Requested value transform is undefined for the given data."""


class UndefinedCorrelationError(AnalysisError):
    """Correlation requested for a series with zero variance."""


class DegenerateFitError(AnalysisError):
    """Proportionality fit requested against an all-zero regressor."""
