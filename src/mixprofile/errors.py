"""Exception types shared across the package."""


class MixProfileError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(MixProfileError, ValueError):
    """A parameter lies outside its documented domain."""


class SingularSystemError(MixProfileError, RuntimeError):
    """The normal-equation system is rank deficient."""


class SolverDivergedError(MixProfileError, RuntimeError):
    """An iterative solver's objective increased, so its iterate is not trusted."""


class SingularFrequencyError(MixProfileError, ValueError):
    """A frequency vector contains zero entries where positivity is required."""


class InvalidScenarioError(MixProfileError, ValueError):
    """The observed trace does not match the scenario an estimator assumes."""


class UnsupportedQueryError(MixProfileError, RuntimeError):
    """The trace does not carry the data needed to answer the query."""


class ParseError(MixProfileError, ValueError):
    """A file could not be parsed."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class EmptyLogError(MixProfileError, ValueError):
    """An event log contains no events."""


class EmptyTraceError(MixProfileError, ValueError):
    """Batching produced no complete mixing rounds."""
