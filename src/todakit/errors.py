"""Exception types shared across the package.

Every error raised on a user-facing path names the offending parameter or
carries the diagnostic payload (residual history, JSON pointer) the caller
needs to act on the failure.
"""


class TodaKitError(Exception):
    """Base class for all package errors."""


class ConfigurationError(TodaKitError):
    """A parameter value is outside its documented domain; `key` names the
    parameter, as a document field, when a constructor rejects one."""

    def __init__(self, message, key=""):
        super().__init__(message)
        self.key = key


class ShapeError(TodaKitError):
    """A field or sample array does not match the grid it claims to live on."""


class DomainError(TodaKitError):
    """An operation was asked to act on an empty or invalid node set."""


class ValidationError(TodaKitError):
    """Numerical state failed an internal sanity check (non-finite values)."""


class StrategyError(TodaKitError):
    """A boundary strategy cannot be applied to the given weight or grid."""


class ConvergenceError(TodaKitError):
    """Newton iteration failed; carries the residual history."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class SchemaError(TodaKitError):
    """A JSON document violated its schema; carries a JSON pointer."""

    def __init__(self, message, pointer=""):
        super().__init__(message)
        self.pointer = pointer


class InternalError(TodaKitError):
    """A state the code promises is unreachable was reached."""
