"""Exception types shared across the package.

Every error raised on a user-facing path names the offending parameter or
carries the diagnostic payload (residual history, JSON pointer) the caller
needs to act on the failure.  Every rejected input is a ConfigurationError,
whether a document check, a constructor or a solve, thermo field or plot
finds it; the CLI exits 2 on it, 1 on the other errors and 3 on a
ConvergenceError.
"""


class TodaKitError(Exception):
    """Base class for all package errors."""


class ConfigurationError(TodaKitError):
    """An input is outside its documented domain.  `pointer` is the JSON
    pointer of the offending value ("/n" from a constructor, "/grid/n"
    once the document key is prefixed), "" when no single value is to
    blame, as for most input errors found mid-run."""

    def __init__(self, message, pointer=""):
        super().__init__(message)
        self.pointer = pointer


class ValidationError(TodaKitError):
    """Numerical state failed a sanity check (non-finite values), or a data
    file is malformed (a bad CSV row, a repeated column, an unknown
    layout).  The CLI exits 1."""


class ConvergenceError(TodaKitError):
    """Newton iteration failed; carries the residual history."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class InternalError(TodaKitError):
    """A state the code promises is unreachable was reached."""
