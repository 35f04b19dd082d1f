"""Exception hierarchy shared across the package."""


class QmdpError(Exception):
    """Base class for all package errors."""


class ConfigError(QmdpError, ValueError):
    """Malformed experiment configuration or input file."""


class PreconditionError(QmdpError, ValueError):
    """An operation was called outside its documented parameter range."""


class InternalError(QmdpError, RuntimeError):
    """A condition that should be impossible for valid inputs (e.g. a
    singular policy-evaluation system at discount < 1)."""
