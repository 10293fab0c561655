"""The package's two exception classes, one per exit code of the CLI.

ConfigurationError (exit 2) means the caller's config or input lies
outside its documented domain.  CuspDecayError (exit 1) is every other
failure: a property the numbers lack, a kernel that did not converge,
or a broken identity that means a bug.  They are siblings, so neither
is ever caught as the other.
"""


class ConfigurationError(ValueError):
    """A config or input outside its documented domain."""


class CuspDecayError(Exception):
    """A failure of the numbers, not of the input."""
