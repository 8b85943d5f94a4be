"""Exception types shared across the package."""

import numbers


class IadmmError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(IadmmError):
    """Dimension or shape mismatch between vectors, operators, or problems."""


class ConfigError(IadmmError):
    """Invalid parameter value or unusable configuration."""


class CertificationError(IadmmError):
    """A candidate reference pair failed its optimality gate.

    Carries the measured KKT error in ``measured``.
    """

    def __init__(self, message, measured=None):
        super().__init__(message)
        self.measured = measured


class NumericError(IadmmError):
    """Numerical failure (iteration cap, non-finite values, stalled estimate).

    ``context`` holds structured information about where the failure
    happened (for the solver: outer iteration, block index, inner
    iteration).  ``best`` carries the best estimate available when an
    iterative routine hit its cap.
    """

    def __init__(self, message, context=None, best=None):
        super().__init__(message)
        self.context = dict(context) if context else {}
        self.best = best


def check_count(name, value, least=1):
    """Raise :class:`ConfigError` unless ``value`` is an integer of at least ``least``.

    A bool is not an integer here.  The message names the argument and its value.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError("%s must be an integer of at least %d, got %r" % (name, least, value))


def check_real(name, value):
    """Raise :class:`ConfigError` unless ``value`` is a real scalar that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError("%s must be a real number, got %r" % (name, value))
