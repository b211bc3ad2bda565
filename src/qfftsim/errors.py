"""Exception hierarchy shared by all qfftsim modules.

Everything derives from :class:`QfftError` so callers can catch the whole
family at once; the leaf classes also subclass the matching builtin
(``ValueError``, ``ArithmeticError``) so generic numpy-style error handling
keeps working.
"""


class QfftError(Exception):
    """Base class for all qfftsim errors."""


class ShapeError(QfftError, ValueError):
    """Matrix or vector dimensions are incompatible with the operation."""


class DomainError(QfftError, ValueError):
    """An argument value is outside the operation's domain."""


class CapacityError(QfftError, ValueError):
    """The request exceeds a configured size cap (permanent size, entries to build)."""


class ValidationError(QfftError, ValueError):
    """An input object fails a structural or numerical validity check."""


class UndefinedVisibilityError(DomainError):
    """Visibility is undefined because the reference coincidence rate is zero."""


class NumericalError(QfftError, ArithmeticError):
    """A numerical computation failed (e.g. no restart of a phase fit converged)."""


class ConvergenceError(NumericalError):
    """An iterative optimisation failed to converge on every attempt."""


class ParseError(QfftError, ValueError):
    """An input file is malformed; the message carries line/field diagnostics."""
