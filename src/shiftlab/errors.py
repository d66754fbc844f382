"""Exception hierarchy.

Domain errors all derive from ShiftlabError so the CLI can map them to
exit code 1; anything else escaping is a bug.
"""


class ShiftlabError(Exception):
    """Base class for all domain errors raised by this package."""


class AlphabetMismatchError(ShiftlabError):
    """A word or operand uses symbols outside the expected alphabet."""


class HorizonExceededError(ShiftlabError):
    """An operation asked for word lengths beyond the oracle's reliable horizon."""


class EmptyShiftError(ShiftlabError):
    """The shift has no points, so the requested quantity is undefined."""


class UndefinedEntropyError(EmptyShiftError):
    """Entropy requested for an empty shift."""


class EnumerationCapError(ShiftlabError):
    """An enumeration, or a number to print, would exceed a cap or limit."""


class ConvergenceError(ShiftlabError):
    """An iterative numerical procedure failed to reach its tolerance."""


class ReducibleGraphError(ShiftlabError):
    """An operation requiring an irreducible graph got a reducible one."""


class EmptySupportError(ShiftlabError):
    """A measure was requested over an empty set of periodic points."""


class NotAnAutomorphismError(ShiftlabError):
    """The supplied code does not map the shift onto itself, or the pair of
    block codes does not invert each other on the shift."""


class WrongStatusError(ShiftlabError):
    """A digit-stream operation was applied to a stream with the wrong status."""


class AmbiguousDigitError(ShiftlabError):
    """A beta digit could not be certified.

    No engine raises it any more: every digit engine decides its floors
    exactly.  The class stays exported as part of the public API.
    """

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or "digit %d could not be certified within the precision ceiling" % index)


class InsufficientDigitsError(ShiftlabError):
    """A truncated digit stream is too short for the requested horizon."""


class CannotCloseError(ShiftlabError):
    """A graph presentation needs an eventually periodic digit stream."""


class InfeasibleSetError(ShiftlabError):
    """A requested target set cannot be realized (e.g. contains lengths < 3)."""


class NonGrowingSubstitutionError(ShiftlabError):
    """The substitution does not grow from its seed."""


class ReturnTimeCapError(ShiftlabError):
    """A first-return time exceeded the configured cap, or is not constant on cylinders."""


class UnsupportedSpecError(ShiftlabError):
    """The operation does not support this kind of shift specification."""
