"""Exception hierarchy.

Precondition failures (bad user input, unsatisfiable requests) derive from
PreconditionError and map to CLI exit code 2.  Everything else signals a bug
in this package and maps to exit code 1.
"""


class ShiftLabError(Exception):
    """Base class for all package errors."""


class PreconditionError(ShiftLabError):
    """Caller violated a documented precondition."""


class InvalidAlphabet(PreconditionError):
    pass


class AlphabetMismatch(PreconditionError):
    pass


class NotInLanguage(PreconditionError):
    pass


class EmptyShift(PreconditionError):
    pass


class NotIrreducible(PreconditionError):
    pass


class NotMixing(PreconditionError):
    pass


class CompositionMismatch(PreconditionError):
    pass


class Mlc1Required(PreconditionError):
    pass


class CannotExtract(PreconditionError):
    pass


class NoDistalTuple(PreconditionError):
    pass


class NotChainProximal(PreconditionError):
    pass


class InvalidThresholds(PreconditionError):
    pass


class InvalidScales(PreconditionError):
    pass


class InvalidSchedule(PreconditionError):
    pass


class NoEntropicComponent(PreconditionError):
    pass


class EmptyImageChain(PreconditionError):
    pass


class TooLarge(PreconditionError):
    """The requested exact computation exceeds the documented size guard."""


class SchemaError(PreconditionError):
    """Malformed JSON input."""


class InternalInvariantViolation(ShiftLabError):
    """A machine-checked postcondition failed; this is a bug, not bad input."""
