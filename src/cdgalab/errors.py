"""Exception types shared across the library."""


class CdgaError(Exception):
    """Base class for all library errors."""


class InputError(CdgaError):
    """Malformed or inconsistent input data (dimension mismatches, bad files)."""


class PreconditionError(CdgaError):
    """A documented precondition of an operation does not hold."""


class CutoffTooSmallError(CdgaError):
    """A computation needs data above the truncation cutoff.

    Raised instead of silently returning a wrong answer whenever a dropped
    product or differential would affect the result.
    """


class InternalError(CdgaError):
    """The library's own invariant failed: a fault in the program, not the input."""
