"""Exception hierarchy and the integer check shared by all modules."""


class GainlineError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GainlineError):
    """A constructed object violates a structural invariant.

    Raised for bad multiplication tables, mismatched dimensions or groups,
    non-Hermitian matrices, invalid representations, and similar defects.
    """


class InputError(GainlineError):
    """User-supplied data is malformed or inconsistent.

    Raised for unparsable files, walks over non-adjacent vertices, unknown
    element labels and the like.
    """


def require_integer(value, what: str) -> int:
    """``value`` if it is a JSON integer: an ``int``, never a ``bool`` or a
    float.  Otherwise an InputError naming ``what``."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value
