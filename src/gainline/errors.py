"""Exception hierarchy, the two checks every JSON parser reads through, and
``_plain``, which turns an object's wire form into its plain JSON values."""


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


_KIND_NAMES = {int: "an integer", str: "a string", bool: "true or false",
               list: "a list"}


def require_fields(data, what: str, *keys: str) -> tuple:
    """The values of ``keys`` in order, if ``data`` is a JSON object that
    has them all.  Otherwise an InputError naming ``what``."""
    if type(data) is not dict:
        raise InputError(f"{what} must be a JSON object")
    missing = [key for key in keys if key not in data]
    if missing:
        raise InputError(f"{what} needs '{missing[0]}' field")
    return tuple(data[key] for key in keys)


def require_type(value, kind: type, what: str):
    """``value`` if its JSON type is exactly ``kind``: ``int`` (never a
    ``bool`` or a float), ``str``, ``bool`` or ``list``.  Otherwise an
    InputError naming ``what``."""
    if type(value) is not kind:
        raise InputError(f"{what} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _plain(wire: dict) -> dict:
    """The wire form ``wire`` with every nested dict copied and every value
    that has a ``tolist`` (an integer array, a phase's sparse rows) replaced
    by its ``tolist()``: what ``json.loads`` reads back from the CLI."""
    return {key: _plain(value) if type(value) is dict
            else value.tolist() if hasattr(value, "tolist") else value
            for key, value in wire.items()}
