"""Error hierarchy shared by all modules.

Each class maps to one CLI exit code so failures stay machine-readable.
"""


class CurvelabError(Exception):
    """Base class; generic failure, exit code 1."""

    exit_code = 1


class InputError(CurvelabError):
    """Bad user input: syntax, preconditions, missing table entries. Exit 2."""

    exit_code = 2


class CeilingError(CurvelabError):
    """A limit was hit (degree or fit-order ceiling, series cap, memo keys,
    jet truncation order), or a germ is not isolated or undecided. Exit 3."""

    exit_code = 3


class AdmissibilityError(CurvelabError):
    """Request outside the admissible range. Exit 3."""

    exit_code = 3


class InconsistencyError(CurvelabError):
    """Two independent computations disagree. Always a loud failure. Exit 4."""

    exit_code = 4


def label_tuple(parts, name="parts") -> tuple:
    """The label multiset `parts`, an iterable of strings but not a string
    (sorted() would split one), as a tuple; else InputError naming `name`."""
    if not isinstance(parts, str) and hasattr(parts, "__iter__"):
        labels = tuple(parts)
        if all(isinstance(label, str) for label in labels):
            return labels
    raise InputError(f"{name} must be a sequence of singularity labels, got {parts!r}")


def is_int(value) -> bool:
    """True for an int that is not a bool: `isinstance(True, int)` holds,
    but a flag is never a degree, a count or an order."""
    return isinstance(value, int) and not isinstance(value, bool)
