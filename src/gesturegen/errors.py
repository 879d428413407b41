"""Exception types shared across the toolkit.

Everything derives from GestureGenError so the CLI can catch one base class
and report the failing stage with a single-line diagnostic. The subclasses
are the cases a caller can act on differently.
"""

import contextlib


class GestureGenError(Exception):
    pass


class InvalidConfig(GestureGenError):
    """A caller passed a value the function cannot use."""


class MalformedFile(GestureGenError):
    """Bytes from outside the program cannot be read or are invalid."""


class IoFailure(GestureGenError):
    """An output file could not be written."""


@contextlib.contextmanager
def open_for_write(path, what: str):
    """Open a text file for writing; an OSError from opening or writing it
    becomes IoFailure("cannot write <what>: ...")."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise IoFailure(f"cannot write {what}: {exc}") from exc


class DegeneratePose(GestureGenError):
    """The geometry of a pose leaves a joint or angle undefined."""
