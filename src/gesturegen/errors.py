"""Exception types shared across the toolkit.

Everything derives from GestureGenError so the CLI can catch one base class
and report the failing stage with a single-line diagnostic. The subclasses
are the cases a caller can act on differently.
"""


class GestureGenError(Exception):
    pass


class InvalidConfig(GestureGenError):
    """A caller passed a value the function cannot use."""


class MalformedFile(GestureGenError):
    """Bytes from outside the program cannot be read or are invalid."""


class IoFailure(GestureGenError):
    """An output file could not be written."""


class DegeneratePose(GestureGenError):
    """The geometry of a pose leaves a joint or angle undefined."""
