"""Exception types shared across the toolkit, and its file helpers.

Everything derives from GestureGenError so the CLI can catch one base class
and report the failing stage with a single-line diagnostic. The subclasses
are the cases a caller can act on differently.

open_for_write is the one file writer: every output but render's SVG frames
goes through it, so every regular file is replaced whole or not at all;
pipes, FIFOs and open descriptors such as /dev/stdout are written in place.

Every float table passed between stages (embedding table, track, attention,
joint trajectory, loss history) is one text codec, written by write_rows and
read by read_rows: an optional header line, then per row an optional label
and its values as repr(float), so values read back bit-exact. Both work a
block of about _BLOCK values at a time: the writer formats a block of rows
and writes it in one call; the reader converts a block's fields in one
np.array call, which accepts the strings float() accepts and gives the same
values, and still reports the first bad line. The reader skips a leading
UTF-8 byte-order mark.
"""

import array
import contextlib
import os
import stat
import sys

import numpy as np


class GestureGenError(Exception):
    pass


class InvalidConfig(GestureGenError):
    """An input the program cannot use: a flag or config value, an embedding
    table whose width is not the model's, or a value a stage refuses, such
    as empty text, bad joint limits, non-finite output or a diverging run."""


class MalformedFile(GestureGenError):
    """Bytes from outside the program cannot be read or are invalid."""


class IoFailure(GestureGenError):
    """An output file could not be written."""


def _descriptor(path):
    """``(directory, name)`` of the /proc/<pid>/fd entry that ``path`` leads
    to through its symlinks, as /dev/stdout and /dev/fd/N do, else None."""
    for _ in range(40):
        parent = os.path.realpath(os.path.dirname(os.path.abspath(path)))
        if parent.startswith("/proc/") and parent.endswith("/fd"):
            return parent, os.path.basename(path)
        if not os.path.islink(path):
            return None
        path = os.path.join(os.path.dirname(os.path.abspath(path)), os.readlink(path))
    return None


@contextlib.contextmanager
def open_for_write(path, what: str, mode: str = "w"):
    """Open ``path`` for writing, as UTF-8 text or, with mode "wb", bytes.

    A regular or new file is written as ``<realpath>.<pid>.tmp`` beside the
    resolved target, given the target's mode and renamed over it on success;
    on any exception the temporary file is removed, so the target keeps its
    old bytes. A target that is not a regular file (a FIFO, a directory) or
    names an open descriptor (/dev/stdout, /dev/fd/N) is opened in place,
    one of this process's through a duplicate once stdout is flushed, so the
    bytes land at its offset. An OSError becomes IoFailure("cannot write
    <what>: ...")."""
    st = None
    with contextlib.suppress(OSError):
        st = os.stat(path)
    entry = _descriptor(path)
    in_place = (st is not None and not stat.S_ISREG(st.st_mode)) or entry is not None
    own = entry is not None and entry[0] == f"/proc/{os.getpid()}/fd" and entry[1].isdigit()
    target = os.path.realpath(path)
    tmp = path if in_place else f"{target}.{os.getpid()}.tmp"
    if own:
        sys.stdout.flush()
    try:
        with open(os.dup(int(entry[1])) if own else tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        if not in_place:
            if st is not None:
                os.chmod(tmp, stat.S_IMODE(st.st_mode))
            os.replace(tmp, target)
    except BaseException as exc:
        if not in_place:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write {what}: {exc}") from exc
        raise


class DegeneratePose(GestureGenError):
    """The geometry of a pose leaves a joint or angle undefined."""


_BLOCK = 512  # values per conversion and per write call of the row codec


def write_rows(path, what: str, rows, *, header=None, labels=None, sep=","):
    """Write the (N, D) array ``rows``: ``header`` if given, then per row its
    label if ``labels`` (one per row) is given and its values, joined by
    ``sep``. A row with a non-finite value is refused before the file is
    opened. Rows are formatted and written a block of about _BLOCK values
    at a time."""
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise InvalidConfig(f"{what} row {int(np.argmin(finite))} has non-finite values")
    if labels is not None:
        labels = list(labels)
    step = max(1, _BLOCK // max(1, rows.shape[1]))
    with open_for_write(path, what) as fh:
        if header is not None:
            fh.write(header + "\n")
        for start in range(0, len(rows), step):
            lines = [sep.join(map(repr, row)) for row in rows[start : start + step].tolist()]
            if labels is not None:
                lines = [label + sep + line for label, line in zip(labels[start : start + step], lines)]
            fh.write("\n".join(lines) + "\n")


def _first_non_float(fields):
    """Index of the first field float() refuses, or None."""
    for i, field in enumerate(fields):
        try:
            float(field)
        except ValueError:
            return i
    return None


def read_rows(path, what: str, *, header=None, labels=False, sep=","):
    """``(labels, rows)`` of a write_rows file: the first field of each line
    (if ``labels``) and an (N, D) float array. ``sep`` None splits on any
    whitespace; blank lines and a leading byte-order mark are skipped. Lines
    are split and width-checked one by one and their values converted a block
    of about _BLOCK at a time. MalformedFile names the first line of a missing
    header, non-numeric value, line without values or width other than the
    first row's, else the first line with a non-finite value, or says the file
    is empty or unreadable."""
    names, flat, line_nos, width = [], array.array("d"), [], None
    pending = []  # value fields of the last len(pending) // width rows of line_nos

    def bad(line_no, reason):
        return MalformedFile(f"{path}: line {line_no}: {reason}")

    def parse():
        try:
            flat.frombytes(np.array(pending, dtype=np.float64).tobytes())
        except ValueError:
            row = len(line_nos) - len(pending) // width + _first_non_float(pending) // width
            raise bad(line_nos[row], "non-numeric value") from None
        pending.clear()

    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            if header is not None and not fh.readline().startswith(header):
                raise MalformedFile(f"{path}: line 1 does not start with {header!r}")
            for line_no, line in enumerate(fh, start=1 if header is None else 2):
                line = line.strip()
                if not line:
                    continue
                fields = line.split(sep)
                if labels:
                    names.append(fields.pop(0))
                if not fields:
                    parse()
                    raise bad(line_no, "no values")
                width = width or len(fields)
                if len(fields) != width:
                    parse()
                    if _first_non_float(fields) is not None:
                        raise bad(line_no, "non-numeric value")
                    raise bad(line_no, f"expected {width} values, got {len(fields)}")
                pending += fields
                line_nos.append(line_no)
                if len(pending) >= _BLOCK:
                    parse()
    except (OSError, UnicodeDecodeError) as exc:
        parse()
        raise MalformedFile(f"cannot read {what}: {exc}") from exc
    if not line_nos:
        raise MalformedFile(f"{path}: no rows")
    parse()
    table = np.frombuffer(flat).reshape(-1, width)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise bad(line_nos[int(np.argmin(finite))], "non-finite value")
    return names, table
