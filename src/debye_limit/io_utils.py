"""Shared file-output helpers.

Every writer goes through one temp file (:func:`_atomic_file`) in the
destination directory, which must exist: it gets the mode a plain
``open()`` would give and replaces the target with ``os.replace`` only
when complete, so a crashed or interrupted process never leaves a
half-written file behind. :func:`write_csv` writes ``BLOCK_ROWS`` rows at a time.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import tempfile

BLOCK_ROWS = 256  # CSV rows converted, formatted and written at a time


class OutputError(OSError):
    """An ``OSError`` of the output directory or of a file written there."""


def make_output_dir(path) -> None:
    """Create ``path`` and its parents; an ``OSError`` is raised as an :class:`OutputError`."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise OutputError(str(exc)) from exc


@contextlib.contextmanager
def _atomic_file(path):
    """A text file that replaces ``path`` if the block ends without an error;
    an ``OSError`` on the way is raised as an :class:`OutputError`."""
    tmp_path = ""  # removed below if the write stops before the rename
    try:
        fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                        prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.umask(umask := os.umask(0o077))  # the umask is read by setting it
        os.chmod(tmp_path, 0o666 & ~umask)  # mkstemp's own mode is 0o600
        os.replace(tmp_path, path)
    except OSError as exc:
        raise OutputError(str(exc)) from exc
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` through :func:`_atomic_file`."""
    with _atomic_file(path) as handle:
        handle.write(text)


def column_rows(*columns):
    """Row tuples of equal-length 1-D arrays, ``BLOCK_ROWS`` rows converted at a time."""
    for start in range(0, len(columns[0]), BLOCK_ROWS):
        yield from zip(*(col[start:start + BLOCK_ROWS].tolist() for col in columns))


def write_csv(path, header: str, rows) -> None:
    """Atomically write a CSV file from a header string and row tuples.

    Floats (``np.float64`` too) get 17 significant digits and other cells
    ``str``, through one ``%`` call per row. The row format is built once
    per tuple of cell types and reused for every row of those types.
    """
    formats, rows = {}, map(tuple, rows)
    with _atomic_file(path) as handle:
        handle.write(header + "\n")
        while block := list(itertools.islice(rows, BLOCK_ROWS)):
            lines = []
            for row in block:
                kinds = tuple(map(type, row))
                fmt = formats.get(kinds)
                if fmt is None:
                    fmt = formats[kinds] = ",".join(
                        ["%.17g" if issubclass(kind, float) else "%s" for kind in kinds])
                lines.append(fmt % row)
            handle.write("\n".join(lines) + "\n")
