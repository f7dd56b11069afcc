"""Shared file-output helpers.

All writers in this package go through :func:`atomic_write_text` so a
crashed or interrupted process never leaves a half-written file behind:
the text lands in a temporary file in the destination directory, which
must exist, and is moved into place with ``os.replace``.
"""

from __future__ import annotations

import os
import tempfile


class OutputError(OSError):
    """An ``OSError`` of the output directory or of a file written there."""


def make_output_dir(path) -> None:
    """Create ``path`` and its parents; an ``OSError`` is raised as an :class:`OutputError`."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise OutputError(str(exc)) from exc


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename); an
    ``OSError`` on the way is raised as an :class:`OutputError`."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp_path = ""  # removed below if the write stops before the rename
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except OSError as exc:
        raise OutputError(str(exc)) from exc
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)


def write_csv(path, header: str, rows) -> None:
    """Atomically write a CSV file from a header string and row tuples.

    Floats (``np.float64`` too) get 17 significant digits and other cells
    ``str``, through one ``%`` call per row. The row format is built once
    per tuple of cell types and reused for every row of those types.
    """
    lines = [header]
    formats = {}
    for row in map(tuple, rows):
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = ",".join(
                ["%.17g" if issubclass(kind, float) else "%s" for kind in kinds])
        lines.append(fmt % row)
    atomic_write_text(path, "\n".join(lines) + "\n")
