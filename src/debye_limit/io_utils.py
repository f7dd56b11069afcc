"""Shared file-output helpers.

All writers in this package go through :func:`atomic_write_text` so a
crashed or interrupted process never leaves a half-written file behind:
the text lands in a temporary file in the destination directory and is
moved into place with ``os.replace``.
"""

from __future__ import annotations

import os
import tempfile


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename)."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def write_csv(path, header: str, rows) -> None:
    """Atomically write a CSV file from a header string and row tuples.

    Floats (``np.float64`` too) get 17 significant digits and other cells
    ``str``, through one ``%`` call per row.
    """
    lines = [header]
    for row in map(tuple, rows):
        lines.append(",".join(["%.17g" if isinstance(v, float) else "%s"
                               for v in row]) % row)
    atomic_write_text(path, "\n".join(lines) + "\n")
