"""CSV and atomic file output."""

import os

import numpy as np
import pytest

from debye_limit.io_utils import BLOCK_ROWS, OutputError, write_csv


def _cell(x):
    # the per-cell rule: 17 significant digits for floats, str otherwise
    return "%.17g" % x if isinstance(x, float) else str(x)


def test_write_csv_formats_mixed_rows_like_the_per_cell_rule(tmp_path):
    rows = [
        (0.1, np.float64(1 / 3), 7, np.int64(-12), "OK", True),
        (float("nan"), np.float64("inf"), -0.0, 5e-324, np.float32(0.1), None),
        (np.float64(2.5), 0.1, np.int64(3), 4, "", -1e300),  # same kinds, reordered
        (0.1, np.float64(1 / 3), 7, np.int64(-12), "OK", True),
        (),
        [1.0, "a", 2],  # a list row
        (np.float64(-7e-17),),
    ]
    path = tmp_path / "mixed.csv"
    write_csv(path, "h", iter(rows))
    want = ["h"] + [",".join(_cell(v) for v in row) for row in rows]
    assert path.read_text() == "\n".join(want) + "\n"
    write_csv(path, "h", iter([]))
    assert path.read_text() == "h\n"


def test_write_csv_keys_each_row_format_on_its_cell_types(tmp_path):
    # rows of one length whose cell types move between columns from row to
    # row: a format reused past a change of types would print a float with
    # %s (or fail on a str), so every row must match the per-cell rule; at
    # 2 * BLOCK_ROWS + 1 rows, read lazily, they span three written blocks
    cells = [3, np.int64(-4), 0.1, np.float64(2 / 3), float("nan"),
             np.float64("-inf"), "s"]
    rng = np.random.default_rng(0)
    for count in (250, 2 * BLOCK_ROWS + 1):
        rows = [tuple(cells[i] for i in rng.permutation(len(cells)))
                for _ in range(count - 50)]
        rows += rows[:50]  # types seen before, in a later run of rows
        path = tmp_path / "kinds.csv"
        write_csv(path, "a,b,c,d,e,f,g", iter(rows))
        want = ["a,b,c,d,e,f,g"] + [",".join(_cell(v) for v in row) for row in rows]
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()


def test_write_csv_memory_is_set_by_the_block_not_the_rows(tmp_path, peak_alloc):
    # 50,000 lazy rows of seven floats make a 5.2 MB file. Written in blocks,
    # the traced peak measured 0.10 MB at 50,000 and 200,000 rows (0.30 MB
    # on a process's first write); a whole-file write peaked at 18.4 MB.
    rows = ((i * 0.1, 1 / (i + 1), -i * 1e-3, 2.5, i / 7, 1e300, -0.0)
            for i in range(50_000))
    path = tmp_path / "big.csv"
    assert peak_alloc(write_csv, path, "a,b,c,d,e,f,g", rows) < 0.5e6
    assert path.read_text().count("\n") == 50_001


def test_write_csv_row_source_failure_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    seen = []

    def rows():
        for i in range(2 * BLOCK_ROWS + 10):
            yield float(i), i
        # two blocks have gone to the temp file when the source fails
        seen.extend(tmp_path.glob(".tmp-*~"))
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(path, "a,b", rows())
    assert len(seen) == 1
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.csv"]


@pytest.mark.parametrize("target", ["missing/out.csv", "taken"])
def test_write_csv_raises_an_oserror_of_the_file_as_output_error(tmp_path, target):
    # no directory for the temp file, or a rename onto a directory after
    # every block is written: each is an OSError, and no temp file stays
    (tmp_path / "taken").mkdir()
    rows = ((float(i),) for i in range(2 * BLOCK_ROWS + 1))
    with pytest.raises(OutputError):
        write_csv(tmp_path / target, "a", rows)
    assert os.listdir(tmp_path) == ["taken"]
    assert os.listdir(tmp_path / "taken") == []
