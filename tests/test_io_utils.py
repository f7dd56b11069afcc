"""CSV and atomic file output."""

import numpy as np

from debye_limit.io_utils import write_csv


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


def test_write_csv_keys_each_row_format_on_its_cell_types(tmp_path):
    # rows of one length whose cell types move between columns from row to
    # row: a format reused past a change of types would print a float with
    # %s (or fail on a str), so every row must match the per-cell rule
    cells = [3, np.int64(-4), 0.1, np.float64(2 / 3), float("nan"),
             np.float64("-inf"), "s"]
    rng = np.random.default_rng(0)
    rows = [tuple(cells[i] for i in rng.permutation(len(cells)))
            for _ in range(200)]
    rows += rows[:50]  # types seen before, in a later run of rows
    path = tmp_path / "kinds.csv"
    write_csv(path, "a,b,c,d,e,f,g", rows)
    want = ["a,b,c,d,e,f,g"] + [",".join(_cell(v) for v in row) for row in rows]
    assert path.read_bytes() == ("\n".join(want) + "\n").encode()
