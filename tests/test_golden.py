"""Golden outputs of ``sweep`` and ``check`` on a small grid.

Both commands run through ``cli.main`` at N = 64 with a short
``t_end``, and their files are compared with the committed copies under
``tests/golden/`` at relative tolerance ``RTOL`` (NaN equals NaN; text
cells and the printed gate lines must match exactly). Timings are left
out: ``wall_time_total`` and the rows' ``wall_time`` in the JSON report
and the ``wall_time`` column of ``sweep_rows.csv``.

A change that moves round-off beyond ``RTOL`` regenerates the goldens in
a commit of its own and records the largest difference. To regenerate:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from debye_limit.cli import main

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-12

SWEEP_ARGS = ["sweep", "--grid", "64", "--t-end", "0.01", "--jobs", "1"]
# 21 records at the check's dt and record interval, and a 3-pair battery
CHECK_INI = ("[check]\nn_points = 64\nt_end = 0.01\n"
             "kp_pairs = 3\nkp_grid = 64\n")
SWEEP_FILES = ["sweep_report.json", "sweep_rows.csv"] + [
    f"remainder_{eps:g}.csv" for eps in (1e-1, 1e-2, 1e-3, 1e-4)]
CHECK_FILES = ["check_ledger.csv", "check_residuals.csv",
               "check_kato_ponce.csv", "check_stdout.txt"]


def _run(argv, out: Path) -> str:
    """Run the CLI into ``out``; write its exit code and stdout there."""
    text = StringIO()
    with redirect_stdout(text):
        code = main([*argv, "--out", str(out)])
    lines = [ln for ln in text.getvalue().splitlines()
             if not ln.startswith(("check: wrote", "sweep: wrote"))]
    (out / f"{argv[0]}_stdout.txt").write_text(
        f"exit {code}\n" + "\n".join(lines) + "\n")
    return code


def _generate(out: Path):
    out.mkdir(parents=True, exist_ok=True)
    _run(SWEEP_ARGS, out)
    conf = out / "check.ini"
    conf.write_text(CHECK_INI)
    _run(["check", "--config", str(conf)], out)
    conf.unlink()


def _without_timings(report: dict) -> dict:
    report.pop("wall_time_total")
    for row in report["rows"]:
        row.pop("wall_time")
    return report


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        a, b = float(a), float(b)
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b or abs(a - b) <= RTOL * max(abs(a), abs(b))
    return a == b


def _diff_tree(got, want, path="") -> list:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in _diff_tree(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in _diff_tree(g, w, f"{path}/{i}")]
    return [] if _close(got, want) else [f"{path}: {got!r} != {want!r}"]


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv(path: Path, drop=()) -> list:
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    keep = [i for i, name in enumerate(header) if name not in drop]
    return [[header[i] for i in keep]] + [
        [_cell(row.split(",")[i]) for i in keep] for row in lines[1:]]


def _load(name: str, directory: Path):
    path = directory / name
    if name == "sweep_report.json":
        return _without_timings(json.loads(path.read_text()))
    if name == "sweep_rows.csv":
        return _csv(path, drop=("wall_time",))
    if name.endswith(".csv"):
        return _csv(path)
    return path.read_text()  # stdout: exit code and gate lines, exact


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    _generate(out)
    return out


@pytest.mark.parametrize("name", SWEEP_FILES + ["sweep_stdout.txt"] + CHECK_FILES)
def test_matches_golden(outputs, name):
    got, want = _load(name, outputs), _load(name, GOLDEN)
    if isinstance(want, str):
        assert got == want
    else:
        diffs = _diff_tree(got, want)
        assert not diffs, "\n".join(diffs[:20])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _generate(Path(tmp))
        GOLDEN.mkdir(exist_ok=True)
        for name in SWEEP_FILES + ["sweep_stdout.txt"] + CHECK_FILES:
            shutil.copy(os.path.join(tmp, name), GOLDEN / name)
    print(f"wrote {len(SWEEP_FILES) + 1 + len(CHECK_FILES)} files to {GOLDEN}",
          file=sys.stderr)
