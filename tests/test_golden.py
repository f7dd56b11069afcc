"""Golden outputs of ``sweep`` and ``check`` on a small grid.

Both commands run through ``cli.main`` at N = 64 with a short
``t_end``, and their files are compared with the committed copies under
``tests/golden/`` at relative tolerance ``RTOL`` (NaN equals NaN; text
cells and the printed gate lines must match exactly). The sweep runs
again with ``--jobs 2`` against the same copies, since its members
reduce themselves in the pool's workers. Timings are left
out: ``wall_time_total`` and the rows' ``wall_time`` in the JSON report
and the ``wall_time`` column of ``sweep_rows.csv``.

A change that moves round-off beyond ``RTOL`` regenerates the goldens in
a commit of its own and records the largest difference. To regenerate,
printing each file's largest absolute and relative change against the
copy it replaces and where each change is:

    PYTHONPATH=src python tests/test_golden.py --write

Any other argument, or none, prints the usage line, exits 2 and writes
nothing.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from itertools import zip_longest
from pathlib import Path

import pytest

import debye_limit
from debye_limit.cli import main

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-12

SWEEP_ARGS = ["sweep", "--grid", "64", "--t-end", "0.01"]
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
    _run([*SWEEP_ARGS, "--jobs", "1"], out)
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


@pytest.fixture(scope="module")
def parallel_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_jobs2")
    _run([*SWEEP_ARGS, "--jobs", "2"], out)
    return out


def _compare(directory: Path, name: str):
    got, want = _load(name, directory), _load(name, GOLDEN)
    if isinstance(want, str):
        assert got == want
    else:
        diffs = _diff_tree(got, want)
        assert not diffs, "\n".join(diffs[:20])


@pytest.mark.parametrize("name", SWEEP_FILES + ["sweep_stdout.txt"] + CHECK_FILES)
def test_matches_golden(outputs, name):
    _compare(outputs, name)


@pytest.mark.parametrize("name", SWEEP_FILES + ["sweep_stdout.txt"])
def test_parallel_sweep_matches_golden(parallel_outputs, name):
    _compare(parallel_outputs, name)


@pytest.mark.parametrize("args", [[], ["--bogus"], ["--help"]])
def test_script_writes_only_with_write_flag(tmp_path, args):
    # run as a script from a copy, so a rewrite cannot touch the goldens
    script = tmp_path / "test_golden.py"
    shutil.copy(__file__, script)
    shutil.copytree(GOLDEN, tmp_path / "golden")

    def state():
        return {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
                for p in sorted((tmp_path / "golden").iterdir())}

    before = state()
    src = Path(debye_limit.__file__).parents[1]
    proc = subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, timeout=300,
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: ") and proc.stderr.count("\n") == 1
    assert state() == before


def _leaves(got, want, path=""):
    """``(path, want, got)`` of every leaf; a structural difference is one
    leaf that wants None and got ``"differs"``."""
    if isinstance(want, (dict, list)):
        if isinstance(want, dict):
            keys = list(want)
            same = isinstance(got, dict) and set(got) == set(want)
        else:
            keys = range(len(want))
            same = isinstance(got, list) and len(got) == len(want)
        if not same:
            yield f"{path} (structure)", None, "differs"
            return
        for k in keys:
            yield from _leaves(got[k], want[k], f"{path}/{k}")
    else:
        yield path, want, got


def _change(want, got) -> tuple:
    """``(absolute, relative)`` change of one leaf.

    Numbers compare like ``_close``; any other difference, in text or
    in structure, counts as an infinite change.
    """
    if isinstance(got, float) and isinstance(want, float):
        if math.isnan(got) or math.isnan(want):
            same = math.isnan(got) and math.isnan(want)
            return (0.0, 0.0) if same else (math.inf, math.inf)
        diff, scale = abs(got - want), max(abs(got), abs(want))
        return diff, diff / scale if scale > 0.0 else 0.0
    return (0.0, 0.0) if got == want else (math.inf, math.inf)


def _change_report(name: str, new_dir: Path) -> str:
    """One line: the largest absolute and relative change of a regenerated
    file."""
    if not (GOLDEN / name).exists():
        return f"{name}: new file"
    got, want = _load(name, new_dir), _load(name, GOLDEN)
    if isinstance(want, str):
        if got == want:
            return f"{name}: unchanged"
        line = next(i for i, pair in enumerate(zip_longest(
            got.splitlines(), want.splitlines()), 1) if pair[0] != pair[1])
        return f"{name}: text differs from line {line}"
    if name.endswith(".csv"):  # name each cell by its row and column
        got, want = ([dict(zip(header, row)) for row in rows]
                     for header, *rows in (got, want))
    changes = [(_change(w, g), path, w, g) for path, w, g in _leaves(got, want)]
    parts = []
    for kind, index in (("absolute", 0), ("relative", 1)):
        change, path, old, new = max(changes, key=lambda c: c[0][index],
                                     default=((0.0, 0.0), "", None, None))
        if change[index] > 0.0:
            parts.append(f"largest {kind} change {change[index]:.2g} at {path} "
                         f"({old!r} -> {new!r})")
    return f"{name}: " + ("; ".join(parts) if parts else "unchanged")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        print(f"usage: python {sys.argv[0]} --write  (regenerates {GOLDEN})",
              file=sys.stderr)
        sys.exit(2)
    with tempfile.TemporaryDirectory() as tmp:
        _generate(Path(tmp))
        GOLDEN.mkdir(exist_ok=True)
        for name in SWEEP_FILES + ["sweep_stdout.txt"] + CHECK_FILES:
            print(_change_report(name, Path(tmp)))
            shutil.copy(os.path.join(tmp, name), GOLDEN / name)
    print(f"wrote {len(SWEEP_FILES) + 1 + len(CHECK_FILES)} files to {GOLDEN}",
          file=sys.stderr)
