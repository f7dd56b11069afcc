"""Record a commit's benchmark against its parent as ``BENCH_<label>.json``.

    python3 tools/bench_record.py LABEL [--commit REV] [--parent REV]

Run from the root of a git checkout. REV defaults to HEAD and the parent
to ``REV^``; a change of several commits passes its base as ``--parent``.
The tracked files of both commits are copied with ``git archive`` into
the sibling directories ``parent/`` and ``change/`` of one temporary
directory, so that their paths have the same length (the end-to-end
times move with it). ``perfbench/run.py --workload all --trace 0`` then
runs ten pairs of times at its default run length, the parent first in
even pairs, and ``--trace 1`` runs once on each side, the parent first,
for the per-layer metrics. A count (unit ``count``: transform calls,
solves, steps) is the same in every run of one tree, so one traced run a
side gives the exact change in counted work, where the timed pairs
resolve a few percent at best.

The file, written to the working directory, holds both commits, the
machine facts of run.py's ``perfbench: machine`` line, each pair's two
result objects (the last line of run.py's standard output), each side's
traced result object, every count metric of each workload on both sides
with its difference (change minus parent; None where a side lacks it),
and a summary of every end-to-end metric of each
workload, plus ``compute_s = wall_s - setup_s``, which has no bound: the
change/parent ratio of each pair, the pairs the change won and lost in
the metric's ``better`` direction of BENCHMARK.json (a tie counts for
neither), each side's median and the distance between the parent's
quartiles. When run.py exits non-zero or prints no machine line, the
script stops with a message and writes no file. When a run reads
``correct: false``, the file is written and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

MACHINE = "perfbench: machine "
PAIRS = 10
SIDES = ("parent", "change")


def _values(result: dict) -> dict:
    """``{workload/metric: value}`` of a result object, with each workload's
    ``compute_s`` derived from its ``wall_s`` and ``setup_s``."""
    values = {key: metric["value"] for key, metric in result["metrics"].items()}
    for key in list(values):
        workload, _, name = key.rpartition("/")
        setup = f"{workload}/setup_s"
        if name == "wall_s" and setup in values:
            values[f"{workload}/compute_s"] = values[key] - values[setup]
    return values


def _counts(traced: dict) -> dict:
    """``{workload/metric: {parent, change, difference}}`` of every count
    metric of the two traced result objects."""
    sides = {side: {key: metric["value"] for key, metric in traced[side]["metrics"].items()
                    if metric["unit"] == "count"} for side in SIDES}
    counts = {}
    for key in sorted(set().union(*sides.values())):
        parent, change = (sides[side].get(key) for side in SIDES)
        counts[key] = {"parent": parent, "change": change,
                       "difference": None if None in (parent, change) else change - parent}
    return counts


def record_pairs(run, better: dict, pairs: int) -> dict:
    """Run ``pairs`` alternated pairs and one traced run a side, and
    summarize them.

    ``run(side, trace)`` returns the (machine facts, result object) of one
    ``run.py --workload all`` on ``side``, "parent" or "change"; pair ``i``
    runs the parent first when ``i`` is even, and the traced runs come
    last, the parent's first. ``better`` maps each end-to-end metric name
    to "lower" or "higher". Returns the machine facts of the first run, the
    pairs, the traced results by side, their count metrics
    (see :func:`_counts`), the summary of every metric that each untraced
    run reports and ``correct``: every run read ``correct: true`` with no
    failed flow run.
    """
    direction = {**better, "compute_s": "lower"}
    machine, records = None, []
    for i in range(pairs):
        pair = {"first": SIDES[i % 2]}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            facts, pair[side] = run(side, 0)
            machine = machine or facts
        records.append(pair)
    traced = {side: run(side, 1)[1] for side in SIDES}

    values = [{side: _values(pair[side]) for side in SIDES} for pair in records]
    keys = set.intersection(*(set(v[side]) for v in values for side in SIDES))
    summary = {}
    for key in sorted(keys):
        sense = direction.get(key.rpartition("/")[2])
        if sense is None:
            continue
        parent = [v["parent"][key] for v in values]
        change = [v["change"][key] for v in values]
        gains = [(p - c) if sense == "lower" else (c - p) for p, c in zip(parent, change)]
        q1, _, q3 = statistics.quantiles(parent, n=4)
        summary[key] = {"better": sense,
                        "ratios": [c / p for p, c in zip(parent, change)],
                        "wins": sum(g > 0 for g in gains),
                        "losses": sum(g < 0 for g in gains),
                        "parent_median": statistics.median(parent),
                        "change_median": statistics.median(change),
                        "parent_iqr": q3 - q1}
    correct = all(r["correct"] and r["failed"] == 0
                  for r in [*traced.values(), *(pair[side] for pair in records
                                                for side in SIDES)])
    return {"machine": machine, "pairs": records, "trace1": traced,
            "counts": _counts(traced), "summary": summary, "correct": correct}


def _run(root: Path, trace: int) -> tuple[dict, dict]:
    """(machine facts, result object) of one ``run.py --workload all``."""
    print(f"bench_record: {root.name}: run.py --trace {trace}", file=sys.stderr)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all",
                           "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_record: run.py exited {proc.returncode}")
    machine = next((line[len(MACHINE):] for line in lines if line.startswith(MACHINE)),
                   None)
    if machine is None:
        raise SystemExit("bench_record: run.py printed no 'perfbench: machine' line")
    return json.loads(machine), json.loads(lines[-1])


def _resolve(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          capture_output=True, text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the file BENCH_<label>.json")
    parser.add_argument("--commit", default="HEAD", help="revision to measure (default: HEAD)")
    parser.add_argument("--parent", help="revision to pair it with (default: its parent)")
    args = parser.parse_args(argv)
    commits = {"change": _resolve(args.commit),
               "parent": _resolve(args.parent or f"{args.commit}^")}
    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        for side, commit in commits.items():
            archive = subprocess.run(["git", "archive", commit], capture_output=True,
                                     check=True).stdout
            (Path(tmp) / side).mkdir()
            subprocess.run(["tar", "-x", "-C", str(Path(tmp) / side)], input=archive,
                           check=True)
        spec = json.loads((Path(tmp) / "change" / "BENCHMARK.json").read_text())
        better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
        body = record_pairs(lambda side, trace: _run(Path(tmp) / side, trace),
                            better, PAIRS)
    body["machine"].pop("commit", None)  # an archive copy is not a git checkout
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps({"label": args.label, "commit": commits["change"],
                                "parent": commits["parent"], **body}, indent=2) + "\n")
    print(f"bench_record: wrote {path}; correct: {str(body['correct']).lower()}",
          file=sys.stderr)
    return 0 if body["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
