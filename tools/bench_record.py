"""Record the benchmark of one commit as ``BENCH_<label>.json``.

    python3 tools/bench_record.py LABEL [--commit REV]

Run from the root of a git checkout. The commit's tracked files are
copied with ``git archive`` into a temporary directory, where
``perfbench/run.py --workload all`` runs twice at its default run length:
at ``--trace 0`` for the end-to-end metrics and at ``--trace 1`` for the
per-layer ones. The file, written to the working directory, holds the
commit, the machine facts of run.py's ``perfbench: machine`` line (its
``commit`` filled in, since an archive copy is not a git checkout) and
the result object of each run, the last line of its standard output.
When run.py exits non-zero or prints no machine line, the script stops
with a message and writes no file. When a run reads ``correct: false``,
the file is written and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

MACHINE = "perfbench: machine "


def _run(root: str, trace: int) -> tuple[dict, dict]:
    """(machine facts, result object) of one ``run.py --workload all``."""
    print(f"bench_record: run.py --trace {trace}", file=sys.stderr)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the file BENCH_<label>.json")
    parser.add_argument("--commit", default="HEAD", help="revision to measure (default: HEAD)")
    args = parser.parse_args(argv)
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{args.commit}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="bench_record-") as root:
        archive = subprocess.run(["git", "archive", commit], capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", root], input=archive, check=True)
        machine, plain = _run(root, 0)
        _, traced = _run(root, 1)
    machine["commit"] = commit
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps({"label": args.label, "commit": commit, "machine": machine,
                                "trace0": plain, "trace1": traced}, indent=2) + "\n")
    ok = all(r["correct"] and r["failed"] == 0 for r in (plain, traced))
    print(f"bench_record: wrote {path}; correct: {str(ok).lower()}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
