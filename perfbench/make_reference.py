"""Write ``perfbench/reference/<workload>.json`` from one seed-0 command each.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the root of a checkout, and only when a change to the program
is meant to change these outputs. The reference holds what
``workloads.extract`` reads: the exit code, the sweep report without
timings, the simulate trajectory CSV, or the check gates and CSVs.
"""

from __future__ import annotations

import json
import re
import shutil
import sys

from run import BUILD_DIR, spawn
from workloads import REFERENCE_DIR, WORKLOADS, command, extract


def dumps(reference: dict) -> str:
    """Indented JSON with each innermost list (a CSV row) on one line."""
    text = json.dumps(reference, indent=1)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + re.sub(r"\s*\n\s*", " ", m.group(1)) + "]",
                  text) + "\n"


def main(names) -> int:
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        cmd_dir = BUILD_DIR / f"reference-{name}"
        shutil.rmtree(cmd_dir, ignore_errors=True)
        cmd_dir.mkdir(parents=True)
        result_path = cmd_dir / "result.json"
        proc = spawn(result_path, "plain", command(workload, 0, cmd_dir))
        result = json.loads(result_path.read_text())
        if result["exit_code"] not in workload.exit_codes:
            print(proc.stdout, result["error"], file=sys.stderr)
            return 1
        got = extract(workload, result["exit_code"], cmd_dir, proc.stdout)
        REFERENCE_DIR.mkdir(exist_ok=True)
        (REFERENCE_DIR / f"{name}.json").write_text(dumps(got))
        shutil.rmtree(cmd_dir)
        print(f"make_reference: {name}: exit {result['exit_code']}, "
              f"{result['wall_s']:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
