"""Benchmark of the ``debye-limit`` command line.

    python3 perfbench/run.py --workload sweep-default --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. Each workload is a closed loop with
one client: it runs its ``debye-limit`` command in a fresh child
process (BLAS threads pinned), waits for it, checks its outputs, and
starts the next until ``--seconds`` have passed. With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
alternates untraced and traced commands and reports the per-layer
metrics, including the tracing overhead. ``--workload all`` runs every
workload in turn. Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Outputs are checked against ``perfbench/reference`` at seed 0 and by
invariants at every seed; ``attempted`` and ``failed`` count flow runs
(sweep members plus limit runs), so their ratio is the fail ratio.
End-to-end times are scaled to a nominal machine speed by a calibration
kernel that each child times after its command (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload, command, failed_flows, problems

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BLAS_THREADS = 1  # 2 OpenBLAS threads made a sweep slower and noisier on 2 cores
COMMAND_TIMEOUT_S = 120
# Time of child.calibrate() on the 2-core sandbox in its fast phases;
# end-to-end times are reported at this machine speed.
CALIBRATION_NOMINAL_S = 0.025
PINNED_ENV = {name: str(BLAS_THREADS) for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


@dataclass
class Record:
    """One command of the loop."""

    mode: str
    attempted: int
    failed: int
    problems: list
    timing: dict = field(default_factory=dict)  # wall_s, setup_s, peak_rss_mb, steps
    layers: dict = field(default_factory=dict)  # name -> (value, unit)
    missing: list = field(default_factory=list)


def spawn(result_path: Path, mode: str, argv: list) -> subprocess.CompletedProcess:
    """Run ``child.py`` in a fresh process with BLAS threads pinned."""
    env = dict(os.environ, **PINNED_ENV)
    spawn_ns = time.monotonic_ns()
    return subprocess.run(
        [sys.executable, str(CHILD), str(result_path), str(spawn_ns), mode,
         "--", *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=COMMAND_TIMEOUT_S)


def run_command(workload: Workload, seed: int, cmd_dir: Path, mode: str) -> Record:
    cmd_dir.mkdir(parents=True)
    argv = command(workload, seed, cmd_dir)
    result_path = cmd_dir / "result.json"
    try:
        proc = spawn(result_path, mode, argv)
    except subprocess.TimeoutExpired:
        return Record(mode, workload.flows, workload.flows,
                      [f"timed out after {COMMAND_TIMEOUT_S} s"])
    if not result_path.exists():
        return Record(mode, workload.flows, workload.flows,
                      [f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"])
    result = json.loads(result_path.read_text())
    if result["exit_code"] is None:
        found = [f"raised: {result['error'].strip().splitlines()[-1]}"]
        failed = workload.flows
    else:
        found = problems(workload, seed, result["exit_code"], cmd_dir,
                         proc.stdout, result["flows"])
        failed = failed_flows(workload, found)
    timing = {key: result[key] for key in
              ("wall_s", "setup_s", "peak_rss_mb", "calibration_s")}
    timing["steps"] = sum(run["steps"] for run in result["flows"])
    timing["threads"] = result["threads"]
    return Record(mode, workload.flows, failed, found, timing,
                  {k: tuple(v) for k, v in result.get("layers", {}).items()},
                  result.get("missing", []))


def run_loop(workload: Workload, seed: int, seconds: float, trace: bool) -> list:
    """Closed loop, one client: the next command starts when one ends."""
    base = BUILD_DIR / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    records = []
    deadline = time.monotonic() + seconds
    try:
        while len(records) < (2 if trace else 1) or time.monotonic() < deadline:
            i = len(records)
            mode = "plain"
            if trace and i % 2 == 1:
                mode = "trace+micro" if i == 1 else "trace"
            cmd_dir = base / f"cmd{i}"
            records.append(run_command(workload, seed, cmd_dir, mode))
            shutil.rmtree(cmd_dir, ignore_errors=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return records


def _timings(records: list, traced: bool) -> list:
    return [r.timing for r in records if (r.mode != "plain") == traced and r.timing]


def end_to_end(records: list) -> dict:
    """Medians over the untraced commands; name -> (value, unit, values).

    Times are scaled to the nominal machine speed: each command's times
    are multiplied by CALIBRATION_NOMINAL_S over the calibration time
    its own process measured right after it.
    """
    timed = _timings(records, traced=False)
    if not timed:
        return {}
    scale = [CALIBRATION_NOMINAL_S / t["calibration_s"] for t in timed]
    series = {
        "wall_s": ([t["wall_s"] * k for t, k in zip(timed, scale)], "s"),
        "steps_per_s": ([t["steps"] / (t["wall_s"] * k)
                         for t, k in zip(timed, scale)], "1/s"),
        "setup_s": ([t["setup_s"] * k for t, k in zip(timed, scale)], "s"),
        "peak_rss_mb": ([t["peak_rss_mb"] for t in timed], "MB"),
    }
    return {name: (statistics.median(vals), unit, vals)
            for name, (vals, unit) in series.items()}


def per_layer(workload: Workload, records: list) -> dict:
    """Medians over the traced commands; name -> (value, unit, values).

    Layer times are as measured, not scaled.
    """
    traced = [r for r in records if r.mode != "plain" and r.timing]
    out = {}
    for name in dict.fromkeys(k for r in traced for k in r.layers):
        vals = [r.layers[name][0] for r in traced if name in r.layers]
        out[name] = (statistics.median(vals), traced[0].layers[name][1], vals)
    plain = _timings(records, traced=False)
    if traced and plain:
        overhead = (statistics.median(t["wall_s"] for t in _timings(records, True))
                    - statistics.median(t["wall_s"] for t in plain))
        out["trace.overhead_s"] = (overhead, "s", [overhead])
    bytes_ = 8 * workload.pb_grid ** 2
    out["computed.jacobian_bytes"] = (bytes_, "bytes", [bytes_])
    return out


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _git_commit() -> str:
    git = ROOT / ".git"
    head = _read(git / "HEAD").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(git / ref).strip()
        if not sha:
            packed = [line.split() for line in _read(git / "packed-refs").splitlines()]
            sha = next((p[0] for p in packed if len(p) == 2 and p[1] == ref), "")
        head = sha
    return head or "unknown (not a git checkout)"


def machine_facts() -> dict:
    cpuinfo = _read("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f).strip() for f in ("level", "type", "size"))
        caches.append(f"L{level} {kind} {size}")
    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": model,
        "caches": caches,
        "blas_threads_pinned": BLAS_THREADS,
        "commit": _git_commit(),
    }
    result = BUILD_DIR / f"facts-pid{os.getpid()}.json"
    result.parent.mkdir(parents=True, exist_ok=True)
    # also the warm-up: imports numpy and the package, writing bytecode
    spawn(result, "facts", []).check_returncode()
    facts.update(json.loads(result.read_text()))
    result.unlink()
    return facts


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload: Workload, records: list, trace: bool, seconds: float) -> tuple:
    """Print the human-readable lines of one workload.

    Returns its metrics for the JSON line, and its attempted and failed
    flow runs.
    """
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    traced = sum(r.mode != "plain" for r in records)
    print(f"perfbench: {workload.name}: {len(records)} commands "
          f"({len(records) - traced} untraced, {traced} traced) in a {seconds:g} s "
          f"closed loop, 1 client; {workload.why}")
    metrics = per_layer(workload, records) if trace else end_to_end(records)
    for name, (value, unit, vals) in metrics.items():
        line = f"perfbench: {workload.name}: {name} = {_fmt(value)} {unit}"
        if len(vals) > 1:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            line += f" (median; q1 {_fmt(q1)}, q3 {_fmt(q3)}, n={len(vals)})"
        print(line)
    timed = [r.timing for r in records if r.timing]
    if timed:
        print(f"perfbench: {workload.name}: unscaled medians over all commands: "
              f"wall_s {_fmt(statistics.median(t['wall_s'] for t in timed))} s, "
              f"setup_s {_fmt(statistics.median(t['setup_s'] for t in timed))} s; "
              f"calibration "
              f"{_fmt(statistics.median(t['calibration_s'] for t in timed) * 1e3)} ms "
              f"against a nominal {CALIBRATION_NOMINAL_S * 1e3:g} ms")
    print(f"perfbench: {workload.name}: fail_ratio = {failed}/{attempted} = "
          f"{failed / attempted:.4g} (failed / attempted flow runs)")
    threads = sorted({r.timing["threads"] for r in records if r.timing})
    print(f"perfbench: {workload.name}: process threads after the command: {threads}")
    missing = sorted({m for r in records for m in r.missing})
    if missing:
        print(f"perfbench: {workload.name}: missing layers: {', '.join(missing)}")
    for i, r in enumerate(records):
        for problem in r.problems[:5]:
            print(f"perfbench: {workload.name}: command {i}: {problem}")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()}, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "debye_limit" / "cli.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'debye_limit'}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    print("perfbench: machine " + json.dumps(machine_facts()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        records = run_loop(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        got, n_attempted, n_failed = report(WORKLOADS[name], records,
                                            bool(args.trace), args.seconds)
        attempted += n_attempted
        failed += n_failed
        if len(names) == 1:
            metrics = got
        else:
            metrics.update({f"{name}/{k}": v for k, v in got.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
