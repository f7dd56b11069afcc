"""Run one ``debye-limit`` command in a fresh process, for ``run.py``.

    python3 perfbench/child.py RESULT SPAWN_NS MODE -- CLI_ARGS...

MODE is ``plain``, ``trace`` (record per-layer spans), ``trace+micro``
(also run the microbenchmarks afterwards) or ``facts`` (import the
package and report the numpy build; no command runs). The package is
imported from ``src/`` of the checkout that holds this file. The command goes through
the public entry point ``debye_limit.cli.main``; RESULT receives its
exit code, clock stamps on CLOCK_MONOTONIC (shared with the parent,
which stamped SPAWN_NS just before starting this process), peak
resident memory, the time of a calibration kernel run right after the
command, per-flow invariants and, when traced, layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _steps(span: float, dt: float) -> int:
    """RK4 steps ``evolve`` takes over ``span``: full steps plus a short tail."""
    n_full = int(span / dt + 1e-9)
    tail = span - n_full * dt
    return n_full + (1 if tail > 1e-9 * dt else 0)


def _capture_flows(cli, experiments, runs: list):
    """Keep what the invariants need from every trajectory ``evolve`` returns."""
    import numpy as np

    def wrap(evolve):
        def capturing(state, opts, *args, **kwargs):
            traj = evolve(state, opts, *args, **kwargs)
            m0 = float(np.mean(state.n.values))
            m1 = float(np.mean(traj.final.n.values))
            runs.append({"eps": opts.eps, "final": traj.final, "pb": opts.pb,
                         "steps": _steps(opts.t_end - state.t, traj.dt),
                         "mass_drift": abs(m1 - m0) / abs(m0),
                         "blowup": traj.blowup is not None})
            return traj
        return capturing

    cli.evolve = wrap(cli.evolve)
    experiments.evolve = wrap(experiments.evolve)


def _invariants(runs: list) -> list:
    from debye_limit.poisson import solve_phi

    out = []
    for run in runs:
        residual = 0.0
        if run["eps"] > 0.0 and not run["blowup"]:
            residual = solve_phi(run["final"].n, run["eps"], run["pb"]).residual_l2
        out.append({"eps": run["eps"], "steps": run["steps"],
                    "mass_drift": run["mass_drift"], "blowup": run["blowup"],
                    "pb_residual": residual, "pb_tol": run["pb"].tol})
    return out


def calibrate() -> float:
    """Best of 3 timings of a fixed kernel that does not use the package.

    It mixes what the workloads spend their time on: dense 256 x 256
    solves, length-4096 FFTs and interpreted Python. ``run.py`` divides
    the command's times by it, so a machine that runs slower for a while
    (on the shared 2-core sandbox, by up to 1.7x for a minute) does not
    read as a slower program.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((256, 256)) + 256.0 * np.eye(256)
    signal = rng.standard_normal(4096)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(10):
            np.linalg.solve(matrix, signal[:256])
        for _ in range(100):
            np.fft.ifft(np.fft.fft(signal))
        total = 0
        for i in range(100_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def _thread_count() -> int:
    return len(os.listdir("/proc/self/task"))


def _numpy_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads_after_import": _thread_count()}


def main() -> int:
    result_path, spawn_ns, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    cli_args = sys.argv[5:]
    sys.path.insert(0, str(ROOT / "src"))
    from debye_limit import cli, experiments

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported {cli.__file__}, not the checkout's package")
    if mode == "facts":
        Path(result_path).write_text(json.dumps(_numpy_facts()))
        return 0
    stamps = {}
    runs = []
    parse = getattr(cli, "_effective_config", None)
    if parse is None:
        # config parsing is no longer a separate step: set-up ends at import
        stamps["setup_ns"] = time.monotonic_ns()
    else:
        def stamped_parse(args):
            cfg = parse(args)
            stamps.setdefault("setup_ns", time.monotonic_ns())
            return cfg

        cli._effective_config = stamped_parse
    _capture_flows(cli, experiments, runs)

    tracer = None
    entry = cli.main
    if mode.startswith("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.span("cli.main", cli.main)
    error = None
    try:
        exit_code = entry(cli_args)
    except Exception:
        exit_code, error = None, traceback.format_exc()
    end_ns = time.monotonic_ns()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
    calibration_s = calibrate()
    result = {
        "exit_code": exit_code,
        "error": error,
        "setup_s": (stamps.get("setup_ns", end_ns) - spawn_ns) / 1e9,
        "wall_s": (end_ns - spawn_ns) / 1e9,
        "peak_rss_mb": peak_kb / 1024.0,
        "calibration_s": calibration_s,
        "threads": _thread_count(),
        "flows": _invariants(runs),
    }
    if tracer is not None:
        from tracing import layer_metrics

        main_ns = tracer.total_ns["cli.main"]
        layers = layer_metrics(tracer, main_ns / 1e9,
                               (main_ns - tracer.child_ns["cli.main"]) / 1e9)
        missing = list(tracer.missing)
        if mode == "trace+micro" and runs:
            import microbench

            final = runs[-1]["final"]
            try:
                layers.update(microbench.run(final.n.values, final.u.values))
            except ImportError as exc:
                missing.append(f"microbench ({exc})")
        result["layers"] = layers
        result["missing"] = missing
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
