"""Per-layer spans and counts, recorded from outside the package.

The tracer replaces a function under the module attribute its callers
look up at call time (``experiments.evolve``, ``numpy.fft.fft``, ...)
with a wrapper that records a span: calls, inclusive time, and the time
covered by its direct child spans. Nothing under ``src/`` changes. A
name that a later refactor removed is reported as missing, and the
metrics that need it are left out rather than failing the run.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# span name -> (module, attribute) pairs that callers look up at call time
TARGETS = {
    "grid.fft": [("numpy.fft", "fft"), ("numpy.fft", "ifft"),
                 ("numpy.fft", "rfft"), ("numpy.fft", "irfft")],
    "poisson.linsolve": [("numpy.linalg", "solve")],
    "poisson.solve": [("debye_limit.flows", "_solve_phi_values"),
                      ("debye_limit.remainder", "_solve_phi_values")],
    "flows.step": [("debye_limit.flows", "_step_values")],
    "flows.evolve": [("debye_limit.cli", "evolve"),
                     ("debye_limit.experiments", "evolve")],
    "remainder.triple_norm": [("debye_limit.experiments", "triple_norm"),
                              ("debye_limit.energy", "triple_norm"),
                              ("debye_limit.remainder", "triple_norm")],
    "remainder.elliptic_ratio_pair": [("debye_limit.experiments",
                                       "elliptic_ratio_pair")],
    "remainder.remainder_series": [("debye_limit.experiments", "remainder_series"),
                                   ("debye_limit.cli", "remainder_series")],
    "remainder.remainder_residual": [("debye_limit.cli", "remainder_residual"),
                                     ("debye_limit.remainder", "remainder_residual")],
    "remainder.write_remainder_csv": [("debye_limit.cli", "write_remainder_csv")],
    "energy.gronwall_monitor": [("debye_limit.experiments", "gronwall_monitor")],
    "energy.energy_snapshot": [("debye_limit.cli", "energy_snapshot"),
                               ("debye_limit.energy", "energy_snapshot")],
    "energy.identity_2_12_check": [("debye_limit.cli", "identity_2_12_check")],
    "energy.kato_ponce_sample": [("debye_limit.cli", "kato_ponce_sample")],
    "experiments.run_sweep": [("debye_limit.cli", "run_sweep")],
    "io.atomic_write_text": [("debye_limit.io_utils", "atomic_write_text"),
                             ("debye_limit.experiments", "atomic_write_text"),
                             ("debye_limit.grid", "atomic_write_text")],
    "config.parse": [("debye_limit.cli", "_effective_config")],
}

REMAINDER_FNS = ("triple_norm", "elliptic_ratio_pair", "remainder_series",
                 "remainder_residual", "write_remainder_csv")
ENERGY_FNS = ("energy_snapshot", "identity_2_12_check", "kato_ponce_sample")


def _text_bytes(args, kwargs) -> int:
    text = kwargs.get("text", args[1] if len(args) > 1 else "")
    return len(text.encode())


class Tracer:
    """Spans kept in memory for one process; ``install`` / ``uninstall``."""

    def __init__(self, names=None):
        self.calls = Counter()
        self.total_ns = Counter()
        self.child_ns = Counter()  # time covered by direct child spans
        self.nested_ns = Counter()  # (parent, child) -> time
        self.bytes_written = 0
        self.missing = []
        self._stack = []
        self._restore = []
        self._names = list(TARGETS) if names is None else list(names)

    def span(self, name, fn, measure=None):
        def wrapper(*args, **kwargs):
            if measure is not None:
                self.bytes_written += measure(args, kwargs)
            frame = [name, 0]
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                self._stack.pop()
                self.calls[name] += 1
                self.total_ns[name] += elapsed
                self.child_ns[name] += frame[1]
                if self._stack:
                    parent = self._stack[-1]
                    parent[1] += elapsed
                    self.nested_ns[parent[0], name] += elapsed
        return wrapper

    def install(self):
        for name in self._names:
            found = False
            for module_name, attr in TARGETS[name]:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                measure = _text_bytes if name == "io.atomic_write_text" else None
                setattr(module, attr, self.span(name, original, measure))
                self._restore.append((module, attr, original))
                found = True
            if not found:
                self.missing.append(name)

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def seconds(self, name) -> float:
        return self.total_ns[name] / 1e9


def layer_metrics(tracer: Tracer, main_s: float, main_self_s: float) -> dict:
    """Per-layer metrics of one traced command; names from BENCHMARK.json.

    ``main_s`` is the traced span of ``cli.main`` and ``main_self_s``
    its time outside every wrapped span.
    """
    missing = set(tracer.missing)
    out = {}

    def put(metric, unit, value, *needs):
        if not missing.intersection(needs):
            out[metric] = (value, unit)

    t = tracer
    put("grid.fft_calls", "count", t.calls["grid.fft"], "grid.fft")
    put("grid.fft_s", "s", t.seconds("grid.fft"), "grid.fft")
    put("poisson.linsolve_calls", "count", t.calls["poisson.linsolve"],
        "poisson.linsolve")
    put("poisson.linsolve_s", "s", t.seconds("poisson.linsolve"), "poisson.linsolve")
    put("poisson.solve_calls", "count", t.calls["poisson.solve"], "poisson.solve")
    put("poisson.solve_s", "s", t.seconds("poisson.solve"), "poisson.solve")
    put("poisson.share", "ratio", t.seconds("poisson.solve") / main_s,
        "poisson.solve")
    put("flows.steps", "count", t.calls["flows.step"], "flows.step")
    put("flows.evolve_s", "s", t.seconds("flows.evolve"), "flows.evolve")
    for fn in REMAINDER_FNS:
        put(f"remainder.{fn}_calls", "count", t.calls[f"remainder.{fn}"],
            f"remainder.{fn}")
        put(f"remainder.{fn}_s", "s", t.seconds(f"remainder.{fn}"), f"remainder.{fn}")
    put("energy.gronwall_s", "s", t.seconds("energy.gronwall_monitor"),
        "energy.gronwall_monitor")
    for fn in ENERGY_FNS:
        put(f"energy.{fn}_calls", "count", t.calls[f"energy.{fn}"], f"energy.{fn}")
        put(f"energy.{fn}_s", "s", t.seconds(f"energy.{fn}"), f"energy.{fn}")
    sweep_ns = t.total_ns["experiments.run_sweep"]
    evolve_in_sweep = t.nested_ns["experiments.run_sweep", "flows.evolve"]
    put("experiments.sweep_s", "s", sweep_ns / 1e9, "experiments.run_sweep")
    put("experiments.reduce_s", "s", (sweep_ns - evolve_in_sweep) / 1e9,
        "experiments.run_sweep", "flows.evolve")
    put("io.write_calls", "count", t.calls["io.atomic_write_text"],
        "io.atomic_write_text")
    put("io.bytes_written", "bytes", t.bytes_written, "io.atomic_write_text")
    put("io.write_s", "s", t.seconds("io.atomic_write_text"), "io.atomic_write_text")
    put("config.parse_s", "s", t.seconds("config.parse"), "config.parse")
    put("cli.self_s", "s", main_self_s)
    solves = t.calls["poisson.solve"]
    put("computed.linsolve_per_pb_solve", "count",
        t.calls["poisson.linsolve"] / solves if solves else 0.0,
        "poisson.linsolve", "poisson.solve")
    return out
