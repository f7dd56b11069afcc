"""Microbenchmarks of single layers through the package's public API.

They run in a traced child after its command has finished, on the
state that command recorded last. Kernels that solve the
Poisson-Boltzmann equation run at ``min(N, PB_GRID_CAP)``: the dense
solve at N = 4096 would build a 128 MiB Jacobian per Newton iterate,
which no workload does.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from tracing import Tracer

PB_GRID_CAP = 512
BUDGET_S = 0.2  # time spent per kernel, after at least MIN_REPS calls
MIN_REPS = 5
STEP_EPS = 1e-2  # the eps of `debye-limit simulate` and of the check battery
DT = 1e-5


def median_seconds(fn) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < MIN_REPS or time.perf_counter() - start < BUDGET_S:
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e9


def resample(values: np.ndarray, m: int) -> np.ndarray:
    """Spectral truncation of a periodic sample onto ``m <= len(values)`` points."""
    n = values.size
    if m >= n:
        return values
    fhat = np.fft.rfft(values)[: m // 2 + 1] * (m / n)
    fhat[-1] = fhat[-1].real
    return np.fft.irfft(fhat, m)


def _fft_calls(fn) -> int:
    tracer = Tracer(["grid.fft"])
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer.calls["grid.fft"]


def run(n_values: np.ndarray, u_values: np.ndarray) -> dict:
    """Median times of the layer kernels on one recorded state."""
    from debye_limit.flows import (EPState, LimitState, RunOptions, rhs_ep,
                                   rhs_limit, step)
    from debye_limit.grid import Field, Grid, dealias, derivative, hs_norm
    from debye_limit.poisson import solve_phi

    out = {}
    grid = Grid(n_values.size)
    n = Field(grid, n_values)
    out["grid.derivative_us"] = (median_seconds(lambda: derivative(n, 1)) * 1e6, "us")
    out["grid.dealias_us"] = (median_seconds(lambda: dealias(n)) * 1e6, "us")
    out["grid.hs_norm_us"] = (median_seconds(lambda: hs_norm(n, 2)) * 1e6, "us")

    limit = LimitState(0.0, n, Field(grid, u_values))
    limit_opts = RunOptions(dt=DT, t_end=1.0, eps=0.0)
    out["flows.step_ms.limit"] = (
        median_seconds(lambda: step(limit, limit_opts)) * 1e3, "ms")
    out["flows.rhs_ms.limit"] = (median_seconds(lambda: rhs_limit(limit)) * 1e3, "ms")
    out["computed.fft_per_step.limit"] = (
        _fft_calls(lambda: step(limit, limit_opts)), "count")

    m = min(n_values.size, PB_GRID_CAP)
    pb_grid = Grid(m)
    pb_n = Field(pb_grid, resample(n_values, m))
    for eps, label in ((1e-1, "eps1e-1"), (1e-4, "eps1e-4")):
        out[f"poisson.solve_ms.{label}"] = (
            median_seconds(lambda: solve_phi(pb_n, eps)) * 1e3, "ms")
        out[f"poisson.newton_iters.{label}"] = (solve_phi(pb_n, eps).iterations,
                                                "count")
    ep = EPState(0.0, pb_n, Field(pb_grid, resample(u_values, m)))
    ep_opts = RunOptions(dt=DT, t_end=1.0, eps=STEP_EPS)
    out["flows.step_ms.ep"] = (median_seconds(lambda: step(ep, ep_opts)) * 1e3, "ms")
    out["flows.rhs_ms.ep"] = (median_seconds(lambda: rhs_ep(ep, STEP_EPS)) * 1e3, "ms")
    out["computed.fft_per_step.ep"] = (_fft_calls(lambda: step(ep, ep_opts)), "count")
    return out
