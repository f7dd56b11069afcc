"""Time integration of the paired isentropic plasma flows.

Two initial-value problems share one code path:

* the full flow, where the potential is re-solved from the nonlinear
  Poisson equation at every Runge-Kutta stage (``eps > 0``), and
* the quasineutral limit flow, where the potential collapses to ln n
  (selected by ``eps == 0``).

Both advance (n, u) with classical RK4:

    n_t = -(n u)_x
    u_t = -u u_x - phi_x

with products dealiased before differentiation (conservative form for
the density, so mass is conserved to round-off). Blow-up guards abort
a run when the density touches a floor or an H^2 monitor explodes, and
``evolve`` returns whatever was recorded up to the event.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import (
    Field,
    Grid,
    _dealias_values,
    _derivative_values,
    _hs_norm_values,
)
from .io_utils import write_csv
from .poisson import PBConvergenceError, PBSolveOptions, _solve_phi_values

__all__ = [
    "EPState",
    "LimitState",
    "RunOptions",
    "BlowUpEvent",
    "BlowUpError",
    "Trajectory",
    "default_dt",
    "rhs_ep",
    "rhs_limit",
    "step",
    "evolve",
    "mass",
    "quasineutral_residual",
    "write_trajectory_csv",
    "write_snapshot_csv",
]

# Sobolev order of the blow-up norm monitor.
GUARD_NORM_ORDER = 2

# Exponential low-pass filter (optional, off by default everywhere):
# sigma(j) = exp(-FILTER_STRENGTH * (|j| / (n/2))**FILTER_ORDER)
FILTER_STRENGTH = 36.0
FILTER_ORDER = 8


@dataclass(frozen=True)
class EPState:
    """Instantaneous (t, n, u) of the full flow."""

    t: float
    n: Field
    u: Field

    def __post_init__(self):
        if self.n.grid is not self.u.grid and self.n.grid != self.u.grid:
            raise ValueError("n and u must live on the same grid")
        if np.min(self.n.values) <= 0.0:
            raise ValueError(
                f"state density must be positive, min(n) = "
                f"{np.min(self.n.values):.3e}"
            )

    @property
    def grid(self) -> Grid:
        return self.n.grid


@dataclass(frozen=True)
class LimitState(EPState):
    """Instantaneous (t, n, u) of the quasineutral limit flow."""


@dataclass(frozen=True)
class RunOptions:
    """Integration controls shared by both flows.

    ``dt=None`` applies the CFL-style default at run start:
    ``0.25 * dx / (max|u| + 1.5)``. The 1.5 covers the unit sound speed
    of the limit system with margin; the full system's wave speeds are
    eps-uniformly bounded by it, so one dt serves the whole sweep.
    """

    dt: float | None = None
    t_end: float = 0.5
    eps: float = 1e-2
    density_floor: float = 1e-6
    norm_ceiling: float = 1e6
    pb: PBSolveOptions = field(default_factory=PBSolveOptions)
    record_every: int = 1
    exp_filter: bool = False

    def __post_init__(self):
        if self.dt is not None:
            if not (self.dt > 0.0):
                raise ValueError(f"dt must be positive, got {self.dt}")
            if self.t_end > 0.0 and self.dt > self.t_end + 1e-15:
                raise ValueError(
                    f"dt = {self.dt} exceeds t_end = {self.t_end}"
                )
        if self.t_end < 0.0:
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        if self.eps < 0.0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")
        if not (self.density_floor > 0.0):
            raise ValueError("density_floor must be positive")
        if not (self.norm_ceiling > 0.0):
            raise ValueError("norm_ceiling must be positive")
        if not (isinstance(self.record_every, (int, np.integer))
                and self.record_every >= 1):
            raise ValueError(
                f"record_every must be a positive integer, got "
                f"{self.record_every}"
            )


@dataclass(frozen=True)
class BlowUpEvent:
    t: float
    reason: str  # "density_floor" | "norm_ceiling" | "non_finite" | "pb_divergence"
    value: float
    step_index: int


class BlowUpError(RuntimeError):
    def __init__(self, event: BlowUpEvent):
        super().__init__(
            f"blow-up at t = {event.t:.6g} (step {event.step_index}): "
            f"{event.reason} hit with value {event.value:.3e}"
        )
        self.event = event


@dataclass
class Trajectory:
    """Recorded states of one run, plus solved potentials for the full flow.

    ``phis`` is aligned with ``states`` when ``eps > 0`` and None for
    limit-flow runs. ``blowup`` is set when the run ended early; when a
    ``pb_divergence`` hit the solve for a recorded state, that last
    state has no potential and ``phis`` is one entry shorter.
    """

    eps: float
    dt: float
    record_every: int
    states: list
    phis: list | None
    blowup: BlowUpEvent | None = None
    wall_time: float = 0.0

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    @property
    def final(self):
        return self.states[-1]

    @property
    def final_phi(self) -> Field | None:
        """Potential of the final state, if the run solved one."""
        if self.phis is None or len(self.phis) < len(self.states):
            return None
        return self.phis[-1]


def default_dt(state: EPState) -> float:
    """Run-start time step: 0.25 * dx / (max|u| + 1.5)."""
    umax = float(np.max(np.abs(state.u.values)))
    return 0.25 * state.grid.dx / (umax + 1.5)


def _rhs_values(grid: Grid, n: np.ndarray, u: np.ndarray,
                phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dn = -_derivative_values(grid, _dealias_values(grid, n * u), 1)
    ux = _derivative_values(grid, u, 1)
    # the potential gradient is dealiased too: phi comes from a pointwise
    # exponential (or log), so it carries energy above the cutoff, and
    # feeding that into u opens a resonant alias loop at the boundary
    # mode of the full flow (flat dispersion at high k makes neighbours
    # degenerate). Trimming it keeps the state band-limited, and then
    # the 2/3 rule actually applies to every product.
    du = -_dealias_values(grid, u * ux) \
        - _dealias_values(grid, _derivative_values(grid, phi, 1))
    return dn, du


def rhs_ep(state: EPState, eps: float,
           pb: PBSolveOptions | None = None) -> tuple[Field, Field]:
    """Time derivative (dn, du) of the full flow; phi from the PB solve."""
    if not (eps > 0.0):
        raise ValueError(f"the full flow needs eps > 0, got {eps}")
    grid, n = state.grid, state.n.values
    phi = _solve_phi_values(grid, n, eps, pb or PBSolveOptions())[0]
    dn, du = _rhs_values(grid, n, state.u.values, phi)
    return Field(grid, dn), Field(grid, du)


def rhs_limit(state: EPState) -> tuple[Field, Field]:
    """Time derivative (dn, du) of the quasineutral limit flow."""
    n = state.n.values
    dn, du = _rhs_values(state.grid, n, state.u.values, np.log(n))
    return Field(state.grid, dn), Field(state.grid, du)


def _filter_sigma(grid: Grid) -> np.ndarray:
    modes = np.abs(np.fft.fftfreq(grid.n_points) * grid.n_points)
    return np.exp(-FILTER_STRENGTH * (modes / (grid.n_points / 2)) ** FILTER_ORDER)


def _apply_filter(grid: Grid, values: np.ndarray) -> np.ndarray:
    return np.fft.ifft(_filter_sigma(grid) * np.fft.fft(values)).real


def _guard_stage(n: np.ndarray, floor: float, t: float, step_index: int):
    if not np.all(np.isfinite(n)):
        raise BlowUpError(BlowUpEvent(t, "non_finite", float("nan"), step_index))
    low = float(np.min(n))
    if low < floor:
        raise BlowUpError(BlowUpEvent(t, "density_floor", low, step_index))


def _potential(grid: Grid, n: np.ndarray, opts: RunOptions,
               phi_init: np.ndarray | None, t: float,
               step_index: int) -> np.ndarray:
    """Potential of density n: the PB solve for eps > 0, else ln n.

    ``phi_init`` warm-starts Newton. A failed solve ends the run like a
    guard does, as a ``pb_divergence`` blow-up.
    """
    if opts.eps == 0.0:
        return np.log(n)
    try:
        return _solve_phi_values(grid, n, opts.eps, opts.pb, phi_init)[0]
    except PBConvergenceError as err:
        raise BlowUpError(BlowUpEvent(t, "pb_divergence", err.last_residual,
                                      step_index))


def _step_values(grid: Grid, n: np.ndarray, u: np.ndarray, t: float, dt: float,
                 opts: RunOptions, step_index: int,
                 phi: np.ndarray | None = None):
    """One RK4 step from (n, u) with potential ``phi`` (solved if None).

    Each stage's potential is warm-started from the previous stage's.
    Returns the new (n, u) and the last stage's potential, which is a
    close guess for the potential of the new state.
    """
    floor = opts.density_floor

    def stage(nv, uv, t_stage, phi_prev):
        _guard_stage(nv, floor, t_stage, step_index)
        phi_stage = _potential(grid, nv, opts, phi_prev, t_stage, step_index)
        return _rhs_values(grid, nv, uv, phi_stage), phi_stage

    _guard_stage(n, floor, t, step_index)
    if phi is None:
        phi = _potential(grid, n, opts, None, t, step_index)
    k1n, k1u = _rhs_values(grid, n, u, phi)
    (k2n, k2u), phi = stage(n + 0.5 * dt * k1n, u + 0.5 * dt * k1u,
                            t + 0.5 * dt, phi)
    (k3n, k3u), phi = stage(n + 0.5 * dt * k2n, u + 0.5 * dt * k2u,
                            t + 0.5 * dt, phi)
    (k4n, k4u), phi = stage(n + dt * k3n, u + dt * k3u, t + dt, phi)
    new_n = n + (dt / 6.0) * (k1n + 2.0 * k2n + 2.0 * k3n + k4n)
    new_u = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)

    if opts.exp_filter:
        new_n = _apply_filter(grid, new_n)
        new_u = _apply_filter(grid, new_u)

    t_new = t + dt
    if not (np.all(np.isfinite(new_n)) and np.all(np.isfinite(new_u))):
        raise BlowUpError(BlowUpEvent(t_new, "non_finite", float("nan"), step_index))
    _guard_stage(new_n, floor, t_new, step_index)
    norm_hi = max(_hs_norm_values(grid, new_n, GUARD_NORM_ORDER),
                  _hs_norm_values(grid, new_u, GUARD_NORM_ORDER))
    if norm_hi > opts.norm_ceiling:
        raise BlowUpError(BlowUpEvent(t_new, "norm_ceiling", norm_hi, step_index))
    return new_n, new_u, phi


def step(state: EPState, opts: RunOptions, dt: float | None = None) -> EPState:
    """One RK4 step. The potential is re-solved at every stage.

    Raises :class:`BlowUpError` when a guard trips or a potential solve
    fails. The returned state keeps the type of the input state.
    """
    if dt is None:
        dt = opts.dt if opts.dt is not None else default_dt(state)
    grid = state.grid
    new_n, new_u, _ = _step_values(grid, state.n.values, state.u.values,
                                   state.t, dt, opts, step_index=0)
    return replace(state, t=state.t + dt, n=Field(grid, new_n),
                   u=Field(grid, new_u))


def _count_steps(span: float, dt: float) -> tuple[int, float]:
    """Number of full dt steps plus the length of a trailing short step."""
    n_full = int(np.floor(span / dt + 1e-9))
    tail = span - n_full * dt
    if tail <= 1e-9 * dt:
        tail = 0.0
    return n_full, tail


def evolve(state: EPState, opts: RunOptions, observer=None) -> Trajectory:
    """Integrate to ``t_end``, recording every ``record_every``-th step.

    The initial and final states are always recorded. For ``eps > 0``
    the potential of every state is solved once, warm-started from the
    last stage of the step that reached it; it serves as the first
    stage of the next step and is recorded alongside recorded states.
    On blow-up the partial trajectory is returned with the event
    attached instead of propagating the error.
    """
    t_start = time.perf_counter()
    grid = state.grid
    dt = opts.dt if opts.dt is not None else default_dt(state)
    n_full, tail = _count_steps(opts.t_end - state.t, dt)
    total_steps = n_full + (1 if tail > 0.0 else 0)

    states = []
    phis = [] if opts.eps > 0.0 else None
    n_vals, u_vals = state.n.values, state.u.values
    t0 = state.t
    phi = None
    blowup = None
    for i in range(total_steps + 1):
        try:
            if i > 0:
                step_dt = dt if i <= n_full else tail
                t_prev = t0 + (i - 1) * dt if i <= n_full else t0 + n_full * dt
                n_vals, u_vals, phi = _step_values(grid, n_vals, u_vals, t_prev,
                                                   step_dt, opts, i, phi)
            t_now = opts.t_end if i == total_steps and i > 0 else t0 + i * dt
            recorded = i % opts.record_every == 0 or i == total_steps
            if recorded:
                rec = state if i == 0 else replace(
                    state, t=t_now, n=Field(grid, n_vals), u=Field(grid, u_vals))
                states.append(rec)
            phi = _potential(grid, n_vals, opts, phi, t_now, i)
            if recorded and phis is not None:
                phis.append(Field(grid, phi))
        except BlowUpError as err:
            blowup = err.event
            break
        if recorded and observer is not None:
            observer(rec)

    return Trajectory(eps=opts.eps, dt=dt, record_every=opts.record_every,
                      states=states, phis=phis, blowup=blowup,
                      wall_time=time.perf_counter() - t_start)


def mass(f: Field) -> float:
    return float(np.mean(f.values) * f.grid.length)


def quasineutral_residual(state: EPState, phi: Field | None) -> float:
    """L2 gap ||exp(phi) - n||; zero by construction for the limit flow."""
    if phi is None:
        return 0.0
    diff = np.exp(phi.values) - state.n.values
    return float(np.sqrt(np.mean(diff * diff) * state.grid.length))


def write_trajectory_csv(traj: Trajectory, path, s: int = 2) -> None:
    """Write the per-record scalar diagnostics of a run."""
    grid = traj.states[0].grid
    rows = []
    for idx, st in enumerate(traj.states):
        if traj.phis is None:
            gap = 0.0
        elif idx < len(traj.phis):
            gap = quasineutral_residual(st, traj.phis[idx])
        else:
            gap = float("nan")  # the potential solve failed here
        rows.append((
            st.t,
            _hs_norm_values(grid, st.n.values, s),
            _hs_norm_values(grid, st.u.values, s),
            mass(st.n),
            float(np.min(st.n.values)),
            float(np.max(st.n.values)),
            gap,
        ))
    write_csv(path, "t,norm_n_Hs,norm_u_Hs,mass,min_n,max_n,quasineutral_residual",
              rows)


def write_snapshot_csv(state: EPState, flow: str, eps: float, out_dir,
                       phi: Field | None = None) -> str:
    """Write one state as ``snap_<flow>_<eps>_<t>.csv`` and return the path."""
    import os

    name = f"snap_{flow}_{eps:g}_{state.t:g}.csv"
    path = os.path.join(os.fspath(out_dir), name)
    header = "x,n,u" + (",phi" if phi is not None else "")
    rows = []
    for i in range(state.grid.n_points):
        row = [float(state.grid.x[i]), float(state.n.values[i]),
               float(state.u.values[i])]
        if phi is not None:
            row.append(float(phi.values[i]))
        rows.append(tuple(row))
    write_csv(path, header, rows)
    return path
