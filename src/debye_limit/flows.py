"""Time integration of the paired isentropic plasma flows.

Two initial-value problems share one code path:

* the full flow, where the potential is re-solved from the nonlinear
  Poisson equation at every Runge-Kutta stage (``eps > 0``), and
* the quasineutral limit flow, where the potential collapses to ln n
  (selected by ``eps == 0``).

Both advance the stacked state (n, u) with classical RK4 in
conservative form:

    n_t = -(n u)_x
    u_t = -(u^2/2 + phi)_x

with both fluxes dealiased before differentiation, so mass and
momentum are conserved to round-off. On a band-limited u the 2/3 rule
makes the dealiased (u^2/2)_x and u u_x the same operator. Blow-up
guards abort a run when the density touches a floor or an H^2 monitor
explodes, and ``evolve`` returns whatever was recorded up to the event.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import (MAX_SOBOLEV_ORDER, Field, Grid, _check_order, _hs_norm_values,
                   _integral_values, _l2_values)
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
    "RecordAllocationError",
    "write_trajectory_csv",
    "write_snapshot_csv",
]

# Sobolev order of the blow-up norm monitor.
GUARD_NORM_ORDER = 2
# Full steps of stage-potential history that evolve extrapolates from.
HISTORY_ORDER = 4


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

    def __post_init__(self):
        if self.dt is not None:
            if not (self.dt > 0.0):
                raise ValueError(f"dt must be positive, got {self.dt}")
            if self.t_end > 0.0 and self.dt > self.t_end + 1e-15:
                raise ValueError(
                    f"dt = {self.dt} exceeds t_end = {self.t_end}"
                )
        if not (0.0 <= self.t_end < np.inf):
            raise ValueError(
                f"t_end must be finite and nonnegative, got {self.t_end}")
        if self.dt is not None and not np.isfinite(self.t_end / self.dt):
            raise ValueError(
                f"dt = {self.dt} is too small: t_end / dt overflows")
        if not (self.eps >= 0.0):
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


class RecordAllocationError(MemoryError):
    """The record stacks of a run do not fit in memory, or its steps overflow."""


@dataclass
class Trajectory:
    """Records of one run: times ``t`` ``(R,)`` and stacks ``n``, ``u`` ``(R, N)``.

    ``h2_norms`` ``(R, 2)`` holds each record's (n, u) ``H^2`` norms, as the
    step guard forms them. ``phi`` stacks the recorded potentials when
    ``eps > 0`` and is None for limit-flow runs. ``blowup`` is set when the
    run ended early; when a ``pb_divergence`` hit the solve for a recorded
    state, that last row has no potential and ``phi`` is one row shorter.
    The stacks are read-only, since consumers share them as views.
    """

    eps: float
    dt: float
    grid: Grid
    t: np.ndarray
    n: np.ndarray
    u: np.ndarray
    phi: np.ndarray | None
    h2_norms: np.ndarray
    blowup: BlowUpEvent | None = None
    wall_time: float = 0.0

    @property
    def final(self) -> EPState:
        """The last recorded row as a state of its flow."""
        cls = LimitState if self.phi is None else EPState
        return cls(float(self.t[-1]), Field(self.grid, self.n[-1]),
                   Field(self.grid, self.u[-1]))


def default_dt(state: EPState) -> float:
    """Run-start time step: 0.25 * dx / (max|u| + 1.5)."""
    umax = float(np.max(np.abs(state.u.values)))
    return 0.25 * state.grid.dx / (umax + 1.5)


def _rhs_values(grid: Grid, n: np.ndarray, u: np.ndarray, phi: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """(dn, du) = -((n u)_x, (u^2/2 + phi)_x), dealiased, into ``out`` ``(2, N)``.

    One masked derivative of the two fluxes, formed in ``out``: 2 transform
    calls, since a stacked transform gives each row the bits of a single
    one. The potential is dealiased with u^2/2: phi comes from a pointwise
    exponential (or log), so it carries energy above the cutoff, and
    feeding that into u opens a resonant alias loop at the boundary mode
    of the full flow (flat dispersion at high k makes neighbours
    degenerate). Trimming it keeps the state band-limited, and then the
    2/3 rule actually applies to every product.
    """
    symbol = grid._cached("flux", lambda: -(grid.keep * grid.derivative_symbol(1)))
    with np.errstate(over="ignore", invalid="ignore"):  # the guards end a huge run
        np.multiply(n, u, out=out[0])
        np.multiply(0.5, u, out=out[1])
        out[1] *= u
        out[1] += phi
        flux_hat = np.fft.rfft(out)
        out[...] = np.fft.irfft(np.multiply(flux_hat, symbol, out=flux_hat), grid.n_points)
    return out


def rhs_ep(state: EPState, eps: float,
           pb: PBSolveOptions | None = None) -> tuple[Field, Field]:
    """Time derivative (dn, du) of the full flow; phi from the PB solve."""
    if not (eps > 0.0):
        raise ValueError(f"the full flow needs eps > 0, got {eps}")
    grid, n = state.grid, state.n.values
    phi = _solve_phi_values(grid, n, eps, pb or PBSolveOptions())[0][0]
    dn, du = _rhs_values(grid, n, state.u.values, phi, np.empty((2, len(n))))
    return Field(grid, dn), Field(grid, du)


def rhs_limit(state: EPState) -> tuple[Field, Field]:
    """Time derivative (dn, du) of the quasineutral limit flow."""
    grid, n = state.grid, state.n.values
    dn, du = _rhs_values(grid, n, state.u.values, np.log(n), np.empty((2, len(n))))
    return Field(grid, dn), Field(grid, du)


def _guard_stage(n: np.ndarray, floor: float, t: float, step_index: int):
    if not np.isfinite(n).all():
        raise BlowUpError(BlowUpEvent(t, "non_finite", float("nan"), step_index))
    low = float(n.min())
    if low < floor:
        raise BlowUpError(BlowUpEvent(t, "density_floor", low, step_index))


def _potential(grid: Grid, n: np.ndarray, opts: RunOptions,
               guess: tuple | None, t: float, step_index: int) -> tuple:
    """Potential of density n as the pair (values, band coefficients):
    the PB solve for eps > 0, else ``(ln n, None)``.

    ``guess``, a pair of the same kind, warm-starts Newton. A failed
    solve ends the run like a guard does, as a ``pb_divergence`` blow-up.
    """
    if opts.eps == 0.0:
        return np.log(n), None
    try:
        return _solve_phi_values(grid, n, opts.eps, opts.pb, guess)[0]
    except PBConvergenceError as err:
        raise BlowUpError(BlowUpEvent(t, "pb_divergence", err.last_residual,
                                      step_index))


def _step_values(grid: Grid, state: np.ndarray, t: float, dt: float,
                 opts: RunOptions, step_index: int, phi: tuple | None = None,
                 ahead: tuple | None = None, work: np.ndarray | None = None):
    """One RK4 step that advances the ``(2, N)`` stack (n, u) in place, from
    potential ``phi`` (solved if None).

    Potentials are the pairs of :func:`_potential`. Stage j = 2, 3, 4
    starts its solve from ``phi`` plus a guess of ``phi_j - phi``, taken
    from ``ahead``, a pair of ``(3, ...)`` stacks (zero if None). ``work``,
    ``(5, 2, N)`` (allocated if None), holds k1..k4 and the stage state;
    every sum runs in the textbook operation order. Returns the stack, the
    stage potentials (stage 4's alone for eps = 0; the last is a close
    guess for the new state's) and the guard's ``(2,)`` ``H^2`` norms.
    """
    floor = opts.density_floor
    stages = []
    *ks, s = np.empty((5, *state.shape)) if work is None else work

    def stage(j, c, t_stage):  # k_j from state + c k_{j-1}
        np.add(np.multiply(ks[j - 2], c, out=s), state, out=s)
        _guard_stage(s[0], floor, t_stage, step_index)
        guess = phi if ahead is None else tuple(a + d[len(stages)]
                                                for a, d in zip(phi, ahead))
        stages.append(_potential(grid, s[0], opts, guess, t_stage, step_index))
        if opts.eps == 0.0:
            del stages[:-1]  # the limit flow reads only the last one
        _rhs_values(grid, *s, stages[-1][0], ks[j - 1])

    _guard_stage(state[0], floor, t, step_index)
    if phi is None:
        phi = _potential(grid, state[0], opts, None, t, step_index)
    _rhs_values(grid, *state, phi[0], ks[0])
    stage(2, 0.5 * dt, t + 0.5 * dt)
    stage(3, 0.5 * dt, t + 0.5 * dt)
    stage(4, dt, t + dt)
    change = np.multiply(ks[1], 2.0, out=s)  # (dt / 6) (k1 + 2 k2 + 2 k3 + k4)
    change += ks[0]
    change += np.multiply(ks[2], 2.0, out=ks[2])
    change += ks[3]
    change *= dt / 6.0
    new = np.add(state, change, out=state)

    t_new = t + dt
    if not np.isfinite(new).all():
        raise BlowUpError(BlowUpEvent(t_new, "non_finite", float("nan"), step_index))
    _guard_stage(new[0], floor, t_new, step_index)
    norms = _hs_norm_values(grid, new, GUARD_NORM_ORDER)
    if norms.max() > opts.norm_ceiling:
        raise BlowUpError(BlowUpEvent(t_new, "norm_ceiling", norms.max(), step_index))
    return new, stages, norms


def step(state: EPState, opts: RunOptions, dt: float | None = None) -> EPState:
    """One RK4 step. The potential is re-solved at every stage.

    Raises :class:`BlowUpError` when a guard trips or a potential solve
    fails. The returned state keeps the type of the input state.
    """
    if dt is None:
        dt = opts.dt if opts.dt is not None else default_dt(state)
    grid = state.grid
    (new_n, new_u), _, _ = _step_values(
        grid, np.array((state.n.values, state.u.values)), state.t, dt, opts,
        step_index=0)
    return replace(state, t=state.t + dt, n=Field(grid, new_n),
                   u=Field(grid, new_u))


def _extrapolation_weights(count: int) -> np.ndarray:
    """Weights, newest value first, that carry a sequence one step on; exact
    for polynomials of degree < count, whose count-th backward difference is 0."""
    return np.array([(-1) ** m * math.comb(count, m + 1) for m in range(count)], float)


def _count_steps(span: float, dt: float) -> tuple[int, float]:
    """Number of full dt steps plus the length of a trailing short step."""
    n_full = int(np.floor(span / dt + 1e-9))
    tail = span - n_full * dt
    if tail <= 1e-9 * dt:
        tail = 0.0
    return n_full, tail


def evolve(state: EPState, opts: RunOptions) -> Trajectory:
    """Integrate to ``t_end``, recording every ``record_every``-th step.

    The initial and final states are always recorded, into stacks sized
    for the whole run up front (:class:`RecordAllocationError` if they do
    not fit), with the ``H^2`` norms of the step guards. The steps advance
    one state in place, with work arrays allocated once per run. For
    ``eps > 0`` the potential of every state is solved once, warm-started
    from the last stage of the step that reached it; it serves as the
    first stage of the next step and is recorded with recorded states.
    Stage j = 2, 3, 4 starts from it plus the extrapolation of its own last
    ``HISTORY_ORDER`` full-step differences ``phi_j - phi``, smooth in the
    step index at fixed dt. The state's potential is not extrapolated: one
    Newton step from stage 4's keeps it near round-off, not just under
    ``tol``. Potentials ride along as (values, band coefficients) pairs.
    On blow-up the stacks are cut at the last record and returned with
    the event attached instead of propagating the error.
    """
    t_start = time.perf_counter()
    grid = state.grid
    span = opts.t_end - state.t
    dt = opts.dt
    if dt is None:
        # a run shorter than one auto step takes one step of its span
        dt = min(default_dt(state), span) if span > 0.0 else default_dt(state)
        if not np.isfinite(span / dt):  # RunOptions' rule for a given dt
            raise RecordAllocationError(f"t_end / dt overflows at the auto dt = {dt:g}")
    n_full, tail = _count_steps(span, dt)
    total_steps = n_full + (1 if tail > 0.0 else 0)
    records = -(-total_steps // opts.record_every) + 1
    try:
        times = np.empty(records)
        stacks = np.empty((3 if opts.eps > 0.0 else 2, records, grid.n_points))
        h2 = np.empty((records, 2))
    except (MemoryError, ValueError) as err:
        raise RecordAllocationError(
            f"the {records} records of a run to t_end = {opts.t_end:g} on "
            f"{grid.n_points} points do not fit in memory ({err})") from None

    values = np.array((state.n.values, state.u.values))
    work = np.empty((5, *values.shape))
    with np.errstate(over="ignore", invalid="ignore"):  # a huge state trips step 1
        norms = _hs_norm_values(grid, values, GUARD_NORM_ORDER)
    t0 = state.t
    phi = None
    history = []  # the last steps' stage differences, newest first
    blowup = None
    rows = phi_rows = 0
    for i in range(total_steps + 1):
        try:
            if i > 0:
                step_dt = dt if i <= n_full else tail
                # a difference is O(dt), so the short last step scales it
                weights = (step_dt / dt) * _extrapolation_weights(len(history))
                ahead = tuple(sum(w * h[part] for w, h in zip(weights, history))
                              for part in (0, 1)) if history else None
                # only the last step is short: each starts at a whole number of dt
                _, stages, norms = _step_values(grid, values, t0 + (i - 1) * dt,
                                                step_dt, opts, i, phi, ahead, work)
                if opts.eps > 0.0:
                    diffs = tuple(np.array(p) - a for a, p in zip(phi, zip(*stages)))
                    history = [diffs, *history[:HISTORY_ORDER - 1]]
                phi = stages.pop()  # freed when the state's potential replaces it
            t_now = opts.t_end if i == total_steps and i > 0 else t0 + i * dt
            recorded = i % opts.record_every == 0 or i == total_steps
            if recorded:
                times[rows], stacks[:2, rows], h2[rows] = t_now, values, norms
                rows += 1
            phi = _potential(grid, values[0], opts, phi, t_now, i)
            if recorded and opts.eps > 0.0:
                stacks[2, rows - 1] = phi[0]
                phi_rows = rows
        except BlowUpError as err:
            blowup = err.event
            break

    times.flags.writeable = stacks.flags.writeable = h2.flags.writeable = False
    return Trajectory(eps=opts.eps, dt=dt, grid=grid, t=times[:rows],
                      n=stacks[0, :rows], u=stacks[1, :rows], h2_norms=h2[:rows],
                      phi=stacks[2, :phi_rows] if opts.eps > 0.0 else None,
                      blowup=blowup, wall_time=time.perf_counter() - t_start)


def _quasineutral_values(grid: Grid, n: np.ndarray, phi: np.ndarray):
    """L2 gap ||exp(phi) - n||; zero by construction for the limit flow."""
    return _l2_values(grid, np.exp(phi) - n)


def write_trajectory_csv(traj: Trajectory, path, s: int = 2) -> None:
    """Write the per-record scalar diagnostics of a run.

    At ``s = GUARD_NORM_ORDER`` the norms are the guards' ``traj.h2_norms``
    and nothing is transformed. Another order transforms each record's
    (n, u) pair in one call, so no spectrum the size of the stack is held.
    """
    _check_order(s, MAX_SOBOLEV_ORDER, "Sobolev order")
    grid, n, phi = traj.grid, traj.n, traj.phi
    norms = traj.h2_norms
    if s != GUARD_NORM_ORDER:
        with np.errstate(over="ignore", invalid="ignore"):  # a huge state ended its run
            norms = np.array([_hs_norm_values(grid, np.array(pair), s)
                              for pair in zip(n, traj.u)])
    gap = np.full(len(n), 0.0 if phi is None else np.nan)
    if phi is not None:  # nan where the potential solve failed
        gap[:len(phi)] = _quasineutral_values(grid, n[:len(phi)], phi)
    columns = (traj.t, *norms.T, _integral_values(grid, n), n.min(axis=-1),
               n.max(axis=-1), gap)
    write_csv(path, "t,norm_n_Hs,norm_u_Hs,mass,min_n,max_n,quasineutral_residual",
              zip(*(col.tolist() for col in columns)))


def write_snapshot_csv(traj: Trajectory, flow: str, out_dir) -> str:
    """Write the last record, with its potential if it has one, as
    ``snap_<flow>_<eps>_<t>.csv`` and return the path."""
    import os

    t = traj.t[-1]
    name = f"snap_{flow}_{traj.eps:g}_{t:g}.csv"
    path = os.path.join(os.fspath(out_dir), name)
    columns = [traj.grid.x, traj.n[-1], traj.u[-1]]
    header = "x,n,u"
    if traj.phi is not None and len(traj.phi) == len(traj.t):
        columns.append(traj.phi[-1])
        header += ",phi"
    write_csv(path, header, zip(*(col.tolist() for col in columns)))
    return path
