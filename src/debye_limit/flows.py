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
from dataclasses import dataclass, field

import numpy as np

from .grid import (MAX_SOBOLEV_ORDER, Field, Grid, _check_order, _hs_norm_values,
                   _integral_values, _l2_values)
from .io_utils import write_csv
from .poisson import PBConvergenceError, PBSolveOptions, _solve_phi_values

# Sobolev order of the blow-up norm monitor.
GUARD_NORM_ORDER = 2
# The blow-up guards: a run ends when min n falls below DENSITY_FLOOR or
# an H^2 norm of (n, u) exceeds NORM_CEILING.
DENSITY_FLOOR = 1e-6
NORM_CEILING = 1e6
# Full steps of stage-potential history that evolve extrapolates from.
HISTORY_ORDER = 4


@dataclass(frozen=True)
class EPState:
    """Instantaneous (t, n, u) of either flow: ``RunOptions.eps`` selects it."""

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


LimitState = EPState  # kept only for perfbench/microbench.py


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
        if not (self.eps >= 0.0):
            raise ValueError(f"eps must be nonnegative, got {self.eps}")
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


class BlowUpError(RuntimeError):
    def __init__(self, event: BlowUpEvent):
        super().__init__(
            f"blow-up at t = {event.t:.6g}: "
            f"{event.reason} hit with value {event.value:.3e}"
        )
        self.event = event


class RecordAllocationError(MemoryError):
    """A run's records do not fit in memory, or its steps overflow.

    Raised before the first step: by ``evolve`` for its record stacks, and
    by :class:`TrajectoryTable` for its ``(R, 7)`` table. A count of
    ``10**15`` records or more is named in ``%.4g`` form.
    """


@dataclass
class Trajectory:
    """Records of one run: times ``t`` ``(R,)`` and stacks ``n``, ``u`` ``(R, N)``.

    A run that streamed its records keeps only the last one (``R = 1``).
    ``phi`` stacks the recorded potentials when ``eps > 0`` and is None for
    limit-flow runs. ``blowup`` is set when the run ended early; when a
    ``pb_divergence`` hit the solve for a recorded state, that last row has
    no potential and ``phi`` is one row shorter. The stacks are read-only,
    since consumers share them as views.
    """

    eps: float
    dt: float
    grid: Grid
    t: np.ndarray
    n: np.ndarray
    u: np.ndarray
    phi: np.ndarray | None
    blowup: BlowUpEvent | None = None
    wall_time: float = 0.0

    @property
    def final(self) -> EPState:
        """The last recorded row as a state."""
        return EPState(float(self.t[-1]), Field(self.grid, self.n[-1]),
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


def rhs_ep(state: EPState, eps: float) -> tuple[Field, Field]:
    """Time derivative (dn, du) of the full flow; phi from the PB solve."""
    if not (eps > 0.0):
        raise ValueError(f"the full flow needs eps > 0, got {eps}")
    grid, n = state.grid, state.n.values
    phi = _solve_phi_values(grid, n, eps, PBSolveOptions())[0][0]
    dn, du = _rhs_values(grid, n, state.u.values, phi, np.empty((2, len(n))))
    return Field(grid, dn), Field(grid, du)


def rhs_limit(state: EPState) -> tuple[Field, Field]:
    """Time derivative (dn, du) of the quasineutral limit flow."""
    grid, n = state.grid, state.n.values
    dn, du = _rhs_values(grid, n, state.u.values, np.log(n), np.empty((2, len(n))))
    return Field(grid, dn), Field(grid, du)


def _guard_stage(rows: np.ndarray, t: float):
    """Guard a row stack whose row 0 is the density: one finiteness scan of
    all of it, then the floor on row 0."""
    if not np.isfinite(rows).all():
        raise BlowUpError(BlowUpEvent(t, "non_finite", float("nan")))
    low = float(rows[0].min())
    if low < DENSITY_FLOOR:
        raise BlowUpError(BlowUpEvent(t, "density_floor", low))


def _potential(grid: Grid, n: np.ndarray, opts: RunOptions, guess: tuple | None,
               t: float) -> tuple[tuple, np.ndarray | None]:
    """Potential of density n as the pair (values, band coefficients), and
    the band coefficients a stage history keeps of it: the PB solve and its
    corrected coefficients for eps > 0, else ``((ln n, None), None)``.

    ``guess``, a pair of the same kind, warm-starts Newton. A failed
    solve ends the run like a guard does, as a ``pb_divergence`` blow-up.
    """
    if opts.eps == 0.0:
        return (np.log(n), None), None
    try:
        solve = _solve_phi_values(grid, n, opts.eps, opts.pb, guess)
    except PBConvergenceError as err:
        raise BlowUpError(BlowUpEvent(t, "pb_divergence", err.last_residual))
    return solve[0], solve[4]


def _step_values(grid: Grid, state: np.ndarray, t: float, dt: float,
                 opts: RunOptions, phi: tuple, ahead: tuple | None, work: np.ndarray):
    """One RK4 step that advances the guarded ``(2, N)`` stack (n, u) in
    place, from its potential ``phi``.

    Potentials are the pairs of :func:`_potential`. Stage j = 2, 3, 4
    starts its solve from ``phi`` plus a guess of ``phi_j - phi``, row
    j - 2 of ``ahead``, a ``(3, K)`` stack of band coefficients; the three
    guesses' values come from one stacked inverse transform, whose rows
    have the bits of single ones. Without ``ahead`` a stage starts from the
    potential of the stage before it, ``phi`` for stage 2. ``work``,
    ``(5, 2, N)``, holds k1..k4 and the stage state; every sum runs in the
    textbook operation order. Returns the three band coefficient arrays a
    stage history keeps (see :func:`_potential`), stage 4's potential (a
    close guess for the new state's) and the guard's ``(2,)`` ``H^2``
    norms.
    """
    *ks, s = work
    _rhs_values(grid, *state, phi[0], ks[0])
    if ahead is not None:
        coeffs = phi[1] + ahead
        guesses = list(zip(np.fft.irfft(coeffs, grid.n_points), coeffs))
    kept = []
    for j, c in enumerate((0.5 * dt, 0.5 * dt, dt)):
        np.add(np.multiply(ks[j], c, out=s), state, out=s)  # state + c k_j
        _guard_stage(s[:1], t + c)
        phi, kept_j = _potential(grid, s[0], opts, phi if ahead is None else guesses[j],
                                 t + c)
        kept.append(kept_j)
        _rhs_values(grid, *s, phi[0], ks[j + 1])
    change = np.multiply(ks[1], 2.0, out=s)  # (dt / 6) (k1 + 2 k2 + 2 k3 + k4)
    change += ks[0]
    change += np.multiply(ks[2], 2.0, out=ks[2])
    change += ks[3]
    change *= dt / 6.0
    state += change

    t_new = t + dt
    _guard_stage(state, t_new)
    norms = _hs_norm_values(grid, state, GUARD_NORM_ORDER)
    if norms.max() > NORM_CEILING:
        raise BlowUpError(BlowUpEvent(t_new, "norm_ceiling", norms.max()))
    return kept, phi, norms


def step(state: EPState, opts: RunOptions) -> EPState:
    """One RK4 step of ``opts.dt``, or of the auto step if it is None. The
    potential is re-solved at every stage.

    Raises :class:`BlowUpError` when a guard trips or a potential solve
    fails.
    """
    dt = opts.dt if opts.dt is not None else default_dt(state)
    grid, values = state.grid, np.array((state.n.values, state.u.values))
    _guard_stage(values[:1], state.t)
    phi = _potential(grid, values[0], opts, None, state.t)[0]
    _step_values(grid, values, state.t, dt, opts, phi, None, np.empty((5, *values.shape)))
    return EPState(state.t + dt, Field(grid, values[0]), Field(grid, values[1]))


def _extrapolation_weights(count: int) -> np.ndarray:
    """Weights, newest value first, that carry a sequence one step on; exact
    for polynomials of degree < count, whose count-th backward difference is 0."""
    return np.array([(-1) ** m * math.comb(count, m + 1) for m in range(count)], float)


def _run_length(state: EPState, opts: RunOptions) -> tuple[float, int, float, int]:
    """A run's dt, full steps, short last step (0.0 if none) and record count.

    A run shorter than one auto step takes one step of its span;
    :class:`RecordAllocationError` if ``span / dt`` overflows, for a given
    or an auto dt.
    """
    span = opts.t_end - state.t
    dt = opts.dt
    if dt is None:
        dt = min(default_dt(state), span) if span > 0.0 else default_dt(state)
    if not np.isfinite(span / dt):  # a given dt reads as given: 1e-320, not 9.99989e-321
        shown = f"dt = {dt}" if opts.dt is not None else f"the auto dt = {dt:g}"
        raise RecordAllocationError(f"t_end / dt overflows at {shown}")
    n_full = int(np.floor(span / dt + 1e-9))
    tail = span - n_full * dt
    tail = tail if tail > 1e-9 * dt else 0.0
    return dt, n_full, tail, -(-(n_full + (tail > 0.0)) // opts.record_every) + 1


def _record_arrays(grid: Grid, opts: RunOptions, records: int, *shapes) -> list:
    """Empty arrays of ``shapes`` for a run's ``records``, one per shape;
    :class:`RecordAllocationError` when they do not fit."""
    try:
        return [np.empty(shape) for shape in shapes]
    except (MemoryError, ValueError) as err:
        count = f"{records:.4g}" if records >= 10 ** 15 else records
        raise RecordAllocationError(
            f"the {count} records of a run to t_end = {opts.t_end:g} on "
            f"{grid.n_points} points do not fit in memory ({err})") from None


def evolve(state: EPState, opts: RunOptions, on_record=None) -> Trajectory:
    """Integrate to ``t_end``, recording every ``record_every``-th step.

    The initial and final states are always recorded. Without ``on_record``
    all records are kept, in stacks sized for the whole run up front
    (:class:`RecordAllocationError` if they do not fit). Else only the last
    is kept, and each goes to ``on_record(t, n, u, phi, h2_norms)`` once its
    potential is solved: views valid only during the call, ``phi`` None for
    the limit flow or a failed solve, and the guard's (n, u) ``H^2`` norms.
    The steps advance one state in place, with work arrays allocated once
    per run. For ``eps > 0`` the potential of every state is solved once,
    warm-started from the last stage of the step that reached it; it
    serves as the first stage of the next step and is recorded with
    recorded states. Stage j = 2, 3, 4 starts from it plus the
    extrapolation of its own last ``HISTORY_ORDER`` full-step differences
    ``phi_j - phi``, smooth in the step index at fixed dt; in the first
    step, with no history yet, it starts from the stage before it. The
    history must be clean to round-off: the weights (4, -6, 4, -1) amplify
    an error in it up to 15 times. A stage guess that passes ``tol`` with
    no Newton step still carries an error near ``tol``, so recording it
    as it is fed that error forward, and the guesses settled at about
    three times ``tol``, each paying a Newton step. So each stage records
    its solution plus one preconditioned Richardson correction, while the
    step itself uses the verified solution. The state's potential is not
    extrapolated: one Newton step from stage 4's keeps it near round-off,
    not just under ``tol``, and it is the reference of every stage
    difference. Potentials ride along as (values, band coefficients)
    pairs, and the history holds band coefficients only. On blow-up the
    records end at the last one and are returned with the event attached
    instead of propagating the error.
    """
    t_start = time.perf_counter()
    grid = state.grid
    dt, n_full, tail, records = _run_length(state, opts)
    total_steps = n_full + (tail > 0.0)
    kept = records if on_record is None else 1  # every record, or the last
    times, stacks = _record_arrays(grid, opts, records, kept,
                                   (3 if opts.eps > 0.0 else 2, kept, grid.n_points))

    values = np.array((state.n.values, state.u.values))
    work = np.empty((5, *values.shape))
    with np.errstate(over="ignore", invalid="ignore"):  # a huge state trips step 1
        norms = _hs_norm_values(grid, values, GUARD_NORM_ORDER)
    t0, phi, blowup = state.t, None, None
    # stage differences phi_j - phi of the last steps, newest first, in band
    # coefficients for the full flow; ahead extrapolates them
    history = ahead = None
    if opts.eps > 0.0:
        history = np.empty((HISTORY_ORDER, 3, np.count_nonzero(grid.keep)), complex)
        ahead = np.empty(history.shape[1:], complex)
    tables = [_extrapolation_weights(c)[:, None, None] for c in range(HISTORY_ORDER + 1)]
    filled = rows = phi_rows = 0
    for i in range(total_steps + 1):
        if i > 0:
            step_dt = dt if i <= n_full else tail
            if filled:
                # a difference is O(dt), so the short last step scales it;
                # each sum is 0 + w_0 h_0 + w_1 h_1 + ..., in that order
                weights = (step_dt / dt) * tables[filled]
                np.add.reduce(weights * history[:filled], axis=0, out=ahead, initial=0.0)
            try:
                if i == 1:  # each step guards the state it makes
                    _guard_stage(values[:1], t0)
                # only the last step is short: each starts at a whole number of dt
                stages, last, norms = _step_values(
                    grid, values, t0 + (i - 1) * dt, step_dt, opts, phi,
                    ahead if filled else None, work)
            except BlowUpError as err:
                blowup = err.event
                break
            if opts.eps > 0.0:
                history[1:] = history[:-1]
                np.subtract(stages, phi[1], out=history[0])
                filled = min(filled + 1, HISTORY_ORDER)
            phi = last  # freed when the state's potential replaces it
        t_now = opts.t_end if i == total_steps and i > 0 else t0 + i * dt
        try:
            phi = _potential(grid, values[0], opts, phi, t_now)[0]
        except BlowUpError as err:  # the record goes out without a potential
            phi, blowup = None, err.event
        if i % opts.record_every == 0 or i == total_steps:
            row = rows % kept
            times[row], stacks[:2, row] = t_now, values
            rows += 1
            if opts.eps > 0.0 and phi is not None:
                stacks[2, row] = phi[0]
                phi_rows = rows
            if on_record is not None:
                on_record(t_now, stacks[0, row], stacks[1, row],
                          stacks[2, row] if phi_rows == rows else None, norms)
        if blowup is not None:
            break

    times.flags.writeable = stacks.flags.writeable = False
    shown = min(rows, kept)  # the last of them lacks a potential if its solve failed
    return Trajectory(eps=opts.eps, dt=dt, grid=grid, t=times[:shown],
                      n=stacks[0, :shown], u=stacks[1, :shown],
                      phi=stacks[2, :shown - rows + phi_rows] if opts.eps > 0.0 else None,
                      blowup=blowup, wall_time=time.perf_counter() - t_start)


def _quasineutral_values(grid: Grid, n: np.ndarray, phi: np.ndarray):
    """L2 gap ||exp(phi) - n||; zero by construction for the limit flow."""
    return _l2_values(grid, np.exp(phi) - n)


class TrajectoryTable:
    """An ``on_record`` consumer for ``evolve`` that reduces each record to
    one row of ``COLUMNS``, in an ``(R, 7)`` table sized before any step.

    At ``s = GUARD_NORM_ORDER`` the norms are the guard's and nothing is
    transformed; another order transforms the (n, u) pair in one call. The
    gap is 0 for the limit flow and NaN where the potential solve failed.
    """

    COLUMNS = "t,norm_n_Hs,norm_u_Hs,mass,min_n,max_n,quasineutral_residual"

    def __init__(self, state: EPState, opts: RunOptions, s: int):
        _check_order(s, MAX_SOBOLEV_ORDER, "Sobolev order")
        self.grid, self.eps, self.s, self.rows = state.grid, opts.eps, s, 0
        records = _run_length(state, opts)[3]
        (self.table,) = _record_arrays(self.grid, opts, records, (records, 7))

    def __call__(self, t, n, u, phi, norms):  # norms: the guard's H^2 ones
        grid = self.grid
        if self.s != GUARD_NORM_ORDER:
            with np.errstate(over="ignore", invalid="ignore"):  # a huge state ends its run
                norms = _hs_norm_values(grid, np.array((n, u)), self.s)
        gap = (0.0 if self.eps == 0.0 else np.nan if phi is None
               else _quasineutral_values(grid, n, phi))
        self.table[self.rows] = (t, *norms, _integral_values(grid, n), n.min(),
                                 n.max(), gap)
        self.rows += 1

    def write_csv(self, path) -> None:
        write_csv(path, self.COLUMNS, self.table[:self.rows].tolist())


def write_snapshot_csv(traj: Trajectory, path) -> None:
    """Write the last record to ``path``, with its potential if it has one."""
    columns = [traj.grid.x, traj.n[-1], traj.u[-1]]
    header = "x,n,u"
    if traj.phi is not None and len(traj.phi) == len(traj.t):
        columns.append(traj.phi[-1])
        header += ",phi"
    write_csv(path, header, zip(*(col.tolist() for col in columns)))
