"""Time integration of the full and limit flows.

Physics cross-checks (dispersion, Richardson order) come before the
bookkeeping tests since they validate the actual dynamics.
"""

import numpy as np
import pytest

from debye_limit import flows
from debye_limit.flows import (
    BlowUpError,
    EPState,
    LimitState,
    RunOptions,
    Trajectory,
    default_dt,
    evolve,
    mass,
    quasineutral_residual,
    rhs_ep,
    rhs_limit,
    step,
    write_snapshot_csv,
    write_trajectory_csv,
)
from debye_limit.grid import Field, Grid, hs_norm, l2_norm, max_abs
from debye_limit.initial import InitParams, make_initial
from debye_limit.poisson import (
    PBConvergenceError,
    PBSolveOptions,
    pb_residual,
    solve_phi,
)


def paired_states(grid, params=None):
    n, u = make_initial(params or InitParams(), grid)
    return EPState(0.0, n, u), LimitState(0.0, n, u)


def mode_coefficient(values, m):
    # amplitude of sin(2 pi m x), the mode the dispersion tests excite
    return -2.0 * np.imag(np.fft.rfft(values))[m] / len(values)


def test_linear_dispersion_of_limit_flow():
    # linearized limit system: acoustic waves with omega = k, so a
    # standing mode-1 density wave crosses zero at t = pi/omega/2 ...
    # track the full period instead: n1(t) ~ cos(2 pi t) for unit speed
    grid = Grid(64)
    n = Field.from_function(grid, lambda x: 1.0 + 1e-6 * np.sin(2 * np.pi * x))
    u = Field(grid, np.zeros(64))
    opts = RunOptions(dt=1e-3, t_end=0.3, eps=0.0, record_every=1)
    traj = evolve(LimitState(0.0, n, u), opts)
    coeffs = [mode_coefficient(s.n.values - 1.0, 1) for s in traj.states]
    times = traj.times
    # first zero crossing of cos(2 pi t) sits at t = 0.25
    sign = np.sign(coeffs)
    idx = np.argmax(sign != sign[0])
    lo, hi = times[idx - 1], times[idx]
    c0, c1 = coeffs[idx - 1], coeffs[idx]
    crossing = lo + (hi - lo) * (-c0) / (c1 - c0)
    omega = 2 * np.pi * 0.25 / crossing
    assert abs(omega - 2 * np.pi) < 0.01 * 2 * np.pi


def test_full_flow_dispersion_shift():
    # ion acoustic branch: omega^2 = k^2/(1 + eps k^2); at eps = 1e-2 and
    # k = 2 pi the period stretches by sqrt(1 + eps k^2) ~ 1.18
    grid = Grid(64)
    n = Field.from_function(grid, lambda x: 1.0 + 1e-6 * np.sin(2 * np.pi * x))
    u = Field(grid, np.zeros(64))
    eps = 1e-2
    opts = RunOptions(dt=1e-3, t_end=0.4, eps=eps, record_every=1)
    traj = evolve(EPState(0.0, n, u), opts)
    coeffs = [mode_coefficient(s.n.values - 1.0, 1) for s in traj.states]
    times = traj.times
    sign = np.sign(coeffs)
    idx = np.argmax(sign != sign[0])
    lo, hi = times[idx - 1], times[idx]
    c0, c1 = coeffs[idx - 1], coeffs[idx]
    crossing = lo + (hi - lo) * (-c0) / (c1 - c0)
    omega = 2 * np.pi * 0.25 / crossing
    k = 2 * np.pi
    want = k / np.sqrt(1.0 + eps * k * k)
    assert abs(omega - want) < 0.01 * want


@pytest.mark.parametrize("eps", [0.0, 1e-2])
def test_rk4_richardson_order(eps):
    grid = Grid(64)
    state = (EPState if eps > 0 else LimitState)(
        0.0, *make_initial(InitParams(), grid))
    finals = {}
    for dt in (0.01, 0.005, 0.00125):
        opts = RunOptions(dt=dt, t_end=0.1, eps=eps, record_every=10 ** 9)
        finals[dt] = evolve(state, opts).final
    ref = finals[0.00125]
    e_coarse = max_abs(Field(grid, finals[0.01].n.values - ref.n.values))
    e_fine = max_abs(Field(grid, finals[0.005].n.values - ref.n.values))
    ratio = e_coarse / e_fine
    # fourth order gives 16 with the reference-offset correction factor
    assert 11.0 < ratio < 21.0


def test_mass_conservation_exact():
    grid = Grid(64)
    ep, lim = paired_states(grid)
    for state, eps in ((ep, 1e-2), (lim, 0.0)):
        opts = RunOptions(dt=5e-4, t_end=0.5, eps=eps, record_every=10 ** 9)
        traj = evolve(state, opts)
        drift = abs(mass(traj.final.n) - mass(state.n))
        assert drift < 1e-13


def test_constant_state_is_equilibrium():
    grid = Grid(32)
    n = Field(grid, np.full(32, 1.3))
    u = Field(grid, np.zeros(32))
    for cls, eps in ((EPState, 1e-2), (LimitState, 0.0)):
        state = cls(0.0, n, u)
        opts = RunOptions(dt=1e-3, t_end=0.0, eps=eps)
        nxt = step(state, opts, dt=1e-3)
        assert max_abs(Field(grid, nxt.n.values - n.values)) < 1e-12
        assert max_abs(nxt.u) < 1e-12


def test_time_reversibility():
    # both systems are invariant under (t, u) -> (-t, -u); march out,
    # flip, march back, compare
    grid = Grid(64)
    ep, _ = paired_states(grid)
    opts = RunOptions(dt=1e-4, t_end=0.01, eps=1e-2, record_every=10 ** 9)
    fwd = evolve(ep, opts).final
    flipped = EPState(0.0, fwd.n, Field(grid, -fwd.u.values))
    back = evolve(flipped, opts).final
    assert max_abs(Field(grid, back.n.values - ep.n.values)) < 1e-8
    assert max_abs(Field(grid, back.u.values + ep.u.values)) < 1e-8


def test_rhs_limit_matches_ep_composition():
    # du in the full flow uses the solved potential; for eps -> 0 it must
    # approach the limit rhs
    grid = Grid(64)
    ep, lim = paired_states(grid)
    dn_lim, du_lim = rhs_limit(lim)
    dn_ep, du_ep = rhs_ep(ep, 1e-8)
    assert max_abs(Field(grid, dn_ep.values - dn_lim.values)) < 1e-6
    assert max_abs(Field(grid, du_ep.values - du_lim.values)) < 1e-6


def test_density_floor_guard():
    grid = Grid(64)
    ep, _ = paired_states(grid)
    opts = RunOptions(dt=1e-3, t_end=1.0, eps=1e-2, density_floor=0.95)
    with pytest.raises(BlowUpError) as info:
        step(ep, opts)
    assert info.value.event.reason == "density_floor"


def test_norm_ceiling_guard():
    grid = Grid(64)
    ep, _ = paired_states(grid)
    opts = RunOptions(dt=1e-3, t_end=1.0, eps=1e-2, norm_ceiling=1e-3)
    with pytest.raises(BlowUpError) as info:
        step(ep, opts)
    assert info.value.event.reason == "norm_ceiling"


def test_evolve_returns_partial_trajectory_on_blowup():
    grid = Grid(64)
    ep, _ = paired_states(grid)
    opts = RunOptions(dt=1e-3, t_end=1.0, eps=1e-2, density_floor=0.95,
                      record_every=1)
    traj = evolve(ep, opts)
    assert traj.blowup is not None
    assert traj.blowup.reason == "density_floor"
    assert traj.final.t < 1.0


def test_record_schedule():
    grid = Grid(32)
    _, lim = paired_states(grid)
    opts = RunOptions(dt=0.01, t_end=0.1, eps=0.0, record_every=3)
    traj = evolve(lim, opts)
    # records at steps 0, 3, 6, 9 and the final state
    assert np.allclose(traj.times, [0.0, 0.03, 0.06, 0.09, 0.1])


def test_t_end_zero_records_initial_state_only():
    grid = Grid(32)
    _, lim = paired_states(grid)
    traj = evolve(lim, RunOptions(dt=0.01, t_end=0.0, eps=0.0))
    assert len(traj.states) == 1
    assert traj.final.t == 0.0


def test_default_dt_formula():
    grid = Grid(64)
    ep, _ = paired_states(grid)
    want = 0.25 * grid.dx / (np.max(np.abs(ep.u.values)) + 1.5)
    assert default_dt(ep) == pytest.approx(want, rel=1e-15)


def test_quasineutral_residual_tracks_eps():
    grid = Grid(64)
    ep, _ = paired_states(grid)
    prev = None
    for eps in (1e-2, 1e-3, 1e-4):
        opts = RunOptions(dt=1e-3, t_end=0.05, eps=eps, record_every=10 ** 9)
        traj = evolve(ep, opts)
        r = quasineutral_residual(traj.final, traj.phis[-1])
        if prev is not None:
            assert r < prev
        prev = r


def test_exponential_filter_preserves_mass():
    grid = Grid(64)
    ep, _ = paired_states(grid)
    opts = RunOptions(dt=1e-3, t_end=0.05, eps=1e-2, exp_filter=True,
                      record_every=10 ** 9)
    traj = evolve(ep, opts)
    assert abs(mass(traj.final.n) - mass(ep.n)) < 1e-13


def test_recorded_potentials_match_cold_solves():
    # the potentials ride through the RK stages as warm starts; each one
    # recorded must still be the potential of its own state
    grid = Grid(64)
    ep, _ = paired_states(grid, InitParams(n_amp=0.3))
    opts = RunOptions(dt=1e-3, t_end=0.05, eps=1e-3, record_every=5)
    traj = evolve(ep, opts)
    assert traj.blowup is None
    assert len(traj.phis) == len(traj.states) == 11
    for state, phi in zip(traj.states, traj.phis):
        cold = solve_phi(state.n, opts.eps, opts.pb)
        assert np.max(np.abs(phi.values - cold.phi.values)) <= 1e-12
        residual = l2_norm(pb_residual(phi, state.n, opts.eps))
        assert residual <= opts.pb.tol


def test_one_potential_solve_per_stage(monkeypatch):
    # four stages per step, and the solve for each recorded state is
    # reused as the next step's first stage: 4 S + 1 solves in all
    calls = []
    solve = flows._solve_phi_values

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(flows, "_solve_phi_values", counting)
    grid = Grid(32)
    ep, _ = paired_states(grid)
    steps = 7
    for record_every in (1, 3):
        calls.clear()
        opts = RunOptions(dt=1e-3, t_end=steps * 1e-3, eps=1e-2,
                          record_every=record_every)
        evolve(ep, opts)
        assert len(calls) == 4 * steps + 1


@pytest.mark.parametrize("failing_call, n_states, n_phis, t_event", [
    (14, 4, 4, 3.5e-3),  # a stage of step 4: the run ends at step 3's state
    (17, 5, 4, 4e-3),  # step 4's state: kept, without its potential
])
def test_pb_failure_ends_run_with_partial_trajectory(
        monkeypatch, failing_call, n_states, n_phis, t_event):
    # solves 1 + 4 k cover the initial state and k steps
    calls = []
    solve = flows._solve_phi_values

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == failing_call:
            raise PBConvergenceError("forced", 1.5e-3)
        return solve(*args, **kwargs)

    monkeypatch.setattr(flows, "_solve_phi_values", failing)
    grid = Grid(32)
    ep, _ = paired_states(grid)
    traj = evolve(ep, RunOptions(dt=1e-3, t_end=0.01, eps=1e-2,
                                 record_every=1))
    assert traj.blowup.reason == "pb_divergence"
    assert traj.blowup.value == 1.5e-3
    assert traj.blowup.step_index == 4
    assert traj.blowup.t == pytest.approx(t_event)
    assert len(traj.states) == n_states and len(traj.phis) == n_phis
    assert (traj.final_phi is None) == (n_phis < n_states)


def test_pb_failure_at_the_initial_state():
    grid = Grid(64)
    ep, _ = paired_states(grid)
    opts = RunOptions(dt=1e-3, t_end=0.01, eps=1e-2,
                      pb=PBSolveOptions(max_newton_iters=1))
    traj = evolve(ep, opts)
    assert traj.blowup.reason == "pb_divergence"
    assert traj.blowup.step_index == 0
    assert traj.states == [ep] and traj.phis == []
    assert traj.final_phi is None


def test_state_validation():
    grid = Grid(32)
    n = Field(grid, np.ones(32))
    u = Field(grid, np.zeros(32))
    with pytest.raises(ValueError):
        EPState(0.0, Field(grid, np.full(32, -1.0)), u)
    other = Grid(64)
    with pytest.raises(ValueError):
        EPState(0.0, n, Field(other, np.zeros(64)))


def test_run_options_validation():
    with pytest.raises(ValueError):
        RunOptions(dt=-1e-3)
    with pytest.raises(ValueError):
        RunOptions(dt=0.2, t_end=0.1)
    with pytest.raises(ValueError):
        RunOptions(t_end=-1.0)
    with pytest.raises(ValueError):
        RunOptions(eps=-1e-3)
    with pytest.raises(ValueError):
        RunOptions(record_every=0)


def test_trajectory_csv_schema(tmp_path):
    grid = Grid(32)
    ep, _ = paired_states(grid)
    opts = RunOptions(dt=1e-3, t_end=0.01, eps=1e-2, record_every=5)
    traj = evolve(ep, opts)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,norm_n_Hs,norm_u_Hs,mass,min_n,max_n,quasineutral_residual"
    assert len(lines) == 1 + len(traj.states)
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[3] == pytest.approx(mass(ep.n), rel=1e-15)


def test_snapshot_csv_schema(tmp_path):
    grid = Grid(32)
    ep, _ = paired_states(grid)
    opts = RunOptions(dt=1e-3, t_end=0.01, eps=1e-2, record_every=10 ** 9)
    traj = evolve(ep, opts)
    out = write_snapshot_csv(traj.final, "ep", 1e-2, tmp_path,
                             phi=traj.phis[-1])
    text = out.read_text() if hasattr(out, "read_text") else open(out).read()
    header = text.strip().split("\n")[0]
    assert header == "x,n,u,phi"
