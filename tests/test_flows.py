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
    quasineutral_residual,
    rhs_ep,
    rhs_limit,
    step,
    write_snapshot_csv,
    write_trajectory_csv,
)
from debye_limit.grid import (
    Field,
    Grid,
    _hs_norm_values,
    dealias,
    derivative,
    hs_norm,
    integrate,
    l2_norm,
    max_abs,
)
from debye_limit.initial import InitParams, make_initial, random_smooth_field
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
        drift = abs(integrate(traj.final.n) - integrate(state.n))
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


def test_rhs_equals_composed_public_kernels():
    # the fused spectral right-hand side against the public derivative
    # and dealias, on data with modes above the n/3 cutoff (25, 27 of 64)
    # and at Nyquist, where a wrong mask or symbol would show
    grid = Grid(64)
    x, nyq = grid.x, (-1.0) ** np.arange(64)
    n = Field(grid, 1.0 + 0.1 * np.sin(2 * np.pi * x)
              + 0.01 * np.cos(2 * np.pi * 25 * x) + 0.01 * nyq)
    u = Field(grid, 0.1 * np.cos(2 * np.pi * x)
              + 0.01 * np.sin(2 * np.pi * 27 * x) + 0.01 * nyq)

    def composed(phi):
        ux = derivative(u).values
        dn = -derivative(dealias(Field(grid, n.values * u.values))).values
        du = (-dealias(Field(grid, u.values * ux)).values
              - dealias(derivative(phi)).values)
        return dn, du

    eps = 1e-2
    cases = [(rhs_limit(LimitState(0.0, n, u)), Field(grid, np.log(n.values))),
             (rhs_ep(EPState(0.0, n, u), eps), solve_phi(n, eps).phi)]
    for (dn, du), phi in cases:
        want_dn, want_du = composed(phi)
        for got, want in ((dn.values, want_dn), (du.values, want_du)):
            assert np.max(np.abs(want)) > 0.1
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _single_row_rhs(grid, n, u, phi):
    # the right-hand side with one transform call per spectrum: the
    # stacked calls must give these bits exactly
    ik, keep, size = grid.derivative_symbol(1), grid.keep, grid.n_points
    ux = np.fft.irfft(ik * np.fft.rfft(u), size)
    dn = -np.fft.irfft(keep * ik * np.fft.rfft(n * u), size)
    du = -np.fft.irfft(keep * (np.fft.rfft(u * ux) + ik * np.fft.rfft(phi)),
                       size)
    return dn, du


@pytest.mark.parametrize("n_points", [32, 256, 4096])
def test_stacked_rhs_matches_single_row_transforms(n_points):
    # small noise puts energy in every mode, above the cutoff and at
    # Nyquist too; both potentials: the limit's ln n and a PB solve
    grid = Grid(n_points)
    rng = np.random.default_rng(n_points)
    noise = lambda: 1e-3 * rng.standard_normal(n_points)
    n = 1.0 + 0.2 * random_smooth_field(grid, rng).values + noise()
    u = 0.3 * random_smooth_field(grid, rng).values + noise()
    phis = (np.log(n), solve_phi(Field(grid, n), 1e-2).phi.values)
    for phi in phis:
        got = flows._rhs_values(grid, n, u, phi)
        want = _single_row_rhs(grid, n, u, phi)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_rhs_and_limit_step_fft_calls(fft_calls):
    # a right-hand side is 4 transform calls; a limit-flow step is four
    # of them plus one stacked H^2 guard transform of (n, u)
    grid = Grid(64)
    _, lim = paired_states(grid)
    n, u = lim.n.values, lim.u.values
    flows._rhs_values(grid, n, u, np.log(n))
    assert fft_calls == ["rfft", "irfft", "rfft", "irfft"]
    fft_calls.clear()
    flows._step_values(grid, n, u, 0.0, 1e-3, RunOptions(dt=1e-3, eps=0.0), 1)
    assert len(fft_calls) == 17


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


@pytest.mark.parametrize("u_amp", [0.1, 0.5])
def test_norm_ceiling_value_is_the_larger_h2_norm(u_amp):
    # at u_amp 0.1 the density's H^2 norm is the larger, at 0.5 the
    # velocity's; the event carries exactly that single-row norm
    grid = Grid(64)
    ep, _ = paired_states(grid, InitParams(u_amp=u_amp))
    new = step(ep, RunOptions(dt=1e-3, t_end=1.0, eps=1e-2))
    norms = [_hs_norm_values(grid, f.values, 2) for f in (new.n, new.u)]
    assert (norms[1] > norms[0]) == (u_amp > 0.2)
    opts = RunOptions(dt=1e-3, t_end=1.0, eps=1e-2, norm_ceiling=1e-3)
    with pytest.raises(BlowUpError) as info:
        step(ep, opts)
    assert info.value.event.value == max(norms)


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
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            RunOptions(t_end=bad)
    for bad in (-1e-3, float("nan")):
        with pytest.raises(ValueError):
            RunOptions(eps=bad)
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
    assert first[3] == pytest.approx(integrate(ep.n), rel=1e-15)


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
