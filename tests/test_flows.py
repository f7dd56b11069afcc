"""Time integration of the full and limit flows.

Physics cross-checks (dispersion, Richardson order) come before the
bookkeeping tests since they validate the actual dynamics.
"""

from dataclasses import replace

import numpy as np
import pytest

from debye_limit import flows, poisson
from debye_limit.flows import (
    BlowUpError,
    EPState,
    RunOptions,
    TrajectoryTable,
    default_dt,
    evolve,
    rhs_ep,
    rhs_limit,
    step,
    write_snapshot_csv,
)
from debye_limit.grid import (
    Field,
    Grid,
    _derivative_values,
    _hs_norm_values,
    _integral_values,
    _l2_values,
    dealias,
    derivative,
    hs_norm,
)
from debye_limit.initial import InitParams, make_initial, random_smooth_fields
from debye_limit.poisson import PBConvergenceError, PBSolveOptions, solve_phi
from oracles import pb_residual


def paired_states(grid, params=None):
    n, u = make_initial(params or InitParams(), grid)
    state = EPState(0.0, n, u)  # one state starts both flows
    return state, state


def mode_coefficient(values, m):
    # amplitude of sin(2 pi m x), the mode the dispersion tests excite
    return -2.0 * np.imag(np.fft.rfft(values))[m] / len(values)


def test_linear_dispersion_of_limit_flow():
    # linearized limit system: acoustic waves with omega = k, so a
    # standing mode-1 density wave crosses zero at t = pi/omega/2 ...
    # track the full period instead: n1(t) ~ cos(2 pi t) for unit speed
    grid = Grid(64)
    n = Field(grid, 1.0 + 1e-6 * np.sin(2 * np.pi * grid.x))
    u = Field(grid, np.zeros(64))
    opts = RunOptions(dt=1e-3, t_end=0.3, eps=0.0, record_every=1)
    traj = evolve(EPState(0.0, n, u), opts)
    coeffs = [mode_coefficient(row - 1.0, 1) for row in traj.n]
    times = traj.t
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
    n = Field(grid, 1.0 + 1e-6 * np.sin(2 * np.pi * grid.x))
    u = Field(grid, np.zeros(64))
    eps = 1e-2
    opts = RunOptions(dt=1e-3, t_end=0.4, eps=eps, record_every=1)
    traj = evolve(EPState(0.0, n, u), opts)
    coeffs = [mode_coefficient(row - 1.0, 1) for row in traj.n]
    times = traj.t
    sign = np.sign(coeffs)
    idx = np.argmax(sign != sign[0])
    lo, hi = times[idx - 1], times[idx]
    c0, c1 = coeffs[idx - 1], coeffs[idx]
    crossing = lo + (hi - lo) * (-c0) / (c1 - c0)
    omega = 2 * np.pi * 0.25 / crossing
    k = 2 * np.pi
    want = k / np.sqrt(1.0 + eps * k * k)
    assert abs(omega - want) < 0.01 * want


def _simple_wave(x, t, amp):
    """u solving u = amp sin(2 pi (x - (1 + u) t)) pointwise by Newton: the
    limit flow's simple wave from u0 = amp sin(2 pi x), n0 = exp(u0), exact
    before the breaking time 1 / (2 pi amp)."""
    u = amp * np.sin(2 * np.pi * x)
    for _ in range(30):  # quadratic convergence: round-off within 10
        phase = 2 * np.pi * (x - (1.0 + u) * t)
        u = u - (u - amp * np.sin(phase)) / (1.0 + 2 * np.pi * amp * t * np.cos(phase))
    return u


def test_limit_flow_matches_the_exact_simple_wave():
    # with n0 = exp(u0) the invariant u - ln n stays 0, so u is carried at
    # speed 1 + u (Whitham, Linear and Nonlinear Waves, ch. 6); at a quarter
    # of the breaking time the error is the dt^4 of RK4, 8.5e-11 at N = 128
    # (5.3e-12 at N = 256); a 0.49 for an RK4 stage's 0.5 reads 8.6e-6
    grid, amp = Grid(128), 0.1
    u0 = amp * np.sin(2 * np.pi * grid.x)
    state = EPState(0.0, Field(grid, np.exp(u0)), Field(grid, u0))
    t_end = 0.25 / (2 * np.pi * amp)
    final = evolve(state, RunOptions(t_end=t_end, eps=0.0, record_every=10 ** 9)).final
    assert final.t == t_end
    u = _simple_wave(grid.x, t_end, amp)
    assert np.max(np.abs(final.u.values - u)) < 1e-9
    assert np.max(np.abs(final.n.values - np.exp(u))) < 1e-9


@pytest.mark.parametrize("eps", [0.0, 1e-2])
def test_rk4_richardson_order(eps):
    grid = Grid(64)
    state = EPState(
        0.0, *make_initial(InitParams(), grid))
    finals = {}
    for dt in (0.01, 0.005, 0.00125):
        opts = RunOptions(dt=dt, t_end=0.1, eps=eps, record_every=10 ** 9)
        finals[dt] = evolve(state, opts).final
    ref = finals[0.00125]
    e_coarse = np.max(np.abs(finals[0.01].n.values - ref.n.values))
    e_fine = np.max(np.abs(finals[0.005].n.values - ref.n.values))
    ratio = e_coarse / e_fine
    # fourth order gives 16 with the reference-offset correction factor
    assert 11.0 < ratio < 21.0


def test_mass_conservation_exact():
    grid = Grid(64)
    ep, lim = paired_states(grid)
    for state, eps in ((ep, 1e-2), (lim, 0.0)):
        opts = RunOptions(dt=5e-4, t_end=0.5, eps=eps, record_every=10 ** 9)
        traj = evolve(state, opts)
        drift = abs(_integral_values(grid, traj.final.n.values)
                    - _integral_values(grid, state.n.values))
        assert drift < 1e-13


def test_momentum_conservation_exact():
    # the conservative u equation keeps the integral of u to round-off
    grid = Grid(64)
    ep, lim = paired_states(grid)
    for state, eps in ((ep, 1e-2), (lim, 0.0)):
        opts = RunOptions(dt=5e-4, t_end=0.5, eps=eps, record_every=10 ** 9)
        traj = evolve(state, opts)
        drift = abs(_integral_values(grid, traj.final.u.values)
                    - _integral_values(grid, state.u.values))
        assert drift < 1e-13


def _energy(grid, eps, n, u, phi):
    """Mean over the unit torus of the flow's conserved energy density:
    ``n u^2/2 + (phi - 1) e^phi + eps phi_x^2/2`` for the full flow (with
    ``n = e^phi - eps phi_xx``), ``n u^2/2 + n ln n - n`` for the limit flow."""
    if eps == 0.0:
        return np.mean(n * u * u / 2 + n * np.log(n) - n)
    phi_x = _derivative_values(grid, phi, 1)
    return np.mean(n * u * u / 2 + (phi - 1) * np.exp(phi) + eps * phi_x * phi_x / 2)


@pytest.mark.parametrize("n_points", [64, 128, 256, 1024])
def test_rhs_energy_rate_vanishes_for_any_fields(n_points):
    # the (dn, du) of _rhs_values satisfy mean(dn (u^2/2 + phi) + n u du) = 0
    # for any fields, since its derivative -(keep * ik) is skew-adjoint and
    # commutes with the dealiasing; with phi = ln n (or the PB relation on
    # the band) this is the energy rate that test_energy_is_conserved follows
    # over whole runs. Measured on 50 smooth multi-mode and 50 unfiltered
    # states per grid, at seeds 0 and 5: |rate| / (mean|dn w| + mean|n u du|)
    # <= 1.8e-16; the bound leaves a margin of 50. A u*u flux reads 3e-2 or
    # more on these states, but 3e-17 on the single-mode default data
    grid = Grid(n_points)
    rng = np.random.default_rng(5)
    smooth = random_smooth_fields(grid, rng, 150, 8).reshape(50, 3, n_points)
    unfiltered = rng.standard_normal((50, 3, n_points))
    worst = 0.0
    for n, u, phi in np.concatenate((smooth, unfiltered)):
        dn, du = flows._rhs_values(grid, n, u, phi, np.empty((2, n_points)))
        w = 0.5 * u * u + phi
        rate = np.mean(dn * w + n * u * du)
        worst = max(worst, abs(rate) / (np.mean(np.abs(dn * w))
                                        + np.mean(np.abs(n * u * du))))
    assert worst < 1e-14, worst


@pytest.mark.parametrize("eps", [0.0, 1e-1, 1e-2, 1e-4])
def test_energy_is_conserved(eps):
    # the drift over every record, relative to the fluctuation energy
    # E(0) + 1 (the uniform state at unit density has E = -1). Measured at
    # N = 128 and t_end = 0.1: 3.6e-13 for the limit flow, 7.4e-14, 1.3e-13
    # and 3.1e-13 at eps 1e-1, 1e-2 and 1e-4 (round-off and the PB
    # tolerance, not the time error); the bound leaves a margin of 28 or
    # more. A u^2 flux, an RK4 weight of 1.98, a stage time of 0.49 dt or a
    # limit potential ln n (1 + 1e-4) moves it to 7.8e-8 or more in some flow
    grid = Grid(128)
    energies = []
    evolve(EPState(0.0, *make_initial(InitParams(), grid)), RunOptions(t_end=0.1, eps=eps),
           on_record=lambda t, n, u, phi, norms: energies.append(
               _energy(grid, eps, n, u, phi)))
    assert len(energies) > 80
    drift = np.max(np.abs(np.array(energies) - energies[0])) / (energies[0] + 1.0)
    assert drift < 1e-11, drift


def _interpolant_ranges(v):
    """Per-row (max, min) of the 16x zero-padded trigonometric interpolant
    of the ``(R, N)`` stack ``v``, Nyquist split between its images as in
    ``kato_ponce_sample``."""
    n = v.shape[-1]
    fine = np.zeros((len(v), 8 * n + 1), dtype=complex)
    fine[:, : n // 2 + 1] = np.fft.rfft(v)
    fine[:, n // 2] *= 0.5
    values = np.fft.irfft(fine, n=16 * n) * 16
    return values.max(axis=1), values.min(axis=1)


@pytest.mark.parametrize("amp, resolved", [(0.1, True), (0.3, False)])
def test_limit_flow_keeps_the_ranges_of_its_riemann_invariants(amp, resolved):
    # w = u + ln n and z = u - ln n are carried along characteristics of
    # the limit flow, so while it stays smooth their ranges hold. Measured
    # at N = 128, every record kept: the largest drift of either end from
    # the initial range reads 2.5e-7 (w) and 1.6e-8 (z) for the default
    # data to t = 0.5. On grid samples alone it reads 6.4e-5, sampling
    # error falling as N^-2, so the ends are read on the interpolant. Past
    # resolution the ranges go: amplitude 0.3 reads 7.6e-3 at t = 0.5
    # (8.8e-7 at 0.25). A limit potential ln n (1 + 1e-4) moves z to 1.0e-5.
    grid = Grid(128)
    init = InitParams(n_amp=amp, u_amp=amp)
    traj = evolve(EPState(0.0, *make_initial(init, grid)), RunOptions(t_end=0.5, eps=0.0))
    assert traj.blowup is None and len(traj.t) > 200
    log_n = np.log(traj.n)
    drift = []
    for invariant in (traj.u + log_n, traj.u - log_n):
        top, bottom = _interpolant_ranges(invariant)
        drift.append(max(np.max(np.abs(top - top[0])), np.max(np.abs(bottom - bottom[0]))))
    assert (max(drift) < 1e-6) == resolved, drift


def test_one_state_type_serves_both_flows():
    # eps alone selects the flow: the limit name is the full flow's type,
    # and one state object starts both runs
    assert flows.LimitState is flows.EPState
    grid = Grid(32)
    state, _ = paired_states(grid)
    for eps in (0.0, 1e-2):
        traj = evolve(state, RunOptions(dt=1e-3, t_end=3e-3, eps=eps))
        assert (traj.phi is None) == (eps == 0.0)
        assert traj.phi is None or traj.phi.shape == traj.n.shape
        assert type(traj.final) is EPState


def test_constant_state_is_equilibrium():
    grid = Grid(32)
    n = Field(grid, np.full(32, 1.3))
    u = Field(grid, np.zeros(32))
    state = EPState(0.0, n, u)
    for eps in (1e-2, 0.0):
        opts = RunOptions(dt=1e-3, t_end=0.0, eps=eps)
        nxt = step(state, opts)
        assert np.max(np.abs(nxt.n.values - n.values)) < 1e-12
        assert np.max(np.abs(nxt.u.values)) < 1e-12


def test_time_reversibility():
    # both systems are invariant under (t, u) -> (-t, -u); march out,
    # flip, march back, compare
    grid = Grid(64)
    ep, _ = paired_states(grid)
    opts = RunOptions(dt=1e-4, t_end=0.01, eps=1e-2, record_every=10 ** 9)
    fwd = evolve(ep, opts).final
    flipped = EPState(0.0, fwd.n, Field(grid, -fwd.u.values))
    back = evolve(flipped, opts).final
    assert np.max(np.abs(back.n.values - ep.n.values)) < 1e-8
    assert np.max(np.abs(back.u.values + ep.u.values)) < 1e-8


def test_rhs_limit_matches_ep_composition():
    # du in the full flow uses the solved potential; for eps -> 0 it must
    # approach the limit rhs
    grid = Grid(64)
    ep, lim = paired_states(grid)
    dn_lim, du_lim = rhs_limit(lim)
    dn_ep, du_ep = rhs_ep(ep, 1e-8)
    assert np.max(np.abs(dn_ep.values - dn_lim.values)) < 1e-6
    assert np.max(np.abs(du_ep.values - du_lim.values)) < 1e-6


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
        dn = -derivative(dealias(Field(grid, n.values * u.values))).values
        du = -derivative(dealias(Field(
            grid, u.values * u.values / 2 + phi.values))).values
        return dn, du

    eps = 1e-2
    cases = [(rhs_limit(EPState(0.0, n, u)), Field(grid, np.log(n.values))),
             (rhs_ep(EPState(0.0, n, u), eps), solve_phi(n, eps).phi)]
    for (dn, du), phi in cases:
        want_dn, want_du = composed(phi)
        for got, want in ((dn.values, want_dn), (du.values, want_du)):
            assert np.max(np.abs(want)) > 0.1
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _single_row_rhs(grid, n, u, phi):
    # the right-hand side with one transform call per flux: the stacked
    # calls must give these bits exactly
    symbol = -(grid.keep * grid.derivative_symbol(1))
    dn = np.fft.irfft(symbol * np.fft.rfft(n * u), grid.n_points)
    du = np.fft.irfft(symbol * np.fft.rfft(0.5 * u * u + phi), grid.n_points)
    return dn, du


@pytest.mark.parametrize("n_points", [32, 256, 4096])
def test_stacked_rhs_matches_single_row_transforms(n_points):
    # small noise puts energy in every mode, above the cutoff and at
    # Nyquist too; both potentials: the limit's ln n and a PB solve
    grid = Grid(n_points)
    rng = np.random.default_rng(n_points)
    noise = lambda: 1e-3 * rng.standard_normal(n_points)
    n = 1.0 + 0.2 * random_smooth_fields(grid, rng, 1, 8)[0] + noise()
    u = 0.3 * random_smooth_fields(grid, rng, 1, 8)[0] + noise()
    phis = (np.log(n), solve_phi(Field(grid, n), 1e-2).phi.values)
    for phi in phis:
        got = flows._rhs_values(grid, n, u, phi, np.empty((2, n_points)))
        want = _single_row_rhs(grid, n, u, phi)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_rhs_and_limit_step_fft_calls(fft_calls):
    # a right-hand side is 2 transform calls; a limit-flow step is four
    # of them plus one stacked H^2 guard transform of (n, u)
    grid = Grid(64)
    _, lim = paired_states(grid)
    n, u = lim.n.values, lim.u.values
    flows._rhs_values(grid, n, u, np.log(n), np.empty((2, 64)))
    assert fft_calls == ["rfft", "irfft"]
    fft_calls.clear()
    flows._step_values(grid, np.array((n, u)), 0.0, 1e-3, RunOptions(dt=1e-3, eps=0.0),
                       (np.log(n), None), None, np.empty((5, 2, 64)))
    assert len(fft_calls) == 9


@pytest.mark.parametrize("n_points", [64, 256])
def test_conservative_rhs_equals_advective_form_on_band_limited_data(n_points):
    # the 2/3 rule makes the dealiased (u^2/2)_x and u u_x one operator
    # on a band-limited u, so the conservative right-hand side must equal
    # the advective composition, for the limit's ln n and a PB potential
    grid = Grid(n_points)
    rng = np.random.default_rng(7)
    n = Field(grid, 1.0 + 0.1 * random_smooth_fields(grid, rng, 1, max_mode=8)[0])
    u = Field(grid, 0.1 * random_smooth_fields(grid, rng, 1, max_mode=8)[0])
    eps = 1e-2
    cases = [(rhs_limit(EPState(0.0, n, u)), Field(grid, np.log(n.values))),
             (rhs_ep(EPState(0.0, n, u), eps), solve_phi(n, eps).phi)]
    for (_, du), phi in cases:
        advective = Field(grid, u.values * derivative(u).values)
        want = -dealias(advective).values - dealias(derivative(phi)).values
        assert np.max(np.abs(want)) > 0.1
        assert np.max(np.abs(du.values - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("eps", [0.0, 1e-2])
def test_recorded_states_stay_band_limited(eps):
    # every state a run records keeps its modes above N/3 at round-off:
    # the premise of the conservative form's equivalence above
    grid = Grid(64)
    state = EPState(
        0.0, *make_initial(InitParams(), grid))
    traj = evolve(state, RunOptions(dt=1e-3, t_end=0.05, eps=eps))
    spectra = np.fft.rfft(np.concatenate((traj.n, traj.u)))
    assert len(spectra) == 2 * 51
    assert np.max(np.abs(spectra[:, ~grid.keep])) / grid.n_points <= 1e-14


def _textbook_rk4(state, dt, rhs):
    # classical RK4 row by row from a public right-hand side and Field
    # values, with no stacked state anywhere
    grid = state.grid

    def shifted(c, k):
        return replace(state, n=Field(grid, state.n.values + c * k[0].values),
                       u=Field(grid, state.u.values + c * k[1].values))

    k1 = rhs(state)
    k2 = rhs(shifted(0.5 * dt, k1))
    k3 = rhs(shifted(0.5 * dt, k2))
    k4 = rhs(shifted(dt, k3))
    return [Field(grid, f.values + (dt / 6.0) * (a.values + 2.0 * b.values
                                                 + 2.0 * c.values + d.values))
            for f, a, b, c, d in zip((state.n, state.u), k1, k2, k3, k4)]


def test_stacked_step_matches_textbook_rk4():
    grid = Grid(64)
    ep, lim = paired_states(grid, InitParams(n_amp=0.3, u_amp=0.2))
    dt = 2e-3
    got = step(lim, RunOptions(dt=dt, eps=0.0))
    want_n, want_u = _textbook_rk4(lim, dt, rhs_limit)
    assert np.array_equal(got.n.values, want_n.values)
    assert np.array_equal(got.u.values, want_u.values)
    # the full flow warm-starts its stage solves, so it agrees with cold
    # solves to the PB tolerance
    eps = 1e-2
    got = step(ep, RunOptions(dt=dt, eps=eps))
    want_n, want_u = _textbook_rk4(ep, dt, lambda s: rhs_ep(s, eps))
    assert np.max(np.abs(got.n.values - want_n.values)) < 1e-13
    assert np.max(np.abs(got.u.values - want_u.values)) < 1e-13


def test_density_floor_guard(monkeypatch):
    grid = Grid(64)
    ep, _ = paired_states(grid)
    monkeypatch.setattr(flows, "DENSITY_FLOOR", 0.95)
    with pytest.raises(BlowUpError) as info:
        step(ep, RunOptions(dt=1e-3, t_end=1.0, eps=1e-2))
    assert info.value.event.reason == "density_floor"


def test_norm_ceiling_guard(monkeypatch):
    grid = Grid(64)
    ep, _ = paired_states(grid)
    monkeypatch.setattr(flows, "NORM_CEILING", 1e-3)
    with pytest.raises(BlowUpError) as info:
        step(ep, RunOptions(dt=1e-3, t_end=1.0, eps=1e-2))
    assert info.value.event.reason == "norm_ceiling"


@pytest.mark.parametrize("u_amp", [0.1, 0.5])
def test_norm_ceiling_value_is_the_larger_h2_norm(monkeypatch, u_amp):
    # at u_amp 0.1 the density's H^2 norm is the larger, at 0.5 the
    # velocity's; the event carries exactly that single-row norm
    grid = Grid(64)
    ep, _ = paired_states(grid, InitParams(u_amp=u_amp))
    new = step(ep, RunOptions(dt=1e-3, t_end=1.0, eps=1e-2))
    norms = [_hs_norm_values(grid, f.values, 2) for f in (new.n, new.u)]
    assert (norms[1] > norms[0]) == (u_amp > 0.2)
    monkeypatch.setattr(flows, "NORM_CEILING", 1e-3)
    with pytest.raises(BlowUpError) as info:
        step(ep, RunOptions(dt=1e-3, t_end=1.0, eps=1e-2))
    assert info.value.event.value == max(norms)


@pytest.mark.parametrize("eps", [0.0, 1e-2])
@pytest.mark.parametrize("call, row, t_event", [(8, 1, 0.002), (5, 0, 0.0015)])
def test_non_finite_guard(monkeypatch, eps, call, row, t_event):
    # an inf in one derivative: in the u row of step 2's k4 (call 8) only
    # the end-of-step guard can read it (its H^2 norm is NaN, which passes
    # the ceiling), in the n row of step 2's k1 (call 5) the stage it feeds
    calls, rhs = [], flows._rhs_values

    def planting(*args):
        out = rhs(*args)
        calls.append(1)
        if len(calls) == call:
            out[row, 7] = np.inf
        return out

    monkeypatch.setattr(flows, "_rhs_values", planting)
    state, _ = paired_states(Grid(64))
    traj = evolve(state, RunOptions(dt=1e-3, t_end=0.01, eps=eps))
    assert traj.blowup.reason == "non_finite"
    assert traj.blowup.t == pytest.approx(t_event)
    assert len(traj.t) == 2


def test_evolve_returns_partial_trajectory_on_blowup(monkeypatch):
    grid = Grid(64)
    ep, _ = paired_states(grid)
    monkeypatch.setattr(flows, "DENSITY_FLOOR", 0.95)
    traj = evolve(ep, RunOptions(dt=1e-3, t_end=1.0, eps=1e-2, record_every=1))
    assert traj.blowup is not None
    assert traj.blowup.reason == "density_floor"
    assert traj.final.t < 1.0


def test_record_schedule():
    grid = Grid(32)
    _, lim = paired_states(grid)
    opts = RunOptions(dt=0.01, t_end=0.1, eps=0.0, record_every=3)
    traj = evolve(lim, opts)
    # records at steps 0, 3, 6, 9 and the final state
    assert np.allclose(traj.t, [0.0, 0.03, 0.06, 0.09, 0.1])
    assert traj.n.shape == traj.u.shape == (5, 32) and traj.phi is None


def test_t_end_zero_records_initial_state_only():
    grid = Grid(32)
    _, lim = paired_states(grid)
    traj = evolve(lim, RunOptions(dt=0.01, t_end=0.0, eps=0.0))
    assert len(traj.t) == 1
    assert traj.final.t == 0.0


def test_default_dt_formula():
    grid = Grid(64)
    ep, _ = paired_states(grid)
    want = 0.25 * grid.dx / (np.max(np.abs(ep.u.values)) + 1.5)
    assert default_dt(ep) == pytest.approx(want, rel=1e-15)


def test_auto_dt_is_clamped_to_a_shorter_run():
    # a run shorter than one auto step takes one step of its whole span
    grid = Grid(32)
    _, lim = paired_states(grid)
    t_end = 0.25 * default_dt(lim)
    traj = evolve(lim, RunOptions(t_end=t_end, eps=0.0))
    assert traj.dt == t_end and list(traj.t) == [0.0, t_end]
    assert evolve(lim, RunOptions(t_end=0.0, eps=0.0)).dt == default_dt(lim)


def test_quasineutral_residual_tracks_eps():
    grid = Grid(64)
    ep, _ = paired_states(grid)
    prev = None
    for eps in (1e-2, 1e-3, 1e-4):
        opts = RunOptions(dt=1e-3, t_end=0.05, eps=eps, record_every=10 ** 9)
        traj = evolve(ep, opts)
        r = flows._quasineutral_values(grid, traj.n[-1], traj.phi[-1])
        if prev is not None:
            assert r < prev
        prev = r


def test_recorded_potentials_match_cold_solves():
    # the potentials ride through the RK stages as extrapolated guesses;
    # each one recorded must still be the potential of its own state, at
    # the default amplitude and at larger ones. The cold reference is
    # solved to 1e-14: one solved to the run's 1e-12 can stop just under
    # tol and sit 5e-12 from the converged potential at n_amp = 0.6
    grid = Grid(64)
    opts = RunOptions(dt=1e-3, t_end=0.05, eps=1e-3, record_every=5)
    reference = PBSolveOptions(tol=1e-14)
    for n_amp in (0.1, 0.3, 0.6):
        ep, _ = paired_states(grid, InitParams(n_amp=n_amp))
        traj = evolve(ep, opts)
        assert traj.blowup is None
        assert traj.phi.shape == traj.n.shape == (11, 64)
        for n, phi in zip(traj.n, traj.phi):
            cold = solve_phi(Field(grid, n), opts.eps, reference)
            assert np.max(np.abs(phi - cold.phi.values)) <= 1e-12
            residual = _l2_values(grid, pb_residual(grid, phi, n, opts.eps))
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


@pytest.mark.parametrize("count", range(1, 7))
def test_extrapolation_weights_reproduce_polynomials(count):
    # the weights carry the last count values of a polynomial sequence
    # one step ahead exactly up to degree count - 1, and no further
    weights = flows._extrapolation_weights(count)
    rng = np.random.default_rng(count)
    back = -np.arange(1.0, count + 1)  # the history, newest first
    for degree in range(count + 1):
        poly = np.polynomial.Polynomial(rng.integers(-9, 10, degree + 1))
        predicted = weights @ poly(back)
        if degree < count:
            assert predicted == poly(0.0)
        elif poly.coef[-1] != 0:
            assert predicted != poly(0.0)
    assert np.abs(weights).sum() == 2 ** count - 1


def _warm_run(eps, n_amp=0.1):
    # 20 steps of 1e-3 and a tail step of 5e-4 at N = 64; solves run in
    # the order initial state, then per step stages 2-4 and the new state
    grid = Grid(64)
    ep, _ = paired_states(grid, InitParams(n_amp=n_amp))
    traj = evolve(ep, RunOptions(dt=1e-3, t_end=0.0205, eps=eps, record_every=5))
    assert traj.blowup is None


# CG totals with the previous hand-made stage guesses (linear in time
# for stage 2, stage 2's potential for stage 3, 2 phi_3 - phi for stage
# 4) were 374 and 481; the cg_max bounds are those totals. At eps = 1e-4
# the potential rings at the plasma frequency 1 / sqrt(eps) = 100, so
# with omega dt = 0.1 the 4-step history leaves every guess above tol in
# this short run and its gain shows in CG alone.
@pytest.mark.parametrize("eps, cg_max, min_zero_steps", [(1e-2, 374, 1),
                                                          (1e-4, 481, 0)])
def test_stage_history_cuts_warm_solve_work(pb_counts, eps, cg_max, min_zero_steps):
    _warm_run(eps)
    steps = 21
    assert len(pb_counts) == 4 * steps + 1
    newton = [count for count, _ in pb_counts]
    # no warm solve takes more than two Newton steps, and once a full
    # history of HISTORY_ORDER steps exists none takes more than one,
    # the short tail step included
    assert max(newton[1:]) <= 2
    full = 1 + 4 * flows.HISTORY_ORDER
    assert max(newton[full:]) == 1
    assert newton.count(0) >= min_zero_steps
    assert sum(cg for _, cg in pb_counts) <= cg_max


def test_stage_history_at_large_amplitude(pb_counts):
    # with the hand-made stage guesses stages 2 and 3 took two Newton
    # steps in every step here: 129 Newton steps and 1,483 CG iterations
    _warm_run(1e-4, n_amp=0.6)
    newton = [count for count, _ in pb_counts]
    assert max(newton[1:]) <= 2
    # the short tail step (the last 4 solves) scales the full-step
    # differences to its size, which is exact to first order only
    assert max(newton[1 + 4 * flows.HISTORY_ORDER:-4]) == 1
    assert sum(newton) <= 100
    assert sum(cg for _, cg in pb_counts) <= 1000


# Stage solves that take a Newton step in steps 6-40 (105 stage solves)
# at dt = 2.5e-4. Each stage solution is recorded with one
# preconditioned Richardson correction, which keeps the history clean
# to round-off: this reads 0, 0 and 22; recording the accepted guesses as
# they were read 78 at each eps, every guess settling near 3 tol.
@pytest.mark.parametrize("eps, most", [(1e-1, 10), (1e-2, 10), (1e-4, 35)])
def test_stage_history_keeps_steady_stage_solves_step_free(pb_counts, eps, most):
    grid = Grid(64)
    ep, _ = paired_states(grid)
    steps, dt = 40, 2.5e-4
    traj = evolve(ep, RunOptions(dt=dt, t_end=steps * dt, eps=eps, record_every=10))
    assert traj.blowup is None
    assert len(pb_counts) == 4 * steps + 1
    newton = np.array([count for count, _ in pb_counts[1:]]).reshape(steps, 4)
    assert np.count_nonzero(newton[5:, :3]) <= most
    # the potential of every state takes one step from stage 4's
    assert set(newton[:, 3]) == {1}


def test_stage_history_changes_work_not_results():
    # the public step() has no history, so each stage starts from the
    # potential of the stage before it; both paths solve each stage to
    # tol, and the states they reach agree to the Newton tolerance (3e-15)
    grid = Grid(64)
    ep, _ = paired_states(grid, InitParams(n_amp=0.3))
    opts = RunOptions(dt=1e-3, t_end=0.0205, eps=1e-3, record_every=5)
    traj = evolve(ep, opts)
    state = ep
    for dt in [1e-3] * 20 + [5e-4]:
        state = step(state, replace(opts, dt=dt))
    assert state.t == pytest.approx(traj.t[-1])
    assert np.max(np.abs(state.n.values - traj.n[-1])) <= 1e-12
    assert np.max(np.abs(state.u.values - traj.u[-1])) <= 1e-12


def test_run_carries_potentials_with_their_band_coefficients(monkeypatch,
                                                             fft_calls):
    # every guess a run passes, extrapolated or not, is a (values,
    # coefficients) pair, so a warm solve transforms no guess: it makes
    # 1 transform call for its first residual and 2 per Newton step and
    # per CG iteration, so 3 + 2 k for one step of k CG iterations, not
    # the 5 + 2 k of a projected guess. The corrected coefficients a
    # stage history keeps cost none. Each step adds 2 calls per right-hand
    # side and 1 for the guard's norms, and a step that has a history adds
    # one stacked call for the values of its three stage guesses, each
    # row the bits of a single inverse transform.
    solves, guesses = [], []
    real = flows._solve_phi_values

    def counting(grid, n, eps, opts, guess=None):
        before = len(fft_calls)
        out = real(grid, n, eps, opts, guess)
        solves.append((len(fft_calls) - before, out[2], out[3]))
        guesses.append(guess)
        return out

    monkeypatch.setattr(flows, "_solve_phi_values", counting)
    _warm_run(1e-2)
    steps = 21
    assert len(solves) == 4 * steps + 1
    total = len(fft_calls)
    cold, *warm = solves  # past the cold solve, 4 per step: stages 2-4, the state
    assert cold[0] == 3 + 2 * cold[1] + 2 * cold[2]  # 2 to project ln n
    assert {0, 1, 2} <= {newton for _, newton, _ in warm}
    for calls, newton, cg in warm:
        assert calls == 1 + 2 * newton + 2 * cg
    # the first step has no history: its stages chain from the stage before
    assert total == 1 + sum(calls for calls, _, _ in solves) + 9 * steps + steps - 1
    for values, coeffs in guesses[1:]:
        assert np.array_equal(values, np.fft.irfft(coeffs, 64))


def test_large_amplitude_run_ends_at_the_density_floor():
    # extrapolated guesses far from a steepening solution must not turn
    # the density-floor blow-up into a failed potential solve
    grid = Grid(64)
    ep, _ = paired_states(grid, InitParams(n_amp=0.9, u_amp=0.9))
    traj = evolve(ep, RunOptions(t_end=0.5, eps=1e-2, record_every=10))
    assert traj.blowup is not None
    assert traj.blowup.reason == "density_floor"
    assert len(traj.phi) == len(traj.t)


@pytest.mark.parametrize("failing_call, n_states, n_phis, t_event", [
    (14, 4, 4, 3.5e-3),  # a stage of step 4: the run ends at step 3's state
    (17, 5, 4, 4e-3),  # step 4's state: kept, without its potential
])
def test_pb_failure_ends_run_with_partial_trajectory(
        monkeypatch, tmp_path, failing_call, n_states, n_phis, t_event):
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
    assert traj.blowup.t == pytest.approx(t_event)
    assert traj.n.shape == traj.u.shape == (n_states, 32)
    assert traj.phi.shape == (n_phis, 32)
    # the last row is the snapshot; it has a potential only if one was solved
    write_snapshot_csv(traj, tmp_path / "snap.csv")
    header = (tmp_path / "snap.csv").read_text().split("\n")[0]
    assert header == ("x,n,u,phi" if n_phis == n_states else "x,n,u")


def test_pb_failure_at_the_initial_state(monkeypatch, tmp_path):
    grid = Grid(64)
    ep, _ = paired_states(grid)
    monkeypatch.setattr(poisson, "MAX_NEWTON_ITERS", 1)
    traj = evolve(ep, RunOptions(dt=1e-3, t_end=0.01, eps=1e-2))
    assert traj.blowup.reason == "pb_divergence"
    assert traj.blowup.t == 0.0
    assert traj.t.tolist() == [0.0] and traj.phi.shape == (0, 64)
    assert np.array_equal(traj.n, [ep.n.values])
    assert np.array_equal(traj.u, [ep.u.values])
    write_snapshot_csv(traj, tmp_path / "snap.csv")
    header = (tmp_path / "snap.csv").read_text().split("\n")[0]
    assert header == "x,n,u"


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
    table = TrajectoryTable(ep, opts, 2)
    traj = evolve(ep, opts, on_record=table)
    path = tmp_path / "traj.csv"
    table.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,norm_n_Hs,norm_u_Hs,mass,min_n,max_n,quasineutral_residual"
    assert len(lines) == 1 + 3  # t = 0, 0.005 and 0.01
    # a streamed run keeps only its last record
    assert traj.t.tolist() == [0.01] and traj.n.shape == traj.phi.shape == (1, 32)
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    # the initial record's (n, u) norms, formed by evolve in one transform
    # call, have the bits of the single-field norms
    assert first[1:3] == [hs_norm(ep.n, 2), hs_norm(ep.u, 2)]
    assert first[3] == pytest.approx(_integral_values(grid, ep.n.values), rel=1e-15)


def _streamed(state, opts):
    """Copies of the records ``evolve`` streams, and the trajectory it returns."""
    records = []

    def keep(t, n, u, phi, norms):
        records.append((t, n.copy(), u.copy(), None if phi is None else phi.copy(),
                        norms.copy()))

    return records, evolve(state, opts, on_record=keep)


def _recorded_runs():
    # both flows, and a run cut short at the density floor
    grid = Grid(64)
    ep, lim = paired_states(grid, InitParams(n_amp=0.3, u_amp=0.2))
    steep, _ = paired_states(grid, InitParams(n_amp=0.9, u_amp=0.9))
    return [(lim, RunOptions(dt=1e-3, t_end=0.02, eps=0.0, record_every=3)),
            (ep, RunOptions(dt=1e-3, t_end=0.02, eps=1e-2, record_every=3)),
            (steep, RunOptions(t_end=0.5, eps=1e-2, record_every=10))]


def test_streamed_records_are_the_kept_records():
    for state, opts in _recorded_runs():
        kept = evolve(state, opts)
        records, traj = _streamed(state, opts)
        assert [r[0] for r in records] == kept.t.tolist()
        for i, (t, n, u, phi, _) in enumerate(records):
            assert np.array_equal(n, kept.n[i]) and np.array_equal(u, kept.u[i])
            if kept.phi is None:
                assert phi is None
            else:
                assert np.array_equal(phi, kept.phi[i])
        # the trajectory keeps the last record, as the kept run's last row
        assert traj.blowup == kept.blowup and traj.dt == kept.dt
        assert traj.t.tolist() == kept.t[-1:].tolist()
        assert np.array_equal(traj.n, kept.n[-1:]) and np.array_equal(traj.u, kept.u[-1:])
        assert (traj.phi is None) == (kept.phi is None)
        if kept.phi is not None:
            assert np.array_equal(traj.phi, kept.phi[-1:])
        for arr in (traj.t, traj.n, traj.u):
            assert not arr.flags.writeable


def test_streamed_h2_norms_are_the_guards_norms():
    runs = [_streamed(*run) for run in _recorded_runs()]
    blowup = runs[2][1].blowup
    assert blowup.reason == "density_floor" and len(runs[2][0]) > 3
    for records, traj in runs:
        grid = traj.grid
        for _, n, u, _, norms in records:
            fields = Field(grid, n), Field(grid, u)
            assert norms.shape == (2,)
            assert norms.tolist() == [hs_norm(f, 2) for f in fields]
            # an oracle that takes no Parseval sum
            want = [np.sqrt(sum(_l2_values(grid, derivative(f, a).values) ** 2
                                for a in range(3)))
                    for f in fields]
            assert np.allclose(norms, want, rtol=1e-12, atol=0.0)


def test_trajectory_table_reads_the_guards_norms(tmp_path, fft_calls):
    for state, opts in _recorded_runs():
        records, _ = _streamed(state, opts)
        h2_table, h3_table = TrajectoryTable(state, opts, 2), TrajectoryTable(state, opts, 3)
        fft_calls.clear()
        for record in records:
            h2_table(*record)
        assert fft_calls == []
        for record in records:
            h3_table(*record)
        h2_table.write_csv(tmp_path / "h2.csv")
        h3_table.write_csv(tmp_path / "h3.csv")
        got = np.loadtxt(tmp_path / "h3.csv", delimiter=",", skiprows=1, ndmin=2)
        want = [[hs_norm(Field(state.grid, f), 3) for f in (n, u)]
                for _, n, u, _, _ in records]
        assert got[:, 1:3].tolist() == want
        # the H^2 and H^3 files differ only in the norm columns
        h2 = np.loadtxt(tmp_path / "h2.csv", delimiter=",", skiprows=1, ndmin=2)
        assert h2[:, 1:3].tolist() == [r[4].tolist() for r in records]
        assert np.array_equal(np.delete(h2, [1, 2], axis=1),
                              np.delete(got, [1, 2], axis=1), equal_nan=True)


def test_results_do_not_alias_work_arrays():
    # later steps and runs on the same grid leave earlier results alone
    grid = Grid(64)
    ep, lim = paired_states(grid, InitParams(n_amp=0.3, u_amp=0.2))
    arrays = []
    for state, eps in ((lim, 0.0), (ep, 1e-2)):
        opts = RunOptions(dt=1e-3, t_end=0.01, eps=eps)
        new, traj = step(state, opts), evolve(state, opts)
        streamed = evolve(state, opts, on_record=lambda *record: None)
        arrays += [new.n.values, new.u.values, traj.n, traj.u, streamed.n, streamed.u]
    copies = [a.copy() for a in arrays]
    for state, eps in ((lim, 0.0), (ep, 1e-2)):
        opts = RunOptions(dt=2e-3, t_end=0.02, eps=eps)
        step(step(state, opts), opts)
        evolve(state, opts)
        evolve(state, opts, on_record=lambda *record: None)
    assert all(np.array_equal(a, b) for a, b in zip(arrays, copies))


def test_snapshot_csv_schema(tmp_path):
    grid = Grid(32)
    ep, _ = paired_states(grid)
    opts = RunOptions(dt=1e-3, t_end=0.01, eps=1e-2, record_every=10 ** 9)
    traj = evolve(ep, opts)
    write_snapshot_csv(traj, tmp_path / "snap.csv")
    header = (tmp_path / "snap.csv").read_text().split("\n")[0]
    assert header == "x,n,u,phi"
