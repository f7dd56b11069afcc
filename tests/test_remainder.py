"""Remainder triple (n1, u1, phi1), Taylor rest term, triple norms, residuals."""

from dataclasses import replace

import numpy as np
import pytest

from debye_limit.flows import EPState, LimitState, RunOptions, evolve
from debye_limit.grid import Field, Grid, hs_norm, l2_norm
from debye_limit.initial import InitParams, make_initial, random_smooth_field
from debye_limit.remainder import (
    Remainder,
    elliptic_ratio_pair,
    r1_field,
    r1_majorant,
    remainder_residual,
    remainder_series,
    triple_norm,
    write_remainder_csv,
)


def paired_run(eps=1e-2, n_points=64, t_end=0.05, dt=1e-3, record_every=10):
    grid = Grid(n_points)
    n0, u0 = make_initial(InitParams(), grid)
    ep = evolve(EPState(0.0, n0, u0),
                RunOptions(dt=dt, t_end=t_end, eps=eps,
                           record_every=record_every))
    lim = evolve(LimitState(0.0, n0, u0),
                 RunOptions(dt=dt, t_end=t_end, eps=0.0,
                            record_every=record_every))
    return ep, lim


def _rows(rem, index):
    """The rows ``index`` of a remainder stack, as a stack of their own."""
    return replace(rem, t=rem.t[index], n0=rem.n0[index], u0=rem.u0[index],
                   n1=rem.n1[index], u1=rem.u1[index], phi1=rem.phi1[index])


def _one_row(grid, eps, n1=None, u1=None, phi1=None):
    """A one-row stack at t = 0 on the rest state n0 = 1, u0 = 0."""
    def row(values, fill=0.0):
        return np.full((1, grid.n_points), fill) if values is None else \
            np.asarray(values, dtype=float).reshape(1, -1)
    return Remainder(grid, eps, [0.0], row(None, 1.0), row(None), row(n1),
                     row(u1), row(phi1))


def test_remainder_reconstructs_ep_state():
    ep, lim = paired_run()
    rems = remainder_series(ep, lim)
    eps = ep.eps
    assert len(rems.t) == len(ep.states)
    for i, (se, sl) in enumerate(zip(ep.states, lim.states)):
        assert rems.t[i] == se.t
        assert np.array_equal(rems.n0[i], sl.n.values)
        rebuilt = sl.n.values + eps * rems.n1[i]
        assert np.max(np.abs(rebuilt - se.n.values)) < 1e-13 * np.max(se.n.values)
        rebuilt_u = sl.u.values + eps * rems.u1[i]
        assert np.max(np.abs(rebuilt_u - se.u.values)) < 1e-13


def test_remainder_is_zero_at_matched_start():
    ep, lim = paired_run(t_end=0.0)
    rem = remainder_series(ep, lim)
    assert rem.n1.shape == (1, 64)
    assert np.max(np.abs(rem.n1)) == 0.0
    assert np.max(np.abs(rem.u1)) == 0.0
    # phi1 is not zero: it captures the slaved-potential correction
    assert np.max(np.abs(rem.phi1)) > 0.0


def test_remainder_series_rejects_mismatched_runs():
    ep, lim = paired_run(t_end=0.01)
    shifted = replace(lim, states=[replace(st, t=st.t + 0.5) for st in lim.states])
    with pytest.raises(ValueError, match="times"):
        remainder_series(ep, shifted)
    with pytest.raises(ValueError, match="full-flow"):
        remainder_series(lim, lim)
    with pytest.raises(ValueError, match="limit-flow"):
        remainder_series(ep, ep)
    rem = remainder_series(ep, lim)
    with pytest.raises(ValueError, match="shape"):
        replace(rem, n1=rem.n1[:-1])


def test_r1_scalar_value():
    # n0 = 1, phi0 = 0, phi1 = 1, eps = 0.01:
    # R1 = eps^(-3/2) (1 + eps - e^eps); 50-digit series value
    # -0.05016708416805754216... (the literal float expression is off in
    # the 12th digit from cancellation; the implementation must do better)
    grid = Grid(32)
    one = Field(grid, np.ones(32))
    zero = Field(grid, np.zeros(32))
    r1 = r1_field(zero, one, one, 0.01)
    assert np.max(np.abs(r1.values - (-0.050167084168057542))) < 5e-15


def test_r1_requires_limit_relation():
    grid = Grid(32)
    n0 = Field(grid, np.full(32, 2.0))
    phi0 = Field(grid, np.zeros(32))  # exp(0) != 2
    with pytest.raises(ValueError):
        r1_field(phi0, phi0, n0, 1e-2)


def test_r1_majorant_dominates_pointwise():
    # build n0 = exp(phi0) so the limit relation holds bitwise and the
    # comparison is free of the eps^(-3/2)-amplified consistency error
    rng = np.random.default_rng(31)
    grid = Grid(128)
    for _ in range(20):
        phi0 = Field(grid, 0.2 * np.sin(2 * np.pi * grid.x
                                        + rng.uniform(0, 2 * np.pi)))
        n0 = Field(grid, np.exp(phi0.values))
        phi1 = random_smooth_field(grid, rng, amplitude=2.0)
        for eps in (1e-1, 1e-2, 1e-4):
            r1 = r1_field(phi0, phi1, n0, eps)
            maj = r1_majorant(phi0, phi1, n0, eps)
            slack = 1e-12 * np.max(maj.values) + 1e-300
            assert np.all(np.abs(r1.values) <= maj.values + slack)
            assert l2_norm(r1) <= l2_norm(maj) * (1.0 + 1e-12)


def test_r1_vanishes_quadratically_in_phi1():
    grid = Grid(64)
    n0 = Field(grid, np.ones(64))
    phi0 = Field(grid, np.zeros(64))
    eps = 1e-2
    base = Field.from_function(grid, lambda x: np.sin(2 * np.pi * x))
    r_full = l2_norm(r1_field(phi0, base, n0, eps))
    half = Field(grid, 0.5 * base.values)
    r_half = l2_norm(r1_field(phi0, half, n0, eps))
    assert r_full / r_half == pytest.approx(4.0, rel=0.02)


def test_triple_norm_closed_form():
    # phi1 = sin(2 pi x), s = 0, eps = 1:
    # phi1 part = sqrt(A + A (2pi)^2 + A (2pi)^4), A = 1/2, same digits
    # as the plain H^2 norm of sin
    grid = Grid(128)
    sin = Field.from_function(grid, lambda x: np.sin(2 * np.pi * x))
    tn = triple_norm(_one_row(grid, 1.0, phi1=sin.values), 0)
    assert abs(tn.phi1_triple[0] - 28.27564211603687) < 1e-11
    assert tn.u1_triple[0] == 0.0
    assert tn.combined[0] == pytest.approx(tn.phi1_triple[0], rel=1e-15)


def test_triple_norm_combination():
    rng = np.random.default_rng(13)
    grid = Grid(64)
    u1 = random_smooth_field(grid, rng)
    phi1 = random_smooth_field(grid, rng)
    for eps in (1e-1, 1e-3):
        for s in (0, 1, 2):
            rem = _one_row(grid, eps, u1=u1.values, phi1=phi1.values)
            tn = triple_norm(rem, s)
            want_u = np.sqrt(hs_norm(u1, s) ** 2
                             + eps * hs_norm_d(u1, s, 1) ** 2)
            assert tn.u1_triple[0] == pytest.approx(want_u, rel=1e-12)
            want_phi = np.sqrt(hs_norm(phi1, s) ** 2
                               + eps * hs_norm_d(phi1, s, 1) ** 2
                               + eps ** 2 * hs_norm_d(phi1, s, 2) ** 2)
            assert tn.phi1_triple[0] == pytest.approx(want_phi, rel=1e-12)
            assert tn.combined[0] == pytest.approx(
                np.hypot(tn.u1_triple[0], tn.phi1_triple[0]), rel=1e-12)


def hs_norm_d(f, s, order):
    from debye_limit.grid import derivative
    return hs_norm(derivative(f, order), s)


def test_eps_weighted_terms_vanish_in_limit():
    rng = np.random.default_rng(19)
    grid = Grid(64)
    phi1 = random_smooth_field(grid, rng)
    tn = triple_norm(_one_row(grid, 1e-12, phi1=phi1.values), 1)
    assert tn.phi1_triple[0] == pytest.approx(hs_norm(phi1, 1), rel=1e-5)


def test_residuals_second_order_in_spacing():
    ep, lim = paired_run(eps=1e-2, n_points=64, t_end=0.08, dt=5e-4,
                         record_every=1)
    rems = remainder_series(ep, lim)

    def max_res(stride):
        res_n, res_u, _ = remainder_residual(rems, stride)
        assert len(res_n) == (len(rems.t) - 1) // stride
        return np.max(res_n), np.max(res_u)

    rn4, ru4 = max_res(4)   # spacing 2e-3
    rn2, ru2 = max_res(2)   # spacing 1e-3
    assert 3.0 < rn4 / rn2 < 5.0
    assert 3.0 < ru4 / ru2 < 5.0


def test_res_phi_collapses_to_solver_tolerance():
    ep, lim = paired_run(eps=1e-2, n_points=64, t_end=0.02, dt=1e-3,
                         record_every=2)
    rems = remainder_series(ep, lim)
    _, _, res_phi = remainder_residual(rems)
    # the potential equation holds at solver tolerance scaled by 1/eps
    assert np.max(res_phi) <= 1e-12 / 1e-2 * 10.0


def test_remainder_residual_validates_inputs():
    ep, lim = paired_run(record_every=10)
    rems = remainder_series(ep, lim)
    with pytest.raises(ValueError, match="time-ordered"):
        remainder_residual(_rows(rems, slice(None, None, -1)))
    for stride in (0, -1):
        with pytest.raises(ValueError, match="stride"):
            remainder_residual(rems, stride)


def test_elliptic_ratios_positive_and_finite():
    ep, lim = paired_run(record_every=10)
    rems = remainder_series(ep, lim)
    for k in (0, 1, 2):
        dens, pot = elliptic_ratio_pair(triple_norm(rems, k))
        assert np.all(np.isfinite(dens[1:]) & (dens[1:] >= 0.0))
        assert np.all(np.isfinite(pot[1:]) & (pot[1:] > 0.0))


def test_remainder_csv_schema(tmp_path):
    ep, lim = paired_run(record_every=10)
    rems = remainder_series(ep, lim)
    path = tmp_path / "rem.csv"
    norms = {s: triple_norm(rems, s) for s in (0, 2)}
    write_remainder_csv(rems, norms, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ("t,eps,s,n1_Hs,u1_triple,phi1_triple,combined,"
                        "res_n,res_u,res_phi")
    # one row per (time, s) pair
    assert len(lines) == 1 + 2 * len(rems.t)
    first = lines[1].split(",")
    assert first[7] == "nan"  # no residual for the first snapshot


def test_stacked_diagnostics_are_row_identical():
    # every diagnostic of a T-row stack gives each row the bits of the same
    # function on that row alone (pairs: on the two rows they join), which
    # lets stacks of different lengths share one kernel
    from debye_limit.energy import energy_snapshot
    from debye_limit.experiments import (quasineutral_identity_defect,
                                         quasineutrality_gap)
    from debye_limit.flows import _quasineutral_values, quasineutral_residual

    ep, lim = paired_run(eps=1e-2, n_points=64, t_end=0.02, dt=1e-3,
                         record_every=2)
    rems = remainder_series(ep, lim)
    count = len(rems.t)
    assert count == 11
    for s in (0, 1, 2):
        whole = triple_norm(rems, s)
        for i in range(count):
            row = triple_norm(_rows(rems, slice(i, i + 1)), s)
            for name in ("t", "n1_hs", "u1_triple", "phi1_triple", "combined",
                         "phi1_hs", "phi1_x_hs", "phi1_xx_hs"):
                assert np.array_equal(getattr(row, name),
                                      getattr(whole, name)[i:i + 1]), (s, i, name)
    for gamma in (0, 1, 2):
        whole = energy_snapshot(rems, gamma)
        for i in range(count):
            row = energy_snapshot(_rows(rems, slice(i, i + 1)), gamma)
            for name in ("t", "e_kin", "e_phi", "e_grad", "e_visc", "e_lap",
                         "term_i", "term_ii", "term_iii", "term_iv"):
                assert np.array_equal(getattr(row, name),
                                      getattr(whole, name)[i:i + 1]), (gamma, i, name)
    for stride in (1, 2):
        whole = remainder_residual(rems, stride)
        for p, i in enumerate(range(0, count - stride, stride)):
            pair = remainder_residual(_rows(rems, slice(i, i + stride + 1, stride)))
            for got, want in zip(pair, whole):
                assert np.array_equal(got, want[p:p + 1]), (stride, i)
    n = np.array([st.n.values for st in ep.states])
    phi = np.array([f.values for f in ep.phis])
    stacked_gap = _quasineutral_values(rems.grid, n, phi)
    gaps, defects = [], []
    for i in range(count):
        assert quasineutral_residual(ep.states[i], ep.phis[i]) == stacked_gap[i]
        one = replace(ep, states=ep.states[i:i + 1], phis=ep.phis[i:i + 1])
        gaps.append(quasineutrality_gap(one))
        defects.append(quasineutral_identity_defect(one))
    assert quasineutrality_gap(ep) == max(gaps)
    assert quasineutral_identity_defect(ep) == max(defects)
