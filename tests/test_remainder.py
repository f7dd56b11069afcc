"""Remainder triple (n1, u1, phi1), Taylor rest term, triple norms, residuals."""

from dataclasses import replace

import numpy as np
import pytest

from debye_limit import remainder
from debye_limit.flows import EPState, RecordAllocationError, RunOptions, evolve
from debye_limit.grid import (Field, Grid, _dealias_values, _derivative_values,
                              _l2_values, hs_norm)
from debye_limit.initial import InitParams, make_initial, random_smooth_fields
from debye_limit.remainder import (
    Remainder,
    RemainderRows,
    _r1_values,
    elliptic_ratio_pair,
    remainder_residual,
    remainder_series,
    triple_norm,
    write_remainder_csv,
)
from oracles import (paired_remainder, quasineutral_identity_defect, quasineutrality_gap,
                     r1_majorant, random_smooth_field)


def paired_run(eps=1e-2, n_points=64, t_end=0.05, dt=1e-3, record_every=10):
    grid = Grid(n_points)
    n0, u0 = make_initial(InitParams(), grid)
    ep = evolve(EPState(0.0, n0, u0),
                RunOptions(dt=dt, t_end=t_end, eps=eps,
                           record_every=record_every))
    lim = evolve(EPState(0.0, n0, u0),
                 RunOptions(dt=dt, t_end=t_end, eps=0.0,
                            record_every=record_every))
    return ep, lim


def streamed_remainder(eps=1e-2, n_points=64, t_end=0.05, dt=1e-3, record_every=10):
    """The remainder stack of ``paired_run``'s runs by the package's route: the
    limit run kept, the full flow streamed into its remainder rows."""
    state = EPState(0.0, *make_initial(InitParams(), Grid(n_points)))
    opts = RunOptions(dt=dt, t_end=t_end, eps=eps, record_every=record_every)
    rows = RemainderRows(evolve(state, replace(opts, eps=0.0)), opts)
    assert len(evolve(state, opts, on_record=rows).t) == 1
    return remainder_series(rows)


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
    rems = streamed_remainder()
    eps = ep.eps
    assert np.array_equal(rems.t, ep.t)
    assert np.array_equal(rems.n0, lim.n) and np.array_equal(rems.u0, lim.u)
    for i in range(len(ep.t)):
        rebuilt = lim.n[i] + eps * rems.n1[i]
        assert np.max(np.abs(rebuilt - ep.n[i])) < 1e-13 * np.max(ep.n[i])
        rebuilt_u = lim.u[i] + eps * rems.u1[i]
        assert np.max(np.abs(rebuilt_u - ep.u[i])) < 1e-13


def test_remainder_is_zero_at_matched_start():
    rem = streamed_remainder(t_end=0.0)
    assert rem.n1.shape == (1, 64)
    assert np.max(np.abs(rem.n1)) == 0.0
    assert np.max(np.abs(rem.u1)) == 0.0
    # phi1 is not zero: it captures the slaved-potential correction
    assert np.max(np.abs(rem.phi1)) > 0.0


def test_remainder_series_rejects_mismatched_runs():
    ep, lim = paired_run(t_end=0.01)
    state, opts = EPState(0.0, *make_initial(InitParams(), lim.grid)), \
        RunOptions(dt=1e-3, t_end=0.01, eps=ep.eps, record_every=10)
    shifted = RemainderRows(replace(lim, t=lim.t + 0.5), opts)
    with pytest.raises(ValueError, match="times"):
        evolve(state, opts, on_record=shifted)
    with pytest.raises(ValueError, match="full-flow"):
        RemainderRows(lim, replace(opts, eps=0.0))
    with pytest.raises(ValueError, match="limit-flow"):
        RemainderRows(ep, opts)
    # the rows are sized for every limit record before the run
    endless = replace(lim, t=np.broadcast_to(0.0, (10 ** 15,)))
    with pytest.raises(RecordAllocationError, match="do not fit in memory"):
        RemainderRows(endless, opts)
    rem = paired_remainder(ep, lim)
    with pytest.raises(ValueError, match="shape"):
        replace(rem, n1=rem.n1[:-1])


def test_r1_scalar_value():
    # n0 = 1, phi0 = 0, phi1 = 1, eps = 0.01:
    # R1 = eps^(-3/2) (1 + eps - e^eps); 50-digit series value
    # -0.05016708416805754216... (the literal float expression is off in
    # the 12th digit from cancellation; the implementation must do better)
    one, zero = np.ones(32), np.zeros(32)
    r1 = _r1_values(zero, one, one, 0.01)
    assert np.max(np.abs(r1 - (-0.050167084168057542))) < 5e-15


def test_r1_requires_limit_relation():
    n0 = np.full(32, 2.0)
    phi0 = np.zeros(32)  # exp(0) != 2
    with pytest.raises(ValueError):
        _r1_values(phi0, phi0, n0, 1e-2)


def test_r1_majorant_dominates_pointwise():
    # build n0 = exp(phi0) so the limit relation holds bitwise and the
    # comparison is free of the eps^(-3/2)-amplified consistency error
    rng = np.random.default_rng(31)
    grid = Grid(128)
    for _ in range(20):
        phi0 = 0.2 * np.sin(2 * np.pi * grid.x + rng.uniform(0, 2 * np.pi))
        n0 = np.exp(phi0)
        phi1 = 2.0 * random_smooth_fields(grid, rng, 1, 8)[0]
        for eps in (1e-1, 1e-2, 1e-4):
            r1 = _r1_values(phi0, phi1, n0, eps)
            maj = r1_majorant(phi0, phi1, eps)
            slack = 1e-12 * np.max(maj) + 1e-300
            assert np.all(np.abs(r1) <= maj + slack)
            assert _l2_values(grid, r1) <= _l2_values(grid, maj) * (1.0 + 1e-12)


def test_r1_vanishes_quadratically_in_phi1():
    grid = Grid(64)
    n0, phi0 = np.ones(64), np.zeros(64)
    eps = 1e-2
    base = np.sin(2 * np.pi * grid.x)
    r_full = _l2_values(grid, _r1_values(phi0, base, n0, eps))
    r_half = _l2_values(grid, _r1_values(phi0, 0.5 * base, n0, eps))
    assert r_full / r_half == pytest.approx(4.0, rel=0.02)


def test_triple_norm_closed_form():
    # phi1 = sin(2 pi x), s = 0, eps = 1:
    # phi1 part = sqrt(A + A (2pi)^2 + A (2pi)^4), A = 1/2, same digits
    # as the plain H^2 norm of sin
    grid = Grid(128)
    sin = Field(grid, np.sin(2 * np.pi * grid.x))
    tn = triple_norm(_one_row(grid, 1.0, phi1=sin.values), (0,))[0]
    assert abs(tn.phi1_triple[0] - 28.27564211603687) < 1e-11
    assert tn.u1_triple[0] == 0.0
    assert tn.combined[0] == pytest.approx(tn.phi1_triple[0], rel=1e-15)


def test_triple_norm_combination():
    rng = np.random.default_rng(13)
    grid = Grid(64)
    u1 = random_smooth_field(grid, rng)
    phi1 = random_smooth_field(grid, rng)
    for eps in (1e-1, 1e-3):
        rem = _one_row(grid, eps, u1=u1.values, phi1=phi1.values)
        for s, tn in triple_norm(rem, (0, 1, 2)).items():
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
    tn = triple_norm(_one_row(grid, 1e-12, phi1=phi1.values), (1,))[1]
    assert tn.phi1_triple[0] == pytest.approx(hs_norm(phi1, 1), rel=1e-5)


def test_residuals_second_order_in_spacing():
    ep, lim = paired_run(eps=1e-2, n_points=64, t_end=0.08, dt=5e-4,
                         record_every=1)
    rems = paired_remainder(ep, lim)

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
    rems = paired_remainder(ep, lim)
    _, _, res_phi = remainder_residual(rems)
    # the potential equation holds at solver tolerance scaled by 1/eps
    assert np.max(res_phi) <= 1e-12 / 1e-2 * 10.0


def _advective_residual(rem, stride):
    """Oracle of ``remainder_residual``: the remainder equations in
    advective form, every derivative, product and dealiased term formed
    in physical space, each term dealiased on its own."""
    grid, eps = rem.grid, rem.eps
    t, n0, u0, n1, u1, phi1 = (v[::stride] for v in (
        rem.t, rem.n0, rem.u0, rem.n1, rem.u1, rem.phi1))
    dt_gap = (t[1:] - t[:-1])[:, None]

    def mid(v):
        return 0.5 * (v[:-1] + v[1:])

    def dA(v):
        return _dealias_values(grid, v)

    def dx(v, order=1):
        return _derivative_values(grid, v, order)

    n1m, u1m, u0m = mid(n1), mid(u1), mid(u0)
    res_n = _l2_values(grid, dA(
        (n1[1:] - n1[:-1]) / dt_gap
        + dx(dA(mid(n0) * u1m + u0m * n1m)) + eps * dx(dA(n1m * u1m))))
    res_u = _l2_values(grid, dA(
        (u1[1:] - u1[:-1]) / dt_gap + dA(u0m * dx(u1m)) + dA(u1m * dx(u0m))
        + eps * dA(u1m * dx(u1m)) + dx(mid(phi1))))
    phi0 = np.log(n0)
    res_phi = _l2_values(grid, dA(
        -eps * dx(phi1, 2) - dx(phi0, 2) - n1 + n0 * phi1
        - np.sqrt(eps) * _r1_values(phi0, phi1, n0, eps)))
    return res_n, res_u, np.maximum(res_phi[:-1], res_phi[1:])


@pytest.mark.parametrize("eps", [1e-1, 1e-4])
@pytest.mark.parametrize("stride", [1, 2])
def test_residuals_match_the_advective_oracle(eps, stride):
    # under the 2/3 rule the conservative form, dealiased once, equals
    # the advective one on band-limited fields (Orszag 1971). Measured
    # at N = 64: res_n and res_u agree to 1.9e-11 relative and res_phi,
    # which is round-off near 1e-11, to 7.9e-14 absolute; the bounds
    # leave margins of about 500 and 12
    ep, lim = paired_run(eps=eps, t_end=0.02, dt=1e-3, record_every=2)
    rems = paired_remainder(ep, lim)
    res_n, res_u, res_phi = remainder_residual(rems, stride)
    want_n, want_u, want_phi = _advective_residual(rems, stride)
    assert len(res_n) == len(want_n) == 10 // stride
    np.testing.assert_allclose(res_n, want_n, rtol=1e-8, atol=0.0)
    np.testing.assert_allclose(res_u, want_u, rtol=1e-8, atol=0.0)
    np.testing.assert_allclose(res_phi, want_phi, rtol=0.0, atol=1e-12)


def test_remainder_residual_keeps_few_stacks_alive(peak_alloc):
    # the residual fills one (4, P, N) stack in place and frees it once
    # transformed, so its peak is about that stack and its spectrum.
    # Measured at N = 64: 8.3 (P, N) float arrays, against 12.4 when each
    # midpoint and flux was an array of its own
    ep, lim = paired_run(t_end=0.05, record_every=1)
    rems = paired_remainder(ep, lim)
    rems.res_phi  # formed once per stack, and not part of this peak
    stack_bytes = 8 * (len(rems.t) - 1) * rems.grid.n_points
    assert peak_alloc(remainder_residual, rems) < 9.0 * stack_bytes


def _block_bytes(rows, grid):
    """A ``remainder.BLOCK_BYTES`` that makes blocks of ``rows`` rows on ``grid``."""
    return rows * 32 * grid.n_points


def test_residual_peaks_are_set_by_the_block_not_the_stack(peak_alloc,
                                                            monkeypatch):
    # in blocks of 2 rows both residual kernels hold a few (2, N) arrays at
    # a time, whatever the stack's length. Measured at N = 64 and 51 rows:
    # 13.2 KB for the potential residual and 18.6 KB for the others, against
    # a bound of 24.6 KB, under one (51, N) array (26.1 KB); in one block
    # the latter take 8.3 (P, N) arrays
    ep, lim = paired_run(t_end=0.05, record_every=1)
    rems = paired_remainder(ep, lim)
    monkeypatch.setattr(remainder, "BLOCK_BYTES", _block_bytes(2, rems.grid))
    block = 8 * 2 * rems.grid.n_points  # bytes of one (2, N) array
    assert peak_alloc(lambda: rems.res_phi) < 24 * block
    assert peak_alloc(remainder_residual, rems) < 24 * block


@pytest.mark.parametrize("block_rows", [1, 2, 3])
def test_blocked_residuals_equal_the_one_block_ones(monkeypatch, block_rows):
    # a stacked transform gives each row the bits of a single call, so
    # blocks of any size give the residuals of one block, on stacks of
    # 0, 1 and 2 rows too; the potential residual is formed block by block
    ep, lim = paired_run(eps=1e-2, t_end=0.02, dt=1e-3, record_every=2)
    rems = paired_remainder(ep, lim)
    stacks = [_rows(rems, slice(0, count)) for count in (0, 1, 2, 11)]

    def residuals(stack):
        fresh = _rows(stack, slice(None))  # res_phi not yet formed
        return (fresh.res_phi, *remainder_residual(fresh, 1),
                *remainder_residual(fresh, 2))

    whole = [residuals(stack) for stack in stacks]
    calls = []
    real = remainder._res_phi_values

    def counting(grid, eps, n0, n1, phi1):
        calls.append(len(n0))
        return real(grid, eps, n0, n1, phi1)

    monkeypatch.setattr(remainder, "_res_phi_values", counting)
    monkeypatch.setattr(remainder, "BLOCK_BYTES", _block_bytes(block_rows, rems.grid))
    for stack, want in zip(stacks, whole):
        calls.clear()
        got = residuals(stack)
        assert len(got[0]) == len(stack.t) and len(got[1]) == max(len(stack.t) - 1, 0)
        assert all(map(np.array_equal, got, want)), (len(stack.t), block_rows)
        assert calls == [min(block_rows, len(stack.t) - a)
                         for a in range(0, len(stack.t), block_rows)]


def test_remainder_residual_validates_inputs():
    ep, lim = paired_run(record_every=10)
    rems = paired_remainder(ep, lim)
    with pytest.raises(ValueError, match="time-ordered"):
        remainder_residual(_rows(rems, slice(None, None, -1)))
    with pytest.raises(ValueError, match="step cannot be zero"):  # numpy's slice check
        remainder_residual(rems, 0)
    with pytest.raises(ValueError, match="time-ordered"):
        remainder_residual(rems, -1)


def test_elliptic_ratios_positive_and_finite():
    ep, lim = paired_run(record_every=10)
    rems = paired_remainder(ep, lim)
    for tn in triple_norm(rems, (0, 1, 2)).values():
        dens, pot = elliptic_ratio_pair(tn)
        assert np.all(np.isfinite(dens[1:]) & (dens[1:] >= 0.0))
        assert np.all(np.isfinite(pot[1:]) & (pot[1:] > 0.0))


def test_remainder_csv_schema(tmp_path):
    ep, lim = paired_run(record_every=10)
    rems = paired_remainder(ep, lim)
    path = tmp_path / "rem.csv"
    norms = triple_norm(rems, (0, 2))
    write_remainder_csv(norms, remainder_residual(rems), path)
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
    from debye_limit.flows import _quasineutral_values

    ep, lim = paired_run(eps=1e-2, n_points=64, t_end=0.02, dt=1e-3,
                         record_every=2)
    rems = paired_remainder(ep, lim)
    count = len(rems.t)
    assert count == 11
    wholes = triple_norm(rems, (0, 1, 2))
    for i in range(count):
        rows = triple_norm(_rows(rems, slice(i, i + 1)), (0, 1, 2))
        for s, whole in wholes.items():
            row = rows[s]
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
    stacked_gap = _quasineutral_values(rems.grid, ep.n, ep.phi)
    gaps, defects = [], []
    for i in range(count):
        assert _quasineutral_values(rems.grid, ep.n[i], ep.phi[i]) == stacked_gap[i]
        one = replace(ep, t=ep.t[i:i + 1], n=ep.n[i:i + 1], u=ep.u[i:i + 1],
                      phi=ep.phi[i:i + 1])
        gaps.append(quasineutrality_gap(one))
        defects.append(quasineutral_identity_defect(one))
    assert quasineutrality_gap(ep) == max(gaps)
    assert quasineutral_identity_defect(ep) == max(defects)
