"""Nonlinear Poisson-Boltzmann solver tests, manufactured solutions first."""

import numpy as np
import pytest

from debye_limit import poisson
from debye_limit.grid import Field, Grid, derivative, integrate, l2_norm
from debye_limit.poisson import (
    PBConvergenceError,
    PBSolveOptions,
    pb_residual,
    solve_phi,
    solve_phi_limit,
)


def manufactured_density(grid, eps, phi_fn):
    """Build n so that phi_fn is the exact solution of eps*phi'' = e^phi - n."""
    phi = Field.from_function(grid, phi_fn)
    n_vals = np.exp(phi.values) - eps * derivative(phi, 2).values
    return Field(grid, n_vals), phi


def test_constant_state_is_immediate():
    grid = Grid(64)
    n = Field(grid, np.full(64, 2.0))
    sol = solve_phi(n, 0.01)
    assert np.max(np.abs(sol.phi.values - np.log(2.0))) < 1e-14
    assert sol.iterations <= 1
    assert sol.residual_l2 <= 1e-12


@pytest.mark.parametrize("eps", [1e-1, 1e-3])
def test_manufactured_solution_recovery(eps):
    grid = Grid(128)
    n, phi_star = manufactured_density(
        grid, eps, lambda x: 0.1 * np.sin(2 * np.pi * x))
    sol = solve_phi(n, eps)
    err = l2_norm(Field(grid, sol.phi.values - phi_star.values))
    assert err <= 1e-10


def test_residual_small_at_solution():
    grid = Grid(128)
    n = Field.from_function(grid, lambda x: 1.0 + 0.3 * np.sin(2 * np.pi * x))
    sol = solve_phi(n, 1e-2)
    assert l2_norm(pb_residual(sol.phi, n, 1e-2)) <= 1e-12
    assert sol.residual_l2 <= 1e-12


def test_charge_neutrality_of_solution():
    # integrating eps*phi'' = e^phi - n over the torus kills the left side
    grid = Grid(128)
    n = Field.from_function(grid, lambda x: 1.0 + 0.2 * np.cos(2 * np.pi * x))
    for eps in (1e-1, 1e-2, 1e-4):
        sol = solve_phi(n, eps)
        gap = integrate(Field(grid, np.exp(sol.phi.values) - n.values))
        assert abs(gap) < 1e-10


def test_limit_gap_shrinks_linearly():
    grid = Grid(128)
    n = Field.from_function(grid, lambda x: 1.0 + 0.1 * np.sin(2 * np.pi * x))
    limit = solve_phi_limit(n)
    assert np.max(np.abs(limit.values - np.log(n.values))) == 0.0
    gaps = []
    # stay in the asymptotic range: at eps = 1e-2 the next-order
    # eps*k^2 correction already bends the slope to ~0.87
    eps_list = (1e-3, 1e-4, 1e-5)
    for eps in eps_list:
        sol = solve_phi(n, eps)
        gaps.append(l2_norm(Field(grid, sol.phi.values - limit.values)))
    slopes = np.diff(np.log(gaps)) / np.diff(np.log(eps_list))
    assert np.all(slopes >= 0.95)


def test_limit_gap_fitted_slope_over_moderate_eps():
    # same family, one decade higher: the least-squares slope over
    # {1e-2, 1e-3, 1e-4} still clears 0.9 even with the bent head
    grid = Grid(128)
    n = Field.from_function(grid, lambda x: 1.0 + 0.1 * np.sin(2 * np.pi * x))
    limit = solve_phi_limit(n)
    eps_list = (1e-2, 1e-3, 1e-4)
    gaps = [l2_norm(Field(grid, solve_phi(n, eps).phi.values - limit.values))
            for eps in eps_list]
    x = np.log(eps_list)
    y = np.log(gaps)
    slope = np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2)
    assert slope >= 0.9
    # linear-in-eps bound; gap/eps tends to ~2.9 for this profile
    assert all(gap <= 3.0 * eps for gap, eps in zip(gaps, eps_list))


def test_maximum_principle():
    rng = np.random.default_rng(23)
    grid = Grid(64)
    for _ in range(5):
        bump = 0.3 * np.sin(2 * np.pi * grid.x) \
            + 0.1 * rng.standard_normal() * np.cos(4 * np.pi * grid.x)
        n = Field(grid, 1.0 + bump)
        lo, hi = np.log(np.min(n.values)), np.log(np.max(n.values))
        for eps in (1e-2, 1e-3):
            sol = solve_phi(n, eps)
            assert np.min(sol.phi.values) >= lo - 1e-11
            assert np.max(sol.phi.values) <= hi + 1e-11


def test_grid_convergence_is_spectral():
    # analytic profile with slowly decaying Fourier tail relative to
    # band-limited data: the Poisson kernel 1/(1 - r e^{i theta})
    r = 0.55

    def phi_fn(x):
        th = 2 * np.pi * x
        return 0.1 * np.real(1.0 / (1.0 - r * np.exp(1j * th)))

    def phi_xx_fn(x):
        th = 2 * np.pi * x
        z = np.exp(1j * th)
        d2 = -r * z / (1.0 - r * z) ** 2 - 2.0 * r ** 2 * z ** 2 / (1.0 - r * z) ** 3
        return 0.1 * (2 * np.pi) ** 2 * np.real(d2)

    eps = 1e-2
    errs = {}
    for n_points in (32, 64):
        grid = Grid(n_points)
        phi_star = Field.from_function(grid, phi_fn)
        n = Field(grid, np.exp(phi_star.values) - eps * phi_xx_fn(grid.x))
        sol = solve_phi(n, eps)
        errs[n_points] = l2_norm(Field(grid, sol.phi.values - phi_star.values))
    assert errs[64] <= errs[32] / 100.0


def test_rejects_bad_inputs():
    grid = Grid(32)
    good = Field(grid, np.ones(32))
    bad = Field(grid, np.concatenate([[-0.5], np.ones(31)]))
    with pytest.raises(ValueError):
        solve_phi(bad, 1e-2)
    with pytest.raises(ValueError):
        solve_phi(good, 0.0)
    with pytest.raises(ValueError):
        solve_phi(good, -1e-3)


def test_nonconvergence_reports_residual():
    grid = Grid(64)
    n = Field.from_function(grid, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
    opts = PBSolveOptions(tol=1e-15, max_newton_iters=1)
    with pytest.raises(PBConvergenceError) as info:
        solve_phi(n, 1e-1, opts=opts,
                  phi_init=Field(grid, np.full(64, 5.0)))
    assert info.value.last_residual > 0.0
    assert np.isfinite(info.value.last_residual)


@pytest.mark.parametrize("eps", [1e300, np.inf])
def test_overflowing_eps_raises_convergence_error(eps):
    # eps k^2 overflows: the solve must fail as a PB failure, not crash
    grid = Grid(64)
    n = Field.from_function(grid, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
    with np.errstate(all="ignore"), pytest.raises(PBConvergenceError):
        solve_phi(n, eps)


def test_options_validation():
    with pytest.raises(ValueError):
        PBSolveOptions(tol=0.0)
    with pytest.raises(ValueError):
        PBSolveOptions(max_newton_iters=0)
    with pytest.raises(ValueError):
        PBSolveOptions(damping_min=0.0)


def dense_oracle_phi(grid, n, eps, opts):
    """Damped Newton with dense direct solves in an explicit trig basis.

    An independent check of the matrix-free kernel: the dealiased band
    is spanned by 1, cos(2 pi j x), sin(2 pi j x) for j <= N/3, the
    Galerkin Jacobian is assembled as a dense matrix and factorized
    (after a symmetric diagonal scaling that keeps the LU accurate),
    and no FFT is involved. Same stopping rule and line search as the
    solver under test.
    """
    x = grid.x
    modes = np.arange(1, grid.n_points // 3 + 1)
    k = 2.0 * np.pi / grid.length * modes
    basis = np.hstack([np.ones((x.size, 1)), np.cos(np.outer(x, k)),
                       np.sin(np.outer(x, k))])
    k2 = np.concatenate([[0.0], k**2, k**2])
    gram = np.sum(basis * basis, axis=0)  # the basis is orthogonal
    root = np.sqrt(gram)

    def residual(coeffs):
        exp_phi = np.exp(basis @ coeffs)
        return -eps * k2 * coeffs + basis.T @ (n - exp_phi) / gram, exp_phi

    def norm(coeffs):
        return np.sqrt(np.sum(gram * coeffs**2) * grid.length / grid.n_points)

    coeffs = basis.T @ np.log(n) / gram
    res, exp_phi = residual(coeffs)
    res_norm = norm(res)
    for _ in range(opts.max_newton_iters):
        if res_norm <= opts.tol:
            break
        scale = 1.0 / np.sqrt(eps * k2 + np.mean(exp_phi))
        jac = eps * np.diag(k2) \
            + (basis / root).T @ (exp_phi[:, None] * basis / root)
        jac = scale[:, None] * jac * scale[None, :]
        delta = scale * np.linalg.solve(jac, scale * root * res) / root
        lam = 1.0
        while True:
            trial_res, trial_exp = residual(coeffs + lam * delta)
            if norm(trial_res) < res_norm:
                coeffs = coeffs + lam * delta
                res, exp_phi, res_norm = trial_res, trial_exp, norm(trial_res)
                break
            lam *= 0.5
            assert lam >= opts.damping_min, "oracle line search stalled"
    assert res_norm <= opts.tol, "oracle Newton did not converge"
    return basis @ coeffs


@pytest.mark.parametrize("n_points", [64, 128, 256])
@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize("amp", [0.1, 0.5])
def test_matches_dense_oracle(n_points, eps, amp):
    grid = Grid(n_points)
    n = Field.from_function(
        grid, lambda x: 1.0 + amp * (np.sin(2 * np.pi * x)
                                     + 0.2 * np.cos(4 * np.pi * x)))
    opts = PBSolveOptions()
    sol = solve_phi(n, eps, opts)
    want = dense_oracle_phi(grid, n.values, eps, opts)
    assert np.max(np.abs(sol.phi.values - want)) <= 1e-13
    assert sol.residual_l2 <= opts.tol
    assert l2_norm(pb_residual(sol.phi, n, eps)) <= opts.tol


@pytest.mark.parametrize("eps", [1e-1, 1e-4])
def test_linear_iterations_do_not_grow_with_grid(eps):
    # the preconditioned CG count is set by the data, not by N
    counts = []
    for n_points in (64, 128, 256, 512, 1024):
        grid = Grid(n_points)
        n = Field.from_function(grid, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
        sol = solve_phi(n, eps)
        assert sol.linear_iterations >= sol.iterations
        counts.append(sol.linear_iterations)
    assert max(counts) <= counts[0]


def test_cg_iteration_cap_raises(monkeypatch):
    grid = Grid(64)
    n = Field.from_function(grid, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
    monkeypatch.setattr(poisson, "CG_MAX_ITERS", 1)
    with pytest.raises(PBConvergenceError, match="CG"):
        solve_phi(n, 1e-2)
