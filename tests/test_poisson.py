"""Nonlinear Poisson-Boltzmann solver tests, manufactured solutions first."""

import numpy as np
import pytest

from debye_limit import poisson
from debye_limit.grid import Field, Grid, _integral_values, _l2_values, derivative
from debye_limit.initial import random_smooth_fields
from debye_limit.poisson import PBConvergenceError, PBSolveOptions, solve_phi
from oracles import pb_residual


def manufactured_density(grid, eps, phi_fn):
    """Build n so that phi_fn is the exact solution of eps*phi'' = e^phi - n."""
    phi = Field(grid, phi_fn(grid.x))
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
    err = _l2_values(grid, sol.phi.values - phi_star.values)
    assert err <= 1e-10


def test_residual_small_at_solution():
    grid = Grid(128)
    n = Field(grid, 1.0 + 0.3 * np.sin(2 * np.pi * grid.x))
    sol = solve_phi(n, 1e-2)
    assert _l2_values(grid, pb_residual(grid, sol.phi.values, n.values, 1e-2)) <= 1e-12
    assert sol.residual_l2 <= 1e-12


def test_charge_neutrality_of_solution():
    # integrating eps*phi'' = e^phi - n over the torus kills the left side
    grid = Grid(128)
    n = Field(grid, 1.0 + 0.2 * np.cos(2 * np.pi * grid.x))
    for eps in (1e-1, 1e-2, 1e-4):
        sol = solve_phi(n, eps)
        gap = _integral_values(grid, np.exp(sol.phi.values) - n.values)
        assert abs(gap) < 1e-10


def test_limit_gap_shrinks_linearly():
    grid = Grid(128)
    n = Field(grid, 1.0 + 0.1 * np.sin(2 * np.pi * grid.x))
    limit = np.log(n.values)
    gaps = []
    # stay in the asymptotic range: at eps = 1e-2 the next-order
    # eps*k^2 correction already bends the slope to ~0.87
    eps_list = (1e-3, 1e-4, 1e-5)
    for eps in eps_list:
        sol = solve_phi(n, eps)
        gaps.append(_l2_values(grid, sol.phi.values - limit))
    slopes = np.diff(np.log(gaps)) / np.diff(np.log(eps_list))
    assert np.all(slopes >= 0.95)


def test_limit_gap_fitted_slope_over_moderate_eps():
    # same family, one decade higher: the least-squares slope over
    # {1e-2, 1e-3, 1e-4} still clears 0.9 even with the bent head
    grid = Grid(128)
    n = Field(grid, 1.0 + 0.1 * np.sin(2 * np.pi * grid.x))
    limit = np.log(n.values)
    eps_list = (1e-2, 1e-3, 1e-4)
    gaps = [_l2_values(grid, solve_phi(n, eps).phi.values - limit)
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
        phi_star = Field(grid, phi_fn(grid.x))
        n = Field(grid, np.exp(phi_star.values) - eps * phi_xx_fn(grid.x))
        sol = solve_phi(n, eps)
        errs[n_points] = _l2_values(grid, sol.phi.values - phi_star.values)
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


def test_nonconvergence_reports_residual(monkeypatch):
    grid = Grid(64)
    n = 1.0 + 0.5 * np.sin(2 * np.pi * grid.x)
    guess = poisson._band(grid).limited(np.full(64, 5.0))
    monkeypatch.setattr(poisson, "MAX_NEWTON_ITERS", 1)
    with pytest.raises(PBConvergenceError) as info:
        poisson._solve_phi_values(grid, n, 1e-1, PBSolveOptions(tol=1e-15), guess)
    assert info.value.last_residual > 0.0
    assert np.isfinite(info.value.last_residual)


def test_line_search_halves_a_step_that_raises_the_residual(monkeypatch):
    # a cold solve at density ratio ~2000 and small eps, where one full
    # Newton step raises the residual and its half lowers it. Killed
    # mutants: DAMPING_MIN = 1.0, which fails the solve at the first rising
    # step instead of halving it (simulate on this density, N = 32, ends
    # with pb_divergence at t = 0), and a line search that accepts every
    # full step (`if True:` for `if trial_norm < res_norm:`).
    grid = Grid(32)
    n = 1.0 + 0.999 * np.sin(2 * np.pi * 10 * grid.x)
    trials = []
    band_residual = poisson._band_residual
    monkeypatch.setattr(poisson, "_band_residual",
                        lambda *args: trials.append(1) or band_residual(*args))
    _, res_norm, newton, _, _ = poisson._solve_phi_values(grid, n, 1e-4, PBSolveOptions())
    assert res_norm <= PBSolveOptions().tol
    # one residual for the guess and one per trial: a step taken whole needs
    # one trial, so a halved step makes the count exceed the steps plus one
    assert len(trials) > newton + 1


@pytest.mark.parametrize("eps", [1e300, np.inf])
def test_overflowing_eps_raises_convergence_error(eps):
    # eps k^2 overflows: the solve must fail as a PB failure, not crash
    grid = Grid(64)
    n = Field(grid, 1.0 + 0.5 * np.sin(2 * np.pi * grid.x))
    with np.errstate(all="ignore"), pytest.raises(PBConvergenceError):
        solve_phi(n, eps)


def test_options_validation():
    with pytest.raises(ValueError):
        PBSolveOptions(tol=0.0)


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
    k = 2.0 * np.pi * modes
    basis = np.hstack([np.ones((x.size, 1)), np.cos(np.outer(x, k)),
                       np.sin(np.outer(x, k))])
    k2 = np.concatenate([[0.0], k**2, k**2])
    gram = np.sum(basis * basis, axis=0)  # the basis is orthogonal
    root = np.sqrt(gram)

    def residual(coeffs):
        exp_phi = np.exp(basis @ coeffs)
        return -eps * k2 * coeffs + basis.T @ (n - exp_phi) / gram, exp_phi

    def norm(coeffs):
        return np.sqrt(np.sum(gram * coeffs**2) / grid.n_points)

    coeffs = basis.T @ np.log(n) / gram
    res, exp_phi = residual(coeffs)
    res_norm = norm(res)
    for _ in range(poisson.MAX_NEWTON_ITERS):
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
            assert lam >= poisson.DAMPING_MIN, "oracle line search stalled"
    assert res_norm <= opts.tol, "oracle Newton did not converge"
    return basis @ coeffs


@pytest.mark.parametrize("n_points", [64, 128, 256])
@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize("amp", [0.1, 0.5])
def test_matches_dense_oracle(n_points, eps, amp):
    grid = Grid(n_points)
    n = Field(grid, 1.0 + amp * (np.sin(2 * np.pi * grid.x)
                                 + 0.2 * np.cos(4 * np.pi * grid.x)))
    opts = PBSolveOptions()
    sol = solve_phi(n, eps, opts)
    want = dense_oracle_phi(grid, n.values, eps, opts)
    assert np.max(np.abs(sol.phi.values - want)) <= 1e-13
    assert sol.residual_l2 <= opts.tol
    assert _l2_values(grid, pb_residual(grid, sol.phi.values, n.values, eps)) <= opts.tol


# band error of the oracle solution perturbed by 1.3e-7, before over after
# one correction, at N = 64: 130, 32, 16 and 15 for these eps. The
# correction contracts by about the spread of e^phi against its mean, so
# at amplitude 0.5 the factors fall to 26, 6.4, 3.2 and 3.0.
@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-4, 1e-6])
def test_refined_guess_shrinks_its_error_against_dense_oracle(eps):
    grid = Grid(64)
    x = grid.x
    n = 1.0 + 0.1 * (np.sin(2 * np.pi * x) + 0.2 * np.cos(4 * np.pi * x))
    want = dense_oracle_phi(grid, n, eps, PBSolveOptions())
    # a perturbation on the band: its mean, a low, a middle and the top mode
    wiggle = 1e-7 * (0.5 + np.sin(2 * np.pi * x) + np.cos(6 * np.pi * x)
                     + np.sin(2 * np.pi * (64 // 3) * x))
    guess = poisson._band(grid).limited(want + wiggle)
    # a loose tol accepts the guess with no Newton step, and the solve
    # returns it unchanged beside the corrected band coefficients
    phi, _, newton, _, kept = poisson._solve_phi_values(
        grid, n, eps, PBSolveOptions(tol=1.0), guess)
    assert newton == 0 and phi[0] is guess[0]
    before = _l2_values(grid, guess[0] - want)
    assert before > 1e-7
    assert _l2_values(grid, np.fft.irfft(kept, 64) - want) <= before / 5.0


@pytest.mark.parametrize("eps", [1e-1, 1e-4])
def test_linear_iterations_do_not_grow_with_grid(eps):
    # the preconditioned CG count is set by the data, not by N
    counts = []
    for n_points in (64, 128, 256, 512, 1024):
        grid = Grid(n_points)
        n = 1.0 + 0.5 * np.sin(2 * np.pi * grid.x)
        _, _, newton, cg, _ = poisson._solve_phi_values(grid, n, eps, PBSolveOptions())
        assert cg >= newton
        counts.append(cg)
    assert max(counts) <= counts[0]


def _textbook_pcg(band, eps, exp_phi, f, target):
    """Preconditioned CG as printed (Saad, Iterative Methods, alg. 9.1) for
    ``P(-eps v'' + e^phi v) = f`` on the band, from ``band.k2`` and its
    Parseval weight alone: fresh arrays every iteration, the weighted inner
    product summed directly, the operator built from its own transforms."""
    k2, weight = band.k2, band.weight.real
    dot = lambda a, b: float(np.sum(weight * (a.conj() * b).real))
    apply = lambda v: (eps * k2 * v + np.fft.rfft(
        exp_phi * np.fft.irfft(v, band.n_points))[: k2.size])
    m_inv = 1.0 / (eps * k2 + np.mean(exp_phi))
    x, r = np.zeros_like(f), f.copy()
    z = m_inv * r
    p, rz = z.copy(), dot(r, z)
    for k in range(1, poisson.CG_MAX_ITERS + 1):
        ap = apply(p)
        alpha = rz / dot(p, ap)
        x, r = x + alpha * p, r - alpha * ap
        if np.sqrt(dot(r, r)) <= target:
            return x, k
        z = m_inv * r
        rz, rz_old = dot(r, z), rz
        p = z + (rz / rz_old) * p
    raise AssertionError("the textbook CG did not converge")


@pytest.mark.parametrize("n_points", [64, 256])
@pytest.mark.parametrize("eps", [1e-1, 1e-4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_newton_step_matches_textbook_pcg(n_points, eps, seed):
    # seeded systems: e^phi spreads over a factor up to e, the right side is
    # the band part of a smooth field; the CG work stack starts as NaN,
    # so every vector must be set before it is read, and a second solve
    # through the same stack must repeat the first
    grid = Grid(n_points)
    band = poisson._band(grid)
    rng = np.random.default_rng(seed)
    phi, rhs = random_smooth_fields(grid, rng, 2, max_mode=8)
    exp_phi = np.exp(0.5 * phi / np.abs(phi).max())
    f = 1e-3 * band.project(rhs)
    res_norm, tol = band.norm(f), 1e-12
    work = np.full((6, band.k2.size), np.nan + 0j)
    got, count = poisson._newton_step(band, eps * band.k2, exp_phi, f, res_norm,
                                      tol, work)
    target = max(poisson.CG_RTOL * res_norm, poisson.CG_FLOOR * tol)
    want, want_count = _textbook_pcg(band, eps, exp_phi, f, target)
    assert count == want_count
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    first = got.copy()
    again, again_count = poisson._newton_step(band, eps * band.k2, exp_phi, f,
                                              res_norm, tol, work)
    assert again_count == count and np.array_equal(again, first)


def test_cg_iteration_cap_raises(monkeypatch):
    grid = Grid(64)
    n = Field(grid, 1.0 + 0.5 * np.sin(2 * np.pi * grid.x))
    monkeypatch.setattr(poisson, "CG_MAX_ITERS", 1)
    with pytest.raises(PBConvergenceError, match="CG"):
        solve_phi(n, 1e-2)


@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_warm_solve_transform_calls(fft_calls, eps):
    # from a carried (values, band coefficients) guess a solve transforms
    # once for its first residual, twice per CG iteration and twice for
    # the accepted trial: 3 + 2 k calls for one Newton step of k CG
    # iterations, where a projected guess would cost 5 + 2 k
    grid = Grid(64)
    opts = PBSolveOptions()
    wave = np.sin(2 * np.pi * grid.x)
    n = 1.0 + 0.1 * wave
    phi = poisson._solve_phi_values(grid, n, eps, opts)[0]
    fft_calls.clear()
    _, _, newton, cg, _ = poisson._solve_phi_values(grid, n * (1.0 + 1e-7 * wave),
                                                    eps, opts, phi)
    assert newton == 1
    assert len(fft_calls) == 3 + 2 * cg


def test_band_cache_stays_fixed_across_eps():
    # the band data carries no eps, so a solve at a new eps adds nothing
    grid = Grid(64)
    n = Field(grid, 1.0 + 0.1 * np.sin(2 * np.pi * grid.x))
    sizes = []
    for eps in np.geomspace(1e-1, 1e-5, 20):
        solve_phi(n, eps)
        sizes.append(len(grid._cache))
    assert sizes == [sizes[0]] * 20
