"""Nonlinear Poisson-Boltzmann solve for the electric potential.

For a given ion density n > 0 and squared-Debye-length parameter
eps > 0 the potential solves

    eps * phi'' = exp(phi) - n        (periodic)

by a damped Newton iteration on the dealiased band (rfft modes
``|j| <= n_points/3``), where a geometric line search enforces strict
residual decrease. Each Newton correction solves the band-projected
Jacobian system ``P(-eps v'' + exp(phi) v) = F`` matrix-free by
conjugate gradients: the operator is symmetric positive definite there,
one application costs two FFTs, and the Fourier-diagonal preconditioner
``1 / (eps k^2 + mean(exp(phi)))`` makes the iteration count depend on
the spread of ``exp(phi)`` but not on the grid size. The Boltzmann
nonlinearity pins the constant mode, so no mean normalization is
applied. In the eps -> 0 limit the potential degenerates to ln n,
exposed as :func:`solve_phi_limit`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, _dealias_values

__all__ = [
    "PBSolveOptions",
    "PBSolution",
    "PBConvergenceError",
    "pb_residual",
    "solve_phi",
    "solve_phi_limit",
]


# CG for one Newton correction stops once its residual has dropped by
# CG_RTOL relative to the Newton residual; then the Newton iterates
# match exact linear solves to round-off. The preconditioned count is
# set by max/min of exp(phi), not by the grid: at most ~20 per
# correction at density ratio 3.
CG_RTOL = 1e-10
CG_MAX_ITERS = 500


class PBConvergenceError(RuntimeError):
    """Newton or its linear solve failed; carries the last residual norm."""

    def __init__(self, message: str, last_residual: float):
        super().__init__(f"{message} (last residual {last_residual:.3e})")
        self.last_residual = last_residual


@dataclass(frozen=True)
class PBSolveOptions:
    tol: float = 1e-12
    max_newton_iters: int = 50
    damping_min: float = 0.0625

    def __post_init__(self):
        if not (self.tol > 0.0):
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be at least 1")
        if not (0.0 < self.damping_min <= 1.0):
            raise ValueError(
                f"damping_min must lie in (0, 1], got {self.damping_min}"
            )


@dataclass(frozen=True)
class PBSolution:
    phi: Field
    residual_l2: float
    iterations: int
    linear_iterations: int  # CG iterations summed over the Newton steps


def pb_residual(phi: Field, n: Field, eps: float) -> Field:
    """F(phi) = eps*phi'' - exp(phi) + n, evaluated pointwise then dealiased."""
    if not (eps > 0.0):
        raise ValueError(f"eps must be positive, got {eps}")
    grid = phi.grid
    d2_phi = np.fft.ifft(-(grid.wavenumbers**2) * np.fft.fft(phi.values)).real
    return Field(grid, _dealias_values(
        grid, eps * d2_phi - np.exp(phi.values) + n.values))


class _Band:
    """The rfft coefficients of the dealiased band, modes 0..n_points//3.

    Band functions are carried as these coefficients. ``norm`` is the
    L2 norm of the function they represent (Parseval), so tolerances
    mean the same thing as for the pointwise residual. ``eps_k2`` is
    the symbol of ``-eps d^2/dx^2``.
    """

    def __init__(self, grid: Grid, eps: float):
        self.n_points = grid.n_points
        size = grid.n_points // 3 + 1
        self.eps_k2 = eps * (2.0 * np.pi / grid.length * np.arange(size)) ** 2
        # every mode but the mean stands for itself and its conjugate
        self.weight = np.full(size, 2.0)
        self.weight[0] = 1.0
        self.scale = grid.length / grid.n_points**2

    def project(self, values: np.ndarray) -> np.ndarray:
        return np.fft.rfft(values)[: self.eps_k2.size]

    def values(self, coeffs: np.ndarray) -> np.ndarray:
        return np.fft.irfft(coeffs, self.n_points)  # zero-pads the cut modes

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.vdot(a, self.weight * b).real)

    def norm(self, coeffs: np.ndarray) -> float:
        return float(np.sqrt(self.dot(coeffs, coeffs) * self.scale))


def _band_residual(band: _Band, phi_hat: np.ndarray, exp_phi: np.ndarray,
                   n: np.ndarray) -> np.ndarray:
    return band.project(n - exp_phi) - band.eps_k2 * phi_hat


def _newton_step(band: _Band, exp_phi: np.ndarray, residual: np.ndarray,
                 res_norm: float) -> tuple[np.ndarray, int]:
    """Solve P(-eps v'' + e^phi v) = F on the band by preconditioned CG.

    The operator is symmetric positive definite on the band, and the
    constant-coefficient symbol eps k^2 + mean(e^phi) is diagonal in
    Fourier space and spectrally equivalent to it, so the iteration
    count depends on the spread of e^phi but not on the grid.
    """
    symbol = band.eps_k2 + float(np.mean(exp_phi))
    target = CG_RTOL * res_norm
    delta = np.zeros_like(residual)
    r = residual.copy()
    z = r / symbol
    p = z.copy()
    rz = band.dot(r, z)
    for count in range(1, CG_MAX_ITERS + 1):
        ap = band.eps_k2 * p + band.project(exp_phi * band.values(p))
        pap = band.dot(p, ap)
        if not pap > 0.0:  # the operator is positive; overflow can hide it
            raise PBConvergenceError("Newton linear solve broke down",
                                     res_norm)
        alpha = rz / pap
        delta += alpha * p
        r -= alpha * ap
        if band.norm(r) <= target:
            return delta, count
        z = r / symbol
        rz_next = band.dot(r, z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise PBConvergenceError(
        f"Newton linear solve did not converge within {CG_MAX_ITERS} "
        f"CG iterations",
        res_norm,
    )


def _solve_phi_values(
    grid: Grid,
    n: np.ndarray,
    eps: float,
    opts: PBSolveOptions,
    phi_init: np.ndarray | None = None,
) -> tuple[np.ndarray, float, int, int]:
    """Damped Newton-CG; returns (phi, residual, Newton and CG counts)."""
    if not (eps > 0.0):
        raise ValueError(f"eps must be positive, got {eps}")
    if np.min(n) <= 0.0:
        raise ValueError(
            f"density must be strictly positive, min(n) = {np.min(n):.3e}"
        )
    band = _Band(grid, eps)
    # the residual is dealiased, so modes above the cutoff are invisible
    # to Newton; keep every iterate inside the band or initializer tail
    # junk rides along into the answer untouched
    phi_hat = band.project(np.log(n) if phi_init is None else phi_init)
    phi = band.values(phi_hat)
    exp_phi = np.exp(phi)
    residual = _band_residual(band, phi_hat, exp_phi, n)
    res_norm = band.norm(residual)
    linear_iters = 0
    for iteration in range(opts.max_newton_iters + 1):
        if res_norm <= opts.tol:
            return phi, res_norm, iteration, linear_iters
        if iteration == opts.max_newton_iters:
            raise PBConvergenceError(
                f"Newton did not reach tol={opts.tol:.1e} within "
                f"{opts.max_newton_iters} iterations",
                res_norm,
            )
        delta, count = _newton_step(band, exp_phi, residual, res_norm)
        linear_iters += count
        lam = 1.0
        while True:
            trial_hat = phi_hat + lam * delta
            trial = band.values(trial_hat)
            trial_exp = np.exp(trial)
            trial_residual = _band_residual(band, trial_hat, trial_exp, n)
            trial_norm = band.norm(trial_residual)
            if trial_norm < res_norm:
                phi_hat, phi, exp_phi = trial_hat, trial, trial_exp
                residual, res_norm = trial_residual, trial_norm
                break
            lam *= 0.5
            if lam < opts.damping_min:
                raise PBConvergenceError(
                    "Newton line search stalled at the damping floor",
                    res_norm,
                )
    raise AssertionError("unreachable")


def solve_phi(
    n: Field,
    eps: float,
    opts: PBSolveOptions | None = None,
    phi_init: Field | None = None,
) -> PBSolution:
    """Solve eps*phi'' = exp(phi) - n by damped Newton-CG.

    The default initializer is the limit potential ln n, which is an
    O(eps) guess for smooth positive densities. The residual norm of
    the returned solution is at or below ``opts.tol``.
    """
    opts = opts or PBSolveOptions()
    init = None if phi_init is None else phi_init.values
    phi, res_norm, iters, linear = _solve_phi_values(n.grid, n.values, eps,
                                                     opts, init)
    return PBSolution(Field(n.grid, phi), res_norm, iters, linear)


def solve_phi_limit(n: Field) -> Field:
    """Quasineutral potential: phi = ln n pointwise."""
    if np.min(n.values) <= 0.0:
        raise ValueError(
            f"density must be strictly positive, min(n) = {np.min(n.values):.3e}"
        )
    return Field(n.grid, np.log(n.values))
