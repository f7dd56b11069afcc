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
the spread of ``exp(phi)`` but not on the grid size. CG is inexact in
the sense of Eisenstat and Walker: it stops at ``CG_RTOL`` times the
Newton residual or ``CG_FLOOR`` times the Newton tolerance, whichever
is larger, so CG does not chase digits that the Newton exit test never
reads. The Boltzmann nonlinearity pins the constant mode, so no mean
normalization is applied. In the eps -> 0 limit the potential
degenerates to ln n, the default initial guess.

Every solve also returns the band coefficients of its answer plus one
preconditioned Richardson correction, ``residual / (eps k^2 +
mean(exp(phi)))``, for a caller that extrapolates later guesses from
earlier solutions (the successive right-hand sides of a time
integration). A guess that passes the exit test as it is carries an
error near ``tol``, and an order-4 extrapolation amplifies the errors of
its history up to 15 times, so a history of such guesses holds the next
guesses at about three times ``tol``, each then paying a Newton step.
The correction is clean to round-off where the residual is linear in the
error, and it reads the residual the exit test already formed, so it
costs no transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid


# CG for one Newton correction stops once its residual is below
# CG_RTOL times the Newton residual or CG_FLOOR times the Newton tol,
# whichever is larger (an inexact-Newton forcing term): a linear
# residual that small adds at most 1% of tol to the next Newton
# residual, so further digits only cost iterations. The
# preconditioned count is set by max/min of exp(phi), not by the
# grid: at most ~20 per correction at density ratio 3.
CG_RTOL = 1e-10
CG_FLOOR = 0.01
CG_MAX_ITERS = 500
# the line search halves the Newton step at most four times (1 ... 1/16)
DAMPING_MIN = 0.0625
# Newton steps before a solve fails
MAX_NEWTON_ITERS = 50


class PBConvergenceError(RuntimeError):
    """Newton or its linear solve failed; carries the last residual norm."""

    def __init__(self, message: str, last_residual: float):
        super().__init__(f"{message} (last residual {last_residual:.3e})")
        self.last_residual = last_residual


@dataclass(frozen=True)
class PBSolveOptions:
    tol: float = 1e-12

    def __post_init__(self):
        if not (self.tol > 0.0):
            raise ValueError(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class PBSolution:
    phi: Field
    residual_l2: float
    iterations: int


class _Band:
    """The rfft coefficients of the dealiased band, modes 0..n_points//3.

    Band functions are carried as these coefficients. ``norm`` is the
    L2 norm of the function they represent (Parseval), so tolerances
    mean the same thing as for the pointwise residual. Nothing here
    depends on eps: each grid keeps one band in its cache, and a solve
    forms the symbol ``eps * k2`` of ``-eps d^2/dx^2`` itself.
    """

    def __init__(self, grid: Grid):
        self.n_points = grid.n_points
        self.k2 = grid.k[grid.keep] ** 2
        self.k2_max = float(self.k2[-1])
        # the L2 Parseval weight on the band; complex-typed, so the
        # weighted product needs no cast
        self.weight = grid.hs_weight(0)[grid.keep] + 0j
        self.k2.flags.writeable = self.weight.flags.writeable = False

    def project(self, values: np.ndarray) -> np.ndarray:
        return np.fft.rfft(values)[: self.k2.size]

    def values(self, coeffs: np.ndarray) -> np.ndarray:
        return np.fft.irfft(coeffs, self.n_points)  # zero-pads the cut modes

    def limited(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The band part of ``values`` as the pair (values, coefficients)."""
        coeffs = self.project(values)
        return self.values(coeffs), coeffs

    def dot(self, a: np.ndarray, b: np.ndarray, scratch=None) -> float:
        return float(np.vdot(a, np.multiply(self.weight, b, out=scratch)).real)

    def norm(self, coeffs: np.ndarray, scratch=None) -> float:
        return math.sqrt(self.dot(coeffs, coeffs, scratch))


def _band(grid: Grid) -> _Band:
    return grid._cached("band", lambda: _Band(grid))


def _band_residual(band: _Band, eps_k2: np.ndarray, phi_hat: np.ndarray,
                   exp_phi: np.ndarray, n: np.ndarray) -> np.ndarray:
    return band.project(n - exp_phi) - eps_k2 * phi_hat


def _preconditioner(band: _Band, eps_k2: np.ndarray, exp_phi: np.ndarray) -> np.ndarray:
    """The Fourier symbol ``eps k^2 + mean(e^phi)`` of the band Jacobian's
    constant-coefficient part: CG's preconditioner, and the inverse that
    turns a residual into the correction of a solution a history keeps."""
    return eps_k2 + np.add.reduce(exp_phi) / band.n_points  # the bits of mean()


def _newton_step(band: _Band, eps_k2: np.ndarray, exp_phi: np.ndarray,
                 residual: np.ndarray, res_norm: float, tol: float,
                 work: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve P(-eps v'' + e^phi v) = F on the band by preconditioned CG.

    The operator is symmetric positive definite on the band, and the
    constant-coefficient symbol eps k^2 + mean(e^phi) is diagonal in
    Fourier space and spectrally equivalent to it, so the iteration
    count depends on the spread of e^phi but not on the grid. CG stops
    at ``max(CG_RTOL * res_norm, CG_FLOOR * tol)``, ``tol`` being the
    Newton exit test. ``work``, a complex ``(6, K)`` stack, holds the CG
    vectors, updated in place; the correction returned is its first row.
    """
    delta, r, z, p, ap, tmp = work
    symbol = _preconditioner(band, eps_k2, exp_phi)
    target = max(CG_RTOL * res_norm, CG_FLOOR * tol)
    delta.fill(0.0)
    np.copyto(r, residual)
    np.copyto(p, np.divide(r, symbol, out=z))
    rz = band.dot(r, z, tmp)
    for count in range(1, CG_MAX_ITERS + 1):
        v = band.values(p)
        np.multiply(eps_k2, p, out=ap)
        ap += band.project(np.multiply(exp_phi, v, out=v))
        pap = band.dot(p, ap, tmp)
        if not pap > 0.0:  # the operator is positive; overflow can hide it
            raise PBConvergenceError("Newton linear solve broke down",
                                     res_norm)
        alpha = rz / pap
        delta += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, ap, out=tmp)
        if band.norm(r, tmp) <= target:
            return delta, count
        np.divide(r, symbol, out=z)
        rz_next = band.dot(r, z, tmp)
        np.add(z, np.multiply(rz_next / rz, p, out=p), out=p)
        rz = rz_next
    raise PBConvergenceError(f"Newton linear solve did not converge within "
                             f"{CG_MAX_ITERS} CG iterations", res_norm)


def _solve_phi_values(grid: Grid, n: np.ndarray, eps: float, opts: PBSolveOptions,
                      guess: tuple[np.ndarray, np.ndarray] | None = None,
                      ) -> tuple[tuple[np.ndarray, np.ndarray], float, int, int, np.ndarray]:
    """Damped Newton-CG; returns (phi, residual, Newton and CG counts, kept).

    ``guess`` and ``phi`` are pairs (values, band coefficients), so a warm
    start transforms nothing; the default guess is ln n on the band.
    ``kept`` holds band coefficients only: those of ``phi`` plus one
    preconditioned Richardson correction, residual / (eps k^2 + mean
    e^phi), formed from the exit test's residual with no transform, for a
    caller that extrapolates later guesses from it.
    """
    if not (eps > 0.0):
        raise ValueError(f"eps must be positive, got {eps}")
    low = n.min()
    if low <= 0.0:
        raise ValueError(f"density must be strictly positive, min(n) = {low:.3e}")
    band = _band(grid)
    # Python floats overflow to inf without a numpy warning; stop before
    # the band symbol eps*k^2 turns into inf or nan
    if not math.isfinite(float(eps) * band.k2_max):
        raise PBConvergenceError(
            f"eps = {eps:g} overflows the symbol eps*k^2", float("nan"))
    eps_k2 = eps * band.k2
    # the residual is dealiased, so modes above the cutoff are invisible
    # to Newton; keep every iterate inside the band or initializer tail
    # junk rides along into the answer untouched
    phi, phi_hat = band.limited(np.log(n)) if guess is None else guess
    exp_phi = np.exp(phi)
    residual = _band_residual(band, eps_k2, phi_hat, exp_phi, n)
    res_norm = band.norm(residual)
    work = np.empty((6, band.k2.size), complex)  # CG's vectors, for every step
    linear_iters = 0
    for iteration in range(MAX_NEWTON_ITERS + 1):
        if res_norm <= opts.tol:
            kept = phi_hat + residual / _preconditioner(band, eps_k2, exp_phi)
            return (phi, phi_hat), res_norm, iteration, linear_iters, kept
        if iteration == MAX_NEWTON_ITERS:
            raise PBConvergenceError(f"Newton did not reach tol={opts.tol:.1e} within "
                                     f"{MAX_NEWTON_ITERS} iterations", res_norm)
        delta, count = _newton_step(band, eps_k2, exp_phi, residual, res_norm,
                                    opts.tol, work)
        linear_iters += count
        lam = 1.0
        while True:
            trial_hat = phi_hat + lam * delta
            trial = band.values(trial_hat)
            trial_exp = np.exp(trial)
            trial_residual = _band_residual(band, eps_k2, trial_hat, trial_exp,
                                            n)
            trial_norm = band.norm(trial_residual)
            if trial_norm < res_norm:
                phi_hat, phi, exp_phi = trial_hat, trial, trial_exp
                residual, res_norm = trial_residual, trial_norm
                break
            lam *= 0.5
            if lam < DAMPING_MIN:
                raise PBConvergenceError(
                    "Newton line search stalled at the damping floor", res_norm)
    raise AssertionError("unreachable")


def solve_phi(n: Field, eps: float, opts: PBSolveOptions | None = None) -> PBSolution:
    """Solve eps*phi'' = exp(phi) - n by damped Newton-CG.

    The initializer is the limit potential ln n, which is an O(eps)
    guess for smooth positive densities. The residual norm of the
    returned solution is at or below ``opts.tol``.
    """
    (phi, _), res_norm, iters, _, _ = _solve_phi_values(
        n.grid, n.values, eps, opts or PBSolveOptions())
    return PBSolution(Field(n.grid, phi), res_norm, iters)
