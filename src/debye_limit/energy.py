"""Weighted energy functionals and structural identity checks.

The uniform-in-eps boundedness argument rests on a small number of
mechanical facts that are checked here numerically:

* the weighted energies (kinetic, potential, gradient, viscous,
  Laplacian) are nonnegative as long as the density stays inside its
  positivity bracket;
* the exact kinetic-energy balance
  d/dt (1/2)||d^g u1||^2 = I + II + III + IV holds along recorded
  trajectories up to the centered-difference error in time;
* commutator estimates of Kato-Ponce type hold with a uniform constant
  over random smooth field pairs and orders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    MAX_DERIVATIVE_ORDER,
    Grid,
    _dealias_values,
    _derivative_values,
    _integral_values,
    _l2_values,
)
from .io_utils import write_csv
from .remainder import Remainder


@dataclass(frozen=True)
class EnergySnapshot:
    """Weighted energies and kinetic-balance terms of a remainder stack.

    All five energies are integrals of squares against positive weights
    and are nonnegative by construction. ``term_i`` through ``term_iv``
    are the forcing, self-advection, transport and stretching
    contributions to d/dt of the kinetic part. Every field but
    ``gamma`` is a ``(T,)`` array, one entry per recorded time.
    """

    t: np.ndarray
    gamma: int
    e_kin: np.ndarray
    e_phi: np.ndarray
    e_grad: np.ndarray
    e_visc: np.ndarray
    e_lap: np.ndarray
    term_i: np.ndarray
    term_ii: np.ndarray
    term_iii: np.ndarray
    term_iv: np.ndarray


def energy_snapshot(rem: Remainder, gamma: int) -> EnergySnapshot:
    """Evaluate the weighted energies at every row of a remainder stack.

    The full-flow density is reconstructed as n0 + eps*n1 and must stay
    strictly positive; outside that bracket the weights 1/n_eps lose
    meaning and a ValueError is raised.
    """
    grid = rem.grid
    eps = rem.eps
    n0, u0, u1, phi1 = rem.n0, rem.u0, rem.u1, rem.phi1
    n_eps = n0 + eps * rem.n1
    if np.min(n_eps) <= 0.0 or np.min(n0) <= 0.0:
        raise ValueError(
            "density bracket violated: the reconstructed full-flow density "
            f"has min {np.min(n_eps):.3e}; weighted energies need it positive"
        )

    dg = lambda v: _derivative_values(grid, v, gamma)
    dx = lambda v: _derivative_values(grid, v, 1)
    dA = lambda v: _dealias_values(grid, v)
    integral = lambda v: _integral_values(grid, v)

    # each term is reduced to (T,) as soon as it is formed, so only the
    # stacks that several terms share stay alive
    dg_u1 = dg(u1)
    u1_x = dx(u1)
    e_kin = 0.5 * integral(dg_u1**2)
    e_phi = 0.5 * integral((n0 / n_eps) * dg(phi1)**2)
    e_visc = 0.5 * eps * integral(dg(u1_x)**2)
    e_lap = 0.5 * eps**2 * integral(dg(_derivative_values(grid, phi1, 2))**2 / n_eps)
    dg_dx_phi1 = dg(dx(phi1))
    e_grad = 0.5 * eps * integral(dg_dx_phi1**2 / n_eps)
    term_i = -integral(dg_dx_phi1 * dg_u1)
    term_ii = -eps * integral(dg(dA(u1 * u1_x)) * dg_u1)
    term_iii = -integral(dg(dA(u0 * u1_x)) * dg_u1)
    term_iv = -integral(dg(dA(u1 * dx(u0))) * dg_u1)

    return EnergySnapshot(rem.t, gamma, e_kin, e_phi, e_grad, e_visc, e_lap,
                          term_i, term_ii, term_iii, term_iv)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of the kinetic-balance check along one trajectory: the
    relative ``defects`` at the interior subsampled times, their maximum
    ``defect`` and the ``spacing`` of the subsampled records."""

    spacing: float
    defect: float
    defects: tuple


def identity_2_12_check(snapshots: EnergySnapshot, stride: int = 1) -> IdentityReport:
    """Compare centered-difference d/dt of the kinetic energy with I+II+III+IV.

    ``snapshots`` are the energies of one run at its recorded times, at
    one ``gamma``. ``stride`` subsamples them, so one densely recorded
    run can be checked at several effective spacings. The relative
    defect is normalized by the largest magnitude either side attains
    over the window, which keeps equilibrium trajectories at exactly
    zero defect.
    """
    times = snapshots.t[::stride]
    if len(times) < 3:
        raise ValueError(
            "need at least three recorded snapshots for a centered difference"
        )
    gaps = np.diff(times)
    spacing = float(gaps[0])
    if np.max(np.abs(gaps - spacing)) > 1e-9 * max(spacing, 1.0):
        raise ValueError("recorded times are not uniformly spaced")

    e_kin = snapshots.e_kin[::stride]
    rhs_all = (snapshots.term_i + snapshots.term_ii + snapshots.term_iii
               + snapshots.term_iv)[::stride]
    lhs = (e_kin[2:] - e_kin[:-2]) / (2.0 * spacing)
    rhs = rhs_all[1:-1]
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), 1e-300)
    defects = np.abs(lhs - rhs) / scale
    return IdentityReport(spacing, float(np.max(defects)), tuple(defects))


def kato_ponce_sample(f: np.ndarray, g: np.ndarray, orders, grid: Grid):
    """Commutator-estimate samples of a block of field pairs: rows p of
    the ``(P, N)`` stacks ``f``, ``g`` on ``grid`` are pair p. Returns
    ``(lhs, rhs, ratio)``, three ``(P, K)`` arrays with order ``orders[j]``
    in column j; each row has the bits of a one-pair block.

    lhs = ||d^k(fg) - f d^k g||_L2 evaluated on a 2x oversampled grid
    (the product of two resolved fields is then alias-free); rhs is the
    product-rule majorant max|f_x| * ||d^(k-1) g|| + ||d^k f|| * max|g|
    built from homogeneous top-derivative norms; ratio = lhs / rhs where
    rhs > 0, else 0. Pairs and orders share one upsampling of (f, g), one
    forward transform of (fg, g, f) and one inverse of every derivative
    the orders use.
    """
    orders = tuple(orders)
    if not orders or not all(isinstance(k, (int, np.integer))
                             and 1 <= k <= MAX_DERIVATIVE_ORDER for k in orders):
        raise ValueError(f"commutator orders must be integers in "
                         f"1..{MAX_DERIVATIVE_ORDER}, got {orders}")
    if np.ndim(f) != 2 or np.shape(g) != np.shape(f) or np.shape(f)[1] != grid.n_points:
        raise ValueError(f"blocks must be two (P, {grid.n_points}) stacks, "
                         f"got {np.shape(f)} and {np.shape(g)}")
    # the 2x grid and its symbols are built once per coarse grid
    fine_grid = grid._cached("fine", lambda: Grid(2 * grid.n_points))
    # exact interpolation of band-limited data; Nyquist splits between its images
    n = grid.n_points
    fine = np.zeros((2, len(f), n + 1), dtype=complex)
    fine[..., : n // 2 + 1] = np.fft.rfft(np.array((f, g)))
    fine[..., n // 2] *= 0.5
    fv, gv = np.fft.irfft(fine, n=2 * n) * 2
    del fine  # stacks go once read: this peak memory is what limits cli.KP_BLOCK
    # spectra[a - 1] holds those of (d^a(fg), d^a g, d^a f) for a = 1..max(orders);
    # a = 1 comes last, in place over the undifferentiated ones
    spectra = np.empty((max(orders), 3, len(f), n + 1), complex)
    spectra[0] = np.fft.rfft(np.array((fv * gv, gv, fv)))
    for a in range(len(spectra), 0, -1):
        np.multiply(fine_grid.derivative_symbol(a), spectra[0], out=spectra[a - 1])
    d = np.fft.irfft(spectra, fine_grid.n_points)
    del spectra
    l2 = lambda v: _l2_values(fine_grid, v)  # norms of views, one per (a, pair) row
    dg_norms = np.concatenate((l2(gv)[None], l2(d[:, 1])))  # d^a g for a = 0..max
    df_max = np.max(np.abs(d[0, 2]), axis=-1)
    g_max = np.max(np.abs(gv), axis=-1)
    k1 = np.array(orders) - 1
    rhs = (df_max * dg_norms[k1] + l2(d[:, 2])[k1] * g_max).T
    lhs = l2(d[:, 0] - np.multiply(fv, d[:, 1], out=d[:, 1]))[k1].T
    ratio = np.divide(lhs, rhs, out=np.zeros_like(lhs), where=rhs > 0.0)
    return lhs, rhs, ratio


def write_ledger_csv(snapshots: EnergySnapshot, defects, path) -> None:
    """Energy ledger rows; ``defects`` maps interior row index -> defect."""
    s = snapshots
    columns = (s.e_kin, s.e_phi, s.e_grad, s.e_visc, s.e_lap,
               s.term_i, s.term_ii, s.term_iii, s.term_iv)
    rows = [(t, s.gamma, *(c[i] for c in columns), defects.get(i, float("nan")))
            for i, t in enumerate(s.t)]
    write_csv(path, "t,gamma,e_kin,e_phi,e_grad,e_visc,e_lap,I,II,III,IV,defect",
              rows)
