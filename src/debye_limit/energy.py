"""Weighted energy functionals and structural identity checks.

The uniform-in-eps boundedness argument rests on a small number of
mechanical facts that are checked here numerically:

* the weighted energies (kinetic, potential, gradient, viscous,
  Laplacian) are nonnegative as long as the density stays inside its
  positivity bracket;
* the exact kinetic-energy balance
  d/dt (1/2)||d^g u1||^2 = I + II + III + IV holds along recorded
  trajectories up to the centered-difference error in time;
* sup-in-time triple norms across an eps sweep stay within a fixed
  factor of their value at the largest eps (the Gronwall-type bound);
* commutator estimates of Kato-Ponce type hold with a uniform constant
  over random smooth field pairs and orders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    MAX_DERIVATIVE_ORDER,
    Field,
    Grid,
    _dealias_values,
    _derivative_values,
    _integral_values,
    _l2_values,
)
from .io_utils import write_csv
from .remainder import Remainder

__all__ = [
    "EnergySnapshot",
    "energy_snapshot",
    "IdentityReport",
    "identity_2_12_check",
    "GronwallReport",
    "gronwall_monitor",
    "KPSample",
    "kato_ponce_sample",
    "write_ledger_csv",
]


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
    """Outcome of the kinetic-balance check along one trajectory."""

    gamma: int
    spacing: float
    defect: float
    times: tuple
    lhs: tuple
    rhs: tuple
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
    if stride < 1:
        raise ValueError("stride must be a positive integer")
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
    return IdentityReport(
        gamma=snapshots.gamma,
        spacing=spacing,
        defect=float(np.max(defects)),
        times=tuple(times[1:-1]),
        lhs=tuple(lhs),
        rhs=tuple(rhs),
        defects=tuple(defects),
    )


@dataclass(frozen=True)
class GronwallReport:
    s: int
    bound_factor: float
    reference_eps: float
    reference_value: float
    sup_norms: tuple  # (eps, sup_t combined) pairs, input order
    verdict: str  # "PASS" | "FAIL" | "INCONCLUSIVE"


def gronwall_monitor(sups, s: int, bound_factor: float = 2.0,
                     blew_up: bool = False) -> GronwallReport:
    """Uniform-boundedness verdict for the combined triple norm.

    ``sups`` holds one ``(eps, sup-in-time combined H^s norm)`` pair per
    sweep member. PASS when every sup stays within ``bound_factor``
    times the value at the largest eps; INCONCLUSIVE when a member blew
    up before t_end.
    """
    sups = tuple(sups)
    if not sups:
        raise ValueError("gronwall_monitor needs at least one sweep member")
    if not (bound_factor > 0.0):
        raise ValueError("bound_factor must be positive")
    ref_eps, ref_value = max(sups, key=lambda pair: pair[0])
    if blew_up:
        verdict = "INCONCLUSIVE"
    elif all(sup <= bound_factor * ref_value for _, sup in sups):
        verdict = "PASS"
    else:
        verdict = "FAIL"
    return GronwallReport(s, bound_factor, ref_eps, ref_value, sups, verdict)


def _upsample(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Spectral interpolation of a field or stack onto the 2x finer grid.

    Exact for band-limited data; the coarse Nyquist coefficient is split
    between its two images on the fine grid.
    """
    n = grid.n_points
    rhat = np.fft.rfft(values)
    fine = np.zeros(rhat.shape[:-1] + (n + 1,), dtype=complex)
    fine[..., : n // 2 + 1] = rhat
    fine[..., n // 2] *= 0.5
    return np.fft.irfft(fine, n=2 * n) * 2


@dataclass(frozen=True)
class KPSample:
    k: int
    lhs: float
    rhs: float
    ratio: float


def kato_ponce_sample(f: Field, g: Field,
                      orders=(1, 2, 3)) -> tuple[KPSample, ...]:
    """Commutator-estimate samples of one field pair, one per order k.

    lhs = ||d^k(fg) - f d^k g||_L2 evaluated on a 2x oversampled grid
    (the product of two resolved fields is then alias-free); rhs is the
    product-rule majorant max|f_x| * ||d^(k-1) g|| + ||d^k f|| * max|g|
    built from homogeneous top-derivative norms. The orders share their
    transforms: one upsampling of (f, g), one forward transform of
    (f, g, fg) and one inverse of every derivative the orders use.
    """
    orders = tuple(orders)
    if not orders or not all(isinstance(k, (int, np.integer))
                             and 1 <= k <= MAX_DERIVATIVE_ORDER for k in orders):
        raise ValueError(f"commutator orders must be integers in "
                         f"1..{MAX_DERIVATIVE_ORDER}, got {orders}")
    grid = f.grid
    if g.grid != grid:
        raise ValueError("f and g must share a grid")
    fine_grid = Grid(2 * grid.n_points, grid.length)
    fv, gv = _upsample(grid, np.array((f.values, g.values)))
    hats = np.fft.rfft(np.array((fv * gv, gv, fv)))
    # d[a - 1] holds (d^a(fg), d^a g, d^a f) for a = 1..max(orders)
    d = np.fft.irfft(np.array([fine_grid.derivative_symbol(a) * hats
                              for a in range(1, max(orders) + 1)]),
                     fine_grid.n_points)
    df_max, g_max = np.max(np.abs(d[0, 2])), np.max(np.abs(gv))
    samples = []
    for k in orders:
        lhs = _l2_values(fine_grid, d[k - 1, 0] - fv * d[k - 1, 1])
        dkm1_g = gv if k == 1 else d[k - 2, 1]
        rhs = float(df_max * _l2_values(fine_grid, dkm1_g)
                    + _l2_values(fine_grid, d[k - 1, 2]) * g_max)
        samples.append(KPSample(k, lhs, rhs, lhs / rhs if rhs > 0.0 else 0.0))
    return tuple(samples)


def write_ledger_csv(snapshots: EnergySnapshot, defects, path) -> None:
    """Energy ledger rows; ``defects`` maps interior row index -> defect."""
    s = snapshots
    columns = (s.e_kin, s.e_phi, s.e_grad, s.e_visc, s.e_lap,
               s.term_i, s.term_ii, s.term_iii, s.term_iv)
    rows = [(t, s.gamma, *(c[i] for c in columns), defects.get(i, float("nan")))
            for i, t in enumerate(s.t)]
    write_csv(path, "t,gamma,e_kin,e_phi,e_grad,e_visc,e_lap,I,II,III,IV,defect",
              rows)
