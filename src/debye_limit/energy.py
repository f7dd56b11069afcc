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
  over random smooth field pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, _dealias_values, _derivative_values
from .io_utils import write_csv
from .remainder import Remainder, triple_norm

__all__ = [
    "EnergySnapshot",
    "energy_snapshot",
    "IdentityReport",
    "identity_2_12_check",
    "SweepMember",
    "GronwallReport",
    "gronwall_monitor",
    "KPSample",
    "kato_ponce_sample",
    "write_ledger_csv",
]


@dataclass(frozen=True)
class EnergySnapshot:
    """Weighted energies and kinetic-balance terms at one instant.

    All five energies are integrals of squares against positive weights
    and are nonnegative by construction. ``term_i`` through ``term_iv``
    are the forcing, self-advection, transport and stretching
    contributions to d/dt of the kinetic part.
    """

    t: float
    gamma: int
    e_kin: float
    e_phi: float
    e_grad: float
    e_visc: float
    e_lap: float
    term_i: float
    term_ii: float
    term_iii: float
    term_iv: float


def _integral(grid: Grid, values: np.ndarray) -> float:
    return float(np.mean(values) * grid.length)


def energy_snapshot(rem: Remainder, lim_state, gamma: int) -> EnergySnapshot:
    """Evaluate the weighted energies for one remainder snapshot.

    The full-flow density is reconstructed as n0 + eps*n1 and must stay
    strictly positive; outside that bracket the weights 1/n_eps lose
    meaning and a ValueError is raised.
    """
    grid = rem.n1.grid
    eps = rem.eps
    n0 = lim_state.n.values
    u0 = lim_state.u.values
    n_eps = n0 + eps * rem.n1.values
    if np.min(n_eps) <= 0.0 or np.min(n0) <= 0.0:
        raise ValueError(
            "density bracket violated: the reconstructed full-flow density "
            f"has min {np.min(n_eps):.3e}; weighted energies need it positive"
        )

    dg = lambda v: _derivative_values(grid, v, gamma)
    dx = lambda v: _derivative_values(grid, v, 1)
    dA = lambda v: _dealias_values(grid, v)

    u1 = rem.u1.values
    phi1 = rem.phi1.values
    dg_u1 = dg(u1)
    dg_phi1 = dg(phi1)
    dg_dx_phi1 = dg(dx(phi1))
    dg_dx_u1 = dg(dx(u1))
    dg_lap_phi1 = dg(_derivative_values(grid, phi1, 2))

    e_kin = 0.5 * _integral(grid, dg_u1**2)
    e_phi = 0.5 * _integral(grid, (n0 / n_eps) * dg_phi1**2)
    e_grad = 0.5 * eps * _integral(grid, dg_dx_phi1**2 / n_eps)
    e_visc = 0.5 * eps * _integral(grid, dg_dx_u1**2)
    e_lap = 0.5 * eps**2 * _integral(grid, dg_lap_phi1**2 / n_eps)

    term_i = -_integral(grid, dg_dx_phi1 * dg_u1)
    term_ii = -eps * _integral(grid, dg(dA(u1 * dx(u1))) * dg_u1)
    term_iii = -_integral(grid, dg(dA(u0 * dx(u1))) * dg_u1)
    term_iv = -_integral(grid, dg(dA(u1 * dx(u0))) * dg_u1)

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


def identity_2_12_check(remainders, lim_states, gamma: int,
                        stride: int = 1) -> IdentityReport:
    """Compare centered-difference d/dt of the kinetic energy with I+II+III+IV.

    ``stride`` subsamples the recorded snapshots, so one densely
    recorded run can be checked at several effective spacings. The
    relative defect is normalized by the largest magnitude either side
    attains over the window, which keeps equilibrium trajectories at
    exactly zero defect.
    """
    if stride < 1:
        raise ValueError("stride must be a positive integer")
    rems = remainders[::stride]
    lims = lim_states[::stride]
    if len(rems) < 3:
        raise ValueError(
            "need at least three recorded snapshots for a centered difference"
        )
    times = np.array([r.t for r in rems])
    gaps = np.diff(times)
    spacing = float(gaps[0])
    if np.max(np.abs(gaps - spacing)) > 1e-9 * max(spacing, 1.0):
        raise ValueError("recorded times are not uniformly spaced")

    snaps = [energy_snapshot(r, l, gamma) for r, l in zip(rems, lims)]
    e_kin = np.array([s.e_kin for s in snaps])
    rhs_all = np.array([s.term_i + s.term_ii + s.term_iii + s.term_iv
                        for s in snaps])
    lhs = (e_kin[2:] - e_kin[:-2]) / (2.0 * spacing)
    rhs = rhs_all[1:-1]
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), 1e-300)
    defects = np.abs(lhs - rhs) / scale
    return IdentityReport(
        gamma=gamma,
        spacing=spacing,
        defect=float(np.max(defects)),
        times=tuple(times[1:-1]),
        lhs=tuple(lhs),
        rhs=tuple(rhs),
        defects=tuple(defects),
    )


@dataclass(frozen=True)
class SweepMember:
    """One eps of a sweep, reduced to what the monitors need."""

    eps: float
    remainders: tuple
    blew_up: bool = False


@dataclass(frozen=True)
class GronwallReport:
    s: int
    bound_factor: float
    reference_eps: float
    reference_value: float
    sup_norms: tuple  # (eps, sup_t combined) pairs, input order
    verdict: str  # "PASS" | "FAIL" | "INCONCLUSIVE"


def gronwall_monitor(members, s: int, bound_factor: float = 2.0) -> GronwallReport:
    """Uniform-boundedness verdict for the combined triple norm.

    PASS when every member's sup-in-time combined norm stays within
    ``bound_factor`` times the value at the largest eps; INCONCLUSIVE
    when any member blew up before t_end.
    """
    if not members:
        raise ValueError("gronwall_monitor needs at least one sweep member")
    if not (bound_factor > 0.0):
        raise ValueError("bound_factor must be positive")
    sups = []
    for m in members:
        sup = max((triple_norm(r, s).combined for r in m.remainders),
                  default=float("nan"))
        sups.append((m.eps, sup))
    ref_eps, ref_value = max(sups, key=lambda pair: pair[0])
    if any(m.blew_up for m in members):
        verdict = "INCONCLUSIVE"
    elif all(sup <= bound_factor * ref_value for _, sup in sups):
        verdict = "PASS"
    else:
        verdict = "FAIL"
    return GronwallReport(s, bound_factor, ref_eps, ref_value,
                          tuple(sups), verdict)


def _upsample(grid: Grid, values: np.ndarray, factor: int = 2) -> np.ndarray:
    """Spectral interpolation onto a grid refined by ``factor``.

    Exact for band-limited data; the coarse Nyquist coefficient is split
    between its two images on the fine grid.
    """
    n = grid.n_points
    rhat = np.fft.rfft(values)
    fine = np.zeros(factor * n // 2 + 1, dtype=complex)
    fine[: n // 2 + 1] = rhat
    fine[n // 2] *= 0.5
    return np.fft.irfft(fine, n=factor * n) * factor


@dataclass(frozen=True)
class KPSample:
    k: int
    lhs: float
    rhs: float
    ratio: float


def kato_ponce_sample(f: Field, g: Field, k: int) -> KPSample:
    """One commutator-estimate sample.

    lhs = ||d^k(fg) - f d^k g||_L2 evaluated on a 2x oversampled grid
    (the product of two resolved fields is then alias-free); rhs is the
    product-rule majorant max|f_x| * ||d^(k-1) g|| + ||d^k f|| * max|g|
    built from homogeneous top-derivative norms.
    """
    if k < 1:
        raise ValueError(f"commutator order must be >= 1, got {k}")
    grid = f.grid
    if g.grid != grid:
        raise ValueError("f and g must share a grid")
    fine_grid = Grid(2 * grid.n_points, grid.length)
    fv = _upsample(grid, f.values)
    gv = _upsample(grid, g.values)
    commutator = (
        _derivative_values(fine_grid, fv * gv, k)
        - fv * _derivative_values(fine_grid, gv, k)
    )
    lhs = float(np.sqrt(np.mean(commutator**2) * fine_grid.length))
    df = _derivative_values(fine_grid, fv, 1)
    dk_f = _derivative_values(fine_grid, fv, k)
    dkm1_g = _derivative_values(fine_grid, gv, k - 1)
    rhs = float(
        np.max(np.abs(df)) * np.sqrt(np.mean(dkm1_g**2) * fine_grid.length)
        + np.sqrt(np.mean(dk_f**2) * fine_grid.length) * np.max(np.abs(gv))
    )
    ratio = lhs / rhs if rhs > 0.0 else 0.0
    return KPSample(k, lhs, rhs, ratio)


def write_ledger_csv(snapshots, defects, path) -> None:
    """Energy ledger rows; ``defects`` maps interior row index -> defect."""
    rows = []
    for i, s in enumerate(snapshots):
        defect = defects.get(i, float("nan"))
        rows.append((s.t, s.gamma, s.e_kin, s.e_phi, s.e_grad, s.e_visc,
                     s.e_lap, s.term_i, s.term_ii, s.term_iii, s.term_iv,
                     defect))
    write_csv(path, "t,gamma,e_kin,e_phi,e_grad,e_visc,e_lap,I,II,III,IV,defect",
              rows)
