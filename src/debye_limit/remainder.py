"""Remainder fields and their diagnostics.

Writing the full-flow solution as a first-order expansion around the
limit flow,

    n_eps = n0 + eps*n1,   u_eps = u0 + eps*u1,   phi_eps = phi0 + eps*phi1,

the remainders (n1, u1, phi1) are the objects the convergence claims
are really about: they should stay uniformly bounded as eps -> 0 in the
eps-weighted triple norms computed here. The module also evaluates the
Taylor-expansion rest term R1 of the Boltzmann nonlinearity, residuals
of the remainder evolution equations from recorded snapshots, and the
empirical constants of the elliptic density/potential estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Field,
    _dealias_values,
    _derivative_values,
    _hs_norm_values,
    hs_norm,
    l2_norm,
)
from .io_utils import write_csv
from .poisson import PBSolveOptions, _solve_phi_values

__all__ = [
    "Remainder",
    "TripleNorm",
    "form_remainder",
    "remainder_series",
    "r1_field",
    "r1_majorant",
    "triple_norm",
    "remainder_residual",
    "elliptic_ratio_pair",
    "write_remainder_csv",
]


@dataclass(frozen=True)
class Remainder:
    """First-order remainder fields at one instant."""

    t: float
    eps: float
    n1: Field
    u1: Field
    phi1: Field


@dataclass(frozen=True)
class TripleNorm:
    """eps-weighted norms of one remainder snapshot.

    ``u1_triple**2 = ||u1||_{H^s}^2 + eps*||u1_x||_{H^s}^2`` and
    ``phi1_triple**2 = ||phi1||_{H^s}^2 + eps*||phi1_x||_{H^s}^2
    + eps^2*||phi1_xx||_{H^s}^2``; ``combined`` joins the velocity and
    potential parts in quadrature. At eps = 0 every part reduces to the
    plain H^s norm.
    """

    t: float
    eps: float
    s: int
    n1_hs: float
    u1_triple: float
    phi1_triple: float
    combined: float


def form_remainder(
    ep_state,
    lim_state,
    eps: float,
    phi: Field | None = None,
    pb: PBSolveOptions | None = None,
) -> Remainder:
    """Divided differences of the paired states at one matched time.

    ``phi`` may pass in the already-solved full-flow potential (e.g.
    recorded along the trajectory); otherwise it is re-solved from
    ``ep_state.n``.
    """
    if not (eps > 0.0):
        raise ValueError(f"remainders need eps > 0, got {eps}")
    if abs(ep_state.t - lim_state.t) > 1e-12 * max(1.0, abs(ep_state.t)):
        raise ValueError(
            f"state times differ: {ep_state.t} vs {lim_state.t}"
        )
    grid = ep_state.grid
    if phi is None:
        phi_vals = _solve_phi_values(grid, ep_state.n.values, eps,
                                     pb or PBSolveOptions())[0]
    else:
        phi_vals = phi.values
    n1 = (ep_state.n.values - lim_state.n.values) / eps
    u1 = (ep_state.u.values - lim_state.u.values) / eps
    phi1 = (phi_vals - np.log(lim_state.n.values)) / eps
    return Remainder(ep_state.t, eps, Field(grid, n1), Field(grid, u1),
                     Field(grid, phi1))


def remainder_series(ep_traj, lim_traj) -> list[Remainder]:
    """Remainders at every recorded time common to the paired runs."""
    if not (ep_traj.eps > 0.0):
        raise ValueError("first trajectory must be a full-flow run")
    if lim_traj.eps != 0.0:
        raise ValueError("second trajectory must be a limit-flow run")
    count = min(len(ep_traj.phis), len(lim_traj.states))
    out = []
    for i in range(count):
        out.append(form_remainder(ep_traj.states[i], lim_traj.states[i],
                                  ep_traj.eps, phi=ep_traj.phis[i]))
    return out


def r1_field(phi0: Field, phi1: Field, n0: Field, eps: float) -> Field:
    """Taylor rest term of the Boltzmann nonlinearity.

        R1 = eps^(-3/2) * (n0 + eps*n0*phi1 - exp(phi0 + eps*phi1))

    Requires the limit relation n0 = exp(phi0) to hold pointwise to
    1e-10; the rest term is meaningless otherwise.
    """
    if not (eps > 0.0):
        raise ValueError(f"eps must be positive, got {eps}")
    expphi0 = np.exp(phi0.values)
    gap = float(np.max(np.abs(n0.values - expphi0)))
    if gap > 1e-10:
        raise ValueError(
            f"n0 and exp(phi0) disagree by {gap:.3e}; the limit relation "
            "n0 = exp(phi0) must hold before forming R1"
        )
    # Exact rearrangement with n0 = exp(phi0) + delta:
    #   R1 = -sqrt(eps) * n0 * G(z) * phi1^2 + eps^(-3/2) * delta * e^z,
    #   z = eps*phi1,  G(z) = (e^z - 1 - z)/z^2.
    # The naive three-term difference loses all precision once z is
    # small (it subtracts O(1) quantities to get an O(z^2) result, then
    # multiplies by eps^(-3/2)); G is evaluated cancellation-free
    # instead. delta is zero whenever n0 was built as exp(phi0).
    z = eps * phi1.values
    vals = (
        -np.sqrt(eps) * n0.values * _g_rest(z) * phi1.values ** 2
        + eps ** (-1.5) * (n0.values - expphi0) * np.exp(z)
    )
    return Field(phi0.grid, vals)


def _g_rest(z: np.ndarray) -> np.ndarray:
    """(e^z - 1 - z)/z^2, stable through z = 0 (limit 1/2)."""
    small = np.abs(z) < 1e-2
    out = np.empty_like(z)
    zs = z[small]
    out[small] = 0.5 + zs * (1.0 / 6.0 + zs * (1.0 / 24.0 + zs * (1.0 / 120.0 + zs / 720.0)))
    zb = z[~small]
    out[~small] = (np.expm1(zb) - zb) / zb ** 2
    return out


def r1_majorant(phi0: Field, phi1: Field, n0: Field, eps: float) -> Field:
    """Pointwise bound on |R1| from the integral form of the rest term.

    |R1| = sqrt(eps) * exp(phi0) * phi1^2 * integral_0^1 e^(theta*eps*phi1)
    (1-theta) dtheta, and the integral is at most e^(max(eps*phi1, 0))/2.
    """
    if not (eps > 0.0):
        raise ValueError(f"eps must be positive, got {eps}")
    vals = (
        np.sqrt(eps)
        * np.exp(phi0.values)
        * np.exp(np.maximum(eps * phi1.values, 0.0))
        * phi1.values**2
        / 2.0
    )
    return Field(phi0.grid, vals)


def triple_norm(rem: Remainder, s: int) -> TripleNorm:
    grid = rem.n1.grid
    eps = rem.eps
    n1_hs = hs_norm(rem.n1, s)
    u1_hs = hs_norm(rem.u1, s)
    du1_hs = _hs_norm_values(grid, _derivative_values(grid, rem.u1.values, 1), s)
    u1_triple = float(np.sqrt(u1_hs**2 + eps * du1_hs**2))
    phi1_hs = hs_norm(rem.phi1, s)
    dphi1_hs = _hs_norm_values(grid, _derivative_values(grid, rem.phi1.values, 1), s)
    d2phi1_hs = _hs_norm_values(grid, _derivative_values(grid, rem.phi1.values, 2), s)
    phi1_triple = float(np.sqrt(
        phi1_hs**2 + eps * dphi1_hs**2 + eps**2 * d2phi1_hs**2
    ))
    combined = float(np.sqrt(u1_triple**2 + phi1_triple**2))
    return TripleNorm(rem.t, eps, s, n1_hs, u1_triple, phi1_triple, combined)


def _res_phi_at(rem: Remainder, lim_state) -> float:
    grid = rem.n1.grid
    eps = rem.eps
    n0 = lim_state.n
    phi0 = Field(grid, np.log(n0.values))
    r1 = r1_field(phi0, rem.phi1, n0, eps)
    field = (
        -eps * _derivative_values(grid, rem.phi1.values, 2)
        - _derivative_values(grid, phi0.values, 2)
        - rem.n1.values
        + n0.values * rem.phi1.values
        - np.sqrt(eps) * r1.values
    )
    return float(np.sqrt(np.mean(_dealias_values(grid, field) ** 2) * grid.length))


def remainder_residual(rem_a: Remainder, rem_b: Remainder,
                       lim_a, lim_b) -> tuple[float, float, float]:
    """L2 residuals of the remainder evolution system over one record gap.

    Time derivatives use the centered difference about the midpoint of
    the snapshot pair with spatial terms averaged there (second order in
    the gap). The time-local potential equation is evaluated at both
    snapshots and the larger residual is reported. All residuals are
    measured on resolved modes (dealiased).
    """
    eps = rem_a.eps
    if rem_b.eps != eps:
        raise ValueError("snapshot pair mixes eps values")
    dt_gap = rem_b.t - rem_a.t
    if not (dt_gap > 0.0):
        raise ValueError(f"snapshots must be time-ordered, gap = {dt_gap}")
    for rem, lim in ((rem_a, lim_a), (rem_b, lim_b)):
        if abs(rem.t - lim.t) > 1e-12 * max(1.0, abs(rem.t)):
            raise ValueError("limit states do not match the remainder times")
    grid = rem_a.n1.grid

    def mid(a, b):
        return 0.5 * (a + b)

    n1m = mid(rem_a.n1.values, rem_b.n1.values)
    u1m = mid(rem_a.u1.values, rem_b.u1.values)
    phi1m = mid(rem_a.phi1.values, rem_b.phi1.values)
    n0m = mid(lim_a.n.values, lim_b.n.values)
    u0m = mid(lim_a.u.values, lim_b.u.values)

    dA = lambda v: _dealias_values(grid, v)
    dx = lambda v: _derivative_values(grid, v, 1)

    dt_n1 = (rem_b.n1.values - rem_a.n1.values) / dt_gap
    res_n_field = dt_n1 + dx(dA(n0m * u1m + u0m * n1m)) + eps * dx(dA(n1m * u1m))

    dt_u1 = (rem_b.u1.values - rem_a.u1.values) / dt_gap
    res_u_field = (
        dt_u1
        + dA(u0m * dx(u1m))
        + dA(u1m * dx(u0m))
        + eps * dA(u1m * dx(u1m))
        + dx(phi1m)
    )

    res_n = float(np.sqrt(np.mean(dA(res_n_field) ** 2) * grid.length))
    res_u = float(np.sqrt(np.mean(dA(res_u_field) ** 2) * grid.length))
    res_phi = max(_res_phi_at(rem_a, lim_a), _res_phi_at(rem_b, lim_b))
    return res_n, res_u, res_phi


def elliptic_ratio_pair(rem: Remainder, k: int) -> tuple[float, float]:
    """Empirical constants of the two-sided elliptic estimates.

    First: ||n1||_{H^k}^2 against 1 + ||phi1||_{H^k}^2 +
    eps^2*||phi1_xx||_{H^k}^2. Second: the weighted potential norm
    against 1 + ||n1||_{H^k}^2. Uniform boundedness of both families in
    eps is what the elliptic theory predicts.
    """
    grid = rem.n1.grid
    eps = rem.eps
    n1_sq = hs_norm(rem.n1, k) ** 2
    phi1_sq = hs_norm(rem.phi1, k) ** 2
    dphi1_sq = _hs_norm_values(grid, _derivative_values(grid, rem.phi1.values, 1), k) ** 2
    d2phi1_sq = _hs_norm_values(grid, _derivative_values(grid, rem.phi1.values, 2), k) ** 2
    density_ratio = n1_sq / (1.0 + phi1_sq + eps**2 * d2phi1_sq)
    potential_ratio = (phi1_sq + eps * dphi1_sq + eps**2 * d2phi1_sq) / (1.0 + n1_sq)
    return density_ratio, potential_ratio


def write_remainder_csv(remainders, lim_states, s_list, path) -> None:
    """Time series of triple norms and equation residuals.

    One row per recorded time per Sobolev order. Residual columns hold
    the values of the snapshot pair *ending* at the row's time; the
    first row carries NaNs there.
    """
    res_by_index = {0: (float("nan"), float("nan"), float("nan"))}
    for i in range(1, len(remainders)):
        res_by_index[i] = remainder_residual(
            remainders[i - 1], remainders[i], lim_states[i - 1], lim_states[i]
        )
    rows = []
    for i, rem in enumerate(remainders):
        res_n, res_u, res_phi = res_by_index[i]
        for s in s_list:
            tn = triple_norm(rem, s)
            rows.append((rem.t, rem.eps, s, tn.n1_hs, tn.u1_triple,
                         tn.phi1_triple, tn.combined, res_n, res_u, res_phi))
    write_csv(path,
              "t,eps,s,n1_Hs,u1_triple,phi1_triple,combined,res_n,res_u,res_phi",
              rows)
