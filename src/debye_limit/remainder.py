"""Remainder stacks and their diagnostics.

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

import sys
from dataclasses import dataclass

import numpy as np

from .grid import (
    MAX_SOBOLEV_ORDER,
    Field,
    Grid,
    _check_order,
    _dealias_values,
    _derivative_values,
    _hs_norm_values,
    _l2_values,
    _stack_values,
)
from .io_utils import write_csv

__all__ = [
    "Remainder",
    "TripleNorm",
    "remainder_series",
    "r1_field",
    "r1_majorant",
    "triple_norm",
    "remainder_residual",
    "elliptic_ratio_pair",
    "write_remainder_csv",
]

# The remainders divide O(eps) differences of the flows by eps. Below the
# unit round-off those differences are under one ulp of the fields, so
# the remainders keep no correct digit (and far below it they overflow).
MIN_REMAINDER_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class Remainder:
    """First-order remainders of one paired run, stacked over its times.

    ``t`` holds the ``T`` matched record times. ``n0`` and ``u0`` (the
    limit flow) and the remainders ``n1``, ``u1`` and ``phi1`` are
    ``(T, N)`` arrays, one row per time. Each diagnostic below runs on
    the whole stack, and a one-row stack gives the same bits as that row
    of a longer one.
    """

    grid: Grid
    eps: float
    t: np.ndarray
    n0: np.ndarray
    u0: np.ndarray
    n1: np.ndarray
    u1: np.ndarray
    phi1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=np.float64))
        shape = (self.t.size, self.grid.n_points)
        for name in ("n0", "u0", "n1", "u1", "phi1"):
            if np.shape(getattr(self, name)) != shape:
                raise ValueError(f"{name} must have shape {shape}")


@dataclass(frozen=True)
class TripleNorm:
    """eps-weighted norms of a remainder stack, one entry per time.

    ``u1_triple**2 = ||u1||_{H^s}^2 + eps*||u1_x||_{H^s}^2`` and
    ``phi1_triple**2 = ||phi1||_{H^s}^2 + eps*||phi1_x||_{H^s}^2
    + eps^2*||phi1_xx||_{H^s}^2``; ``combined`` joins the velocity and
    potential parts in quadrature. At eps = 0 every part reduces to the
    plain H^s norm. The three potential H^s norms are kept for the
    elliptic ratios. Every field but ``eps`` and ``s`` is a ``(T,)``
    array.
    """

    t: np.ndarray
    eps: float
    s: int
    n1_hs: np.ndarray
    u1_triple: np.ndarray
    phi1_triple: np.ndarray
    combined: np.ndarray
    phi1_hs: np.ndarray
    phi1_x_hs: np.ndarray
    phi1_xx_hs: np.ndarray


def remainder_series(ep_traj, lim_traj) -> Remainder:
    """Remainder stack at every recorded time common to the paired runs.

    Each row holds the divided differences ``(n - n0)/eps``,
    ``(u - u0)/eps`` and ``(phi - ln n0)/eps`` of the paired states, with
    the full flow's recorded potential ``phi``.
    """
    if not (ep_traj.eps > 0.0):
        raise ValueError("first trajectory must be a full-flow run")
    if lim_traj.eps != 0.0:
        raise ValueError("second trajectory must be a limit-flow run")
    count = min(len(ep_traj.phis), len(lim_traj.states))
    ep, lim = ep_traj.states[:count], lim_traj.states[:count]
    t = np.array([st.t for st in ep], dtype=np.float64)
    lim_t = np.array([st.t for st in lim], dtype=np.float64)
    if np.any(np.abs(t - lim_t) > 1e-12 * np.maximum(1.0, np.abs(t))):
        raise ValueError("state times of the paired runs differ")
    grid, eps = lim_traj.states[0].grid, ep_traj.eps
    n0 = _stack_values(grid, (st.n for st in lim))
    u0 = _stack_values(grid, (st.u for st in lim))
    n1 = (_stack_values(grid, (st.n for st in ep)) - n0) / eps
    u1 = (_stack_values(grid, (st.u for st in ep)) - u0) / eps
    phi1 = (_stack_values(grid, ep_traj.phis[:count]) - np.log(n0)) / eps
    return Remainder(grid, eps, t, n0, u0, n1, u1, phi1)


def r1_field(phi0: Field, phi1: Field, n0: Field, eps: float) -> Field:
    """Taylor rest term of the Boltzmann nonlinearity.

        R1 = eps^(-3/2) * (n0 + eps*n0*phi1 - exp(phi0 + eps*phi1))

    Requires the limit relation n0 = exp(phi0) to hold pointwise to
    1e-10; the rest term is meaningless otherwise.
    """
    return Field(phi0.grid, _r1_values(phi0.values, phi1.values, n0.values, eps))


def _r1_values(phi0: np.ndarray, phi1: np.ndarray, n0: np.ndarray,
               eps: float) -> np.ndarray:
    if not (eps > 0.0):
        raise ValueError(f"eps must be positive, got {eps}")
    expphi0 = np.exp(phi0)
    gap = float(np.max(np.abs(n0 - expphi0), initial=0.0))
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
    z = eps * phi1
    return (
        -np.sqrt(eps) * n0 * _g_rest(z) * phi1 ** 2
        + eps ** (-1.5) * (n0 - expphi0) * np.exp(z)
    )


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
    """eps-weighted ``H^s`` norms of every row of the stack."""
    _check_order(s, MAX_SOBOLEV_ORDER, "Sobolev order")
    grid = rem.grid
    eps = rem.eps
    n1_hs = _hs_norm_values(grid, rem.n1, s)
    u1_hs = _hs_norm_values(grid, rem.u1, s)
    du1_hs = _hs_norm_values(grid, _derivative_values(grid, rem.u1, 1), s)
    # squares as products: a Python float's ** calls pow(), which can round
    # differently from numpy's elementwise square of the same value
    u1_triple = np.sqrt(u1_hs * u1_hs + eps * (du1_hs * du1_hs))
    phi1_hs = _hs_norm_values(grid, rem.phi1, s)
    dphi1_hs = _hs_norm_values(grid, _derivative_values(grid, rem.phi1, 1), s)
    d2phi1_hs = _hs_norm_values(grid, _derivative_values(grid, rem.phi1, 2), s)
    phi1_triple = np.sqrt(
        phi1_hs * phi1_hs + eps * (dphi1_hs * dphi1_hs)
        + eps**2 * (d2phi1_hs * d2phi1_hs)
    )
    combined = np.sqrt(u1_triple * u1_triple + phi1_triple * phi1_triple)
    return TripleNorm(rem.t, eps, s, n1_hs, u1_triple, phi1_triple, combined,
                      phi1_hs, dphi1_hs, d2phi1_hs)


def _res_phi_values(grid: Grid, eps: float, n0: np.ndarray, n1: np.ndarray,
                    phi1: np.ndarray) -> np.ndarray:
    """L2 residual of the time-local potential equation, per row."""
    phi0 = np.log(n0)
    r1 = _r1_values(phi0, phi1, n0, eps)
    field = (
        -eps * _derivative_values(grid, phi1, 2)
        - _derivative_values(grid, phi0, 2)
        - n1
        + n0 * phi1
        - np.sqrt(eps) * r1
    )
    return _l2_values(grid, _dealias_values(grid, field))


def remainder_residual(rem: Remainder, stride: int = 1):
    """L2 residuals of the remainder evolution system over each record gap.

    The rows ``rem.t[::stride]`` are taken in consecutive pairs. Returns
    ``(res_n, res_u, res_phi)``, each a ``(P,)`` array over the ``P``
    pairs, in the order of the times ``rem.t[::stride][1:]`` that end
    them. Time derivatives use the centered difference about the
    midpoint of each pair with spatial terms averaged there (second
    order in the gap). The time-local potential equation is evaluated
    once at each row, and a pair reports the larger residual of its two
    ends. All residuals are measured on resolved modes (dealiased).
    """
    if stride < 1:
        raise ValueError("stride must be a positive integer")
    grid, eps = rem.grid, rem.eps
    t, n0, u0, n1, u1, phi1 = (v[::stride] for v in (
        rem.t, rem.n0, rem.u0, rem.n1, rem.u1, rem.phi1))
    dt_gap = (t[1:] - t[:-1])[:, None]
    if not np.all(dt_gap > 0.0):
        raise ValueError("snapshots must be time-ordered")

    def mid(v):
        return 0.5 * (v[:-1] + v[1:])

    dA = lambda v: _dealias_values(grid, v)
    dx = lambda v: _derivative_values(grid, v, 1)

    # each residual is reduced to (P,) as soon as it is formed, so that
    # few (P, N) stacks are alive at once
    res_phi = _res_phi_values(grid, eps, n0, n1, phi1)
    n1m = mid(n1)
    u1m = mid(u1)
    u0m = mid(u0)
    res_n = _l2_values(grid, dA(
        (n1[1:] - n1[:-1]) / dt_gap
        + dx(dA(mid(n0) * u1m + u0m * n1m)) + eps * dx(dA(n1m * u1m))
    ))
    res_u = _l2_values(grid, dA(
        (u1[1:] - u1[:-1]) / dt_gap
        + dA(u0m * dx(u1m))
        + dA(u1m * dx(u0m))
        + eps * dA(u1m * dx(u1m))
        + dx(mid(phi1))
    ))
    return res_n, res_u, np.maximum(res_phi[:-1], res_phi[1:])


def elliptic_ratio_pair(tn: TripleNorm) -> tuple[np.ndarray, np.ndarray]:
    """Empirical constants of the two-sided elliptic estimates at k = tn.s.

    First: ||n1||_{H^k}^2 against 1 + ||phi1||_{H^k}^2 +
    eps^2*||phi1_xx||_{H^k}^2. Second: the weighted potential norm
    against 1 + ||n1||_{H^k}^2. Uniform boundedness of both families in
    eps is what the elliptic theory predicts. Read from the norms the
    triple norm already formed.
    """
    eps = tn.eps
    n1_sq = tn.n1_hs * tn.n1_hs
    phi1_sq = tn.phi1_hs * tn.phi1_hs
    dphi1_sq = tn.phi1_x_hs * tn.phi1_x_hs
    d2phi1_sq = tn.phi1_xx_hs * tn.phi1_xx_hs
    density_ratio = n1_sq / (1.0 + phi1_sq + eps**2 * d2phi1_sq)
    potential_ratio = (phi1_sq + eps * dphi1_sq + eps**2 * d2phi1_sq) / (1.0 + n1_sq)
    return density_ratio, potential_ratio


def write_remainder_csv(rem: Remainder, norms, path) -> None:
    """Time series of triple norms and equation residuals.

    ``norms`` maps each Sobolev order to the triple norms of the stack
    ``rem``. One row per recorded time per order. Residual columns hold
    the values of the snapshot pair *ending* at the row's time; the
    first row carries NaNs there.
    """
    res_n, res_u, res_phi = remainder_residual(rem)
    rows = []
    for i in range(len(rem.t)):
        res = (float("nan"),) * 3 if i == 0 else (
            res_n[i - 1], res_u[i - 1], res_phi[i - 1])
        for tn in norms.values():
            rows.append((tn.t[i], tn.eps, tn.s, tn.n1_hs[i], tn.u1_triple[i],
                         tn.phi1_triple[i], tn.combined[i], *res))
    write_csv(path,
              "t,eps,s,n1_Hs,u1_triple,phi1_triple,combined,res_n,res_u,res_phi",
              rows)
