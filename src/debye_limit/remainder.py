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
from functools import cached_property

import numpy as np

from .flows import _record_arrays, _run_length
from .grid import (
    Grid,
    _dealiased_l2_values,
    _parseval_values,
    _power,
)
from .io_utils import write_csv

# The remainders divide O(eps) differences of the flows by eps. Below the
# unit round-off those differences are under one ulp of the fields, so
# the remainders keep no correct digit (and far below it they overflow).
MIN_REMAINDER_EPS = sys.float_info.epsilon
# Bytes of the (4, B, N) flux stack of one block of remainder_residual; the
# residual kernels take B rows at a time, so their temporaries are O(B N)
BLOCK_BYTES = 2 ** 21


def _blocks(rows: int, grid: Grid):
    """Slices of ``rows`` in blocks of ``BLOCK_BYTES // (32 N)`` rows, at least 1."""
    size = max(1, BLOCK_BYTES // (32 * grid.n_points))
    return (slice(a, min(a + size, rows)) for a in range(0, rows, size))


@dataclass(frozen=True)
class Remainder:
    """First-order remainders of one paired run, stacked over its times.

    ``t`` holds the ``T`` matched record times. ``n0`` and ``u0`` (the
    limit flow) and the remainders ``n1``, ``u1`` and ``phi1`` are
    ``(T, N)`` arrays, one row per time. From :func:`remainder_series`,
    ``n0`` and ``u0`` are read-only views of the limit flow's record
    stacks, which every member of a sweep shares. Each diagnostic below
    runs on the stack or on blocks of its rows, and a one-row stack gives
    the same bits as that row of a longer one.
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

    @cached_property
    def res_phi(self) -> np.ndarray:
        """L2 residual of the time-local potential equation, per row.

        Formed on first use, in row blocks, and kept, so residual passes at
        several strides share it.
        """
        out = np.empty(len(self.t))
        for b in _blocks(len(out), self.grid):
            out[b] = _res_phi_values(self.grid, self.eps, self.n0[b], self.n1[b],
                                     self.phi1[b])
        return out


@dataclass(frozen=True)
class TripleNorm:
    """eps-weighted norms of a remainder stack, one entry per time.

    ``u1_triple**2 = ||u1||_{H^s}^2 + eps*||u1_x||_{H^s}^2`` and
    ``phi1_triple**2 = ||phi1||_{H^s}^2 + eps*||phi1_x||_{H^s}^2
    + eps^2*||phi1_xx||_{H^s}^2``; ``combined`` joins the velocity and
    potential parts in quadrature. At eps = 0 every part reduces to the
    plain H^s norm. The H^s norms of ``n1`` and ``u1`` are kept for the
    sweep's errors, the potential's three for the elliptic ratios. Every
    field but ``eps`` and ``s`` is a ``(T,)`` array.
    """

    t: np.ndarray
    eps: float
    s: int
    n1_hs: np.ndarray
    u1_hs: np.ndarray
    u1_triple: np.ndarray
    phi1_triple: np.ndarray
    combined: np.ndarray
    phi1_hs: np.ndarray
    phi1_x_hs: np.ndarray
    phi1_xx_hs: np.ndarray


def _row_stack(grid: Grid, opts, records: int) -> np.ndarray:
    """The ``(3, R, N)`` remainder rows of ``R`` records, or RecordAllocationError."""
    return _record_arrays(grid, opts, records, (3, records, grid.n_points))[0]


def _sized_run(state, opts) -> tuple:
    """``_run_length(state, opts)`` once its records' remainder rows fit: the
    pre-flight probe by which a paired run too long to record exits 2 before
    any output (the limit run's ``(2, R, N)`` stacks are smaller)."""
    length = _run_length(state, opts)
    _row_stack(state.grid, opts, length[3])
    return length


class RemainderRows:
    """An ``on_record`` consumer for ``evolve``: the remainder row ``(n - n0)/eps``,
    ``(u - u0)/eps``, ``(phi - ln n0)/eps`` of each full-flow record with a
    potential ``phi``, against the record of the limit run ``lim_traj`` at the same
    time, up to its last one. ``opts`` are the full flow's, its eps at least
    ``MIN_REMAINDER_EPS`` as ``SweepSpec`` and ``cli.cmd_check`` ensure. The rows
    are sized before any step (:class:`RecordAllocationError` if they do not
    fit); :func:`remainder_series` stacks the ones taken, at the limit records' times.
    """

    def __init__(self, lim_traj, opts):
        if lim_traj.eps != 0.0:
            raise ValueError("the paired trajectory must be a limit-flow run")
        self.lim, self.eps, self.count = lim_traj, opts.eps, 0
        self.stacks = _row_stack(lim_traj.grid, opts, len(lim_traj.t))

    def __call__(self, t, n, u, phi, norms):  # norms: the guard's, not read
        row, lim, eps = self.count, self.lim, self.eps
        if phi is None or row == len(lim.t):
            return
        if abs(t - lim.t[row]) > 1e-12 * max(1.0, abs(t)):
            raise ValueError("state times of the paired runs differ")
        n0 = lim.n[row]
        self.stacks[:, row] = ((n - n0) / eps, (u - lim.u[row]) / eps,
                               (phi - np.log(n0)) / eps)
        self.count += 1


def remainder_series(rows: RemainderRows) -> Remainder:
    """The remainder stack of the rows that ``rows`` took, in record order."""
    count, lim = rows.count, rows.lim
    return Remainder(lim.grid, rows.eps, lim.t[:count], lim.n[:count], lim.u[:count],
                     *rows.stacks[:, :count])


def _r1_values(phi0: np.ndarray, phi1: np.ndarray, n0: np.ndarray,
               eps: float) -> np.ndarray:
    """Taylor rest term of the Boltzmann nonlinearity.

        R1 = eps^(-3/2) * (n0 + eps*n0*phi1 - exp(phi0 + eps*phi1))

    Requires the limit relation n0 = exp(phi0) to hold pointwise to
    1e-10; the rest term is meaningless otherwise. ``eps`` is a remainder
    stack's, at least ``MIN_REMAINDER_EPS`` (see :class:`RemainderRows`).
    """
    delta = n0 - np.exp(phi0)
    gap = float(np.max(np.abs(delta), initial=0.0))
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
        + eps ** (-1.5) * delta * np.exp(z)
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


def triple_norm(rem: Remainder, s_list) -> dict:
    """eps-weighted ``H^s`` norms of every row of the stack, ``{s: TripleNorm}``
    for each order ``s`` of ``s_list``.

    The ``H^s`` norm of each ``a``-th derivative is a Parseval sum of the
    spectrum ``|rfft|**2`` of ``(n1, u1, phi1)``, ``(3, T, N//2 + 1)``, against
    ``hs_weight(s) * |(ik)^a|**2``. The spectrum is formed once per call, read
    at every order and not kept.
    """
    grid, eps = rem.grid, rem.eps
    power = _power(np.fft.rfft(np.array((rem.n1, rem.u1, rem.phi1))))
    d1, d2 = (_power(grid.derivative_symbol(a)) for a in (1, 2))
    norms = {}
    for s in s_list:
        weight = grid.hs_weight(s)
        n1_hs, u1_hs, phi1_hs = _parseval_values(power, weight)
        du1_hs, dphi1_hs = _parseval_values(power[1:], weight * d1)
        d2phi1_hs = _parseval_values(power[2], weight * d2)
        # squares as products: a Python float's ** calls pow(), which can round
        # differently from numpy's elementwise square of the same value
        u1_triple = np.sqrt(u1_hs * u1_hs + eps * (du1_hs * du1_hs))
        phi1_triple = np.sqrt(
            phi1_hs * phi1_hs + eps * (dphi1_hs * dphi1_hs)
            + eps**2 * (d2phi1_hs * d2phi1_hs)
        )
        combined = np.sqrt(u1_triple * u1_triple + phi1_triple * phi1_triple)
        norms[s] = TripleNorm(rem.t, eps, s, n1_hs, u1_hs, u1_triple, phi1_triple,
                              combined, phi1_hs, dphi1_hs, d2phi1_hs)
    return norms


def _res_phi_values(grid: Grid, eps: float, n0: np.ndarray, n1: np.ndarray,
                    phi1: np.ndarray) -> np.ndarray:
    """L2 residual of the time-local potential equation, per row, dealiased:
    ``-(eps phi1 + phi0)_xx + n0 phi1 - n1 - sqrt(eps) R1`` from one transform."""
    phi0 = np.log(n0)
    r1 = _r1_values(phi0, phi1, n0, eps)
    fhat = np.fft.rfft(np.array((eps * phi1 + phi0,
                                 n0 * phi1 - n1 - np.sqrt(eps) * r1)))
    return _dealiased_l2_values(grid, fhat[1] - grid.derivative_symbol(2) * fhat[0])


def remainder_residual(rem: Remainder, stride: int = 1):
    """L2 residuals of the remainder evolution system over each record gap.

    The rows ``rem.t[::stride]`` are taken in consecutive pairs. Returns
    ``(res_n, res_u, res_phi)``, each a ``(P,)`` array over the ``P``
    pairs, in the order of the times ``rem.t[::stride][1:]`` that end
    them. The evolution equations, in conservative form
    ``n1_t + (n0 u1 + u0 n1 + eps n1 u1)_x`` and
    ``u1_t + (u0 u1 + eps u1^2/2 + phi1)_x``, take the centered difference
    about each pair's midpoint and the fluxes averaged there (second
    order in the gap); each is dealiased once, its L2 norm read from one
    stacked transform per block of pairs. The potential equation's residual
    is formed once per row (``rem.res_phi``); a pair reports its larger end.
    """
    grid, eps = rem.grid, rem.eps
    t, n0, u0, n1, u1, phi1 = (v[::stride] for v in (
        rem.t, rem.n0, rem.u0, rem.n1, rem.u1, rem.phi1))
    dt_gap = (t[1:] - t[:-1])[:, None]
    if not np.all(dt_gap > 0.0):
        raise ValueError("snapshots must be time-ordered")

    def mid(v):
        return 0.5 * (v[:-1] + v[1:])

    res_phi = rem.res_phi[::stride]
    res_n, res_u = np.empty((2, len(dt_gap)))
    for b in _blocks(len(dt_gap), grid):
        n0b, u0b, n1b, u1b, phi1b = (v[b.start:b.stop + 1]  # the rows pairs b join
                                     for v in (n0, u0, n1, u1, phi1))
        # one (4, B, N) stack, filled row by row in place in an order that
        # keeps at most four (B, N) arrays beside it, and freed once
        # transformed
        stack = np.empty((4,) + n1b[1:].shape)
        u1m, u0m = mid(u1b), mid(u0b)
        np.multiply(u0m, u1m, out=stack[3])
        stack[3] += eps * (0.5 * u1m * u1m)
        stack[3] += mid(phi1b)
        np.multiply(mid(n0b), u1m, out=stack[2])
        n1m = mid(n1b)
        stack[2] += u0m * n1m
        n1m *= u1m  # for eps n1m u1m; n1m is not read again
        stack[2] += eps * n1m
        del n1m, u1m, u0m
        np.divide(n1b[1:] - n1b[:-1], dt_gap[b], out=stack[0])
        np.divide(u1b[1:] - u1b[:-1], dt_gap[b], out=stack[1])
        fhat = np.fft.rfft(stack)
        del stack
        # each equation's spectrum, formed in the rows of its time difference
        fhat[2:] *= grid.derivative_symbol(1)
        fhat[:2] += fhat[2:]
        res_n[b], res_u[b] = _dealiased_l2_values(grid, fhat[:2])
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


def write_remainder_csv(norms, residuals, path) -> None:
    """Time series of triple norms and equation residuals.

    ``norms`` maps each Sobolev order to the triple norms of one
    remainder stack and ``residuals`` is that stack's
    ``(res_n, res_u, res_phi)`` from :func:`remainder_residual`. One row
    per recorded time per order. Residual columns hold the values of the
    snapshot pair *ending* at the row's time; the first row carries NaNs
    there.
    """
    t = next(iter(norms.values())).t
    rows = ((tn.t[i], tn.eps, tn.s, tn.n1_hs[i], tn.u1_triple[i], tn.phi1_triple[i],
             tn.combined[i], *(r[i - 1] if i else float("nan") for r in residuals))
            for i in range(len(t)) for tn in norms.values())
    write_csv(path,
              "t,eps,s,n1_Hs,u1_triple,phi1_triple,combined,res_n,res_u,res_phi",
              rows)
