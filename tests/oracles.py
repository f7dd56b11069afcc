"""Independent references that tests compare the package against.

None of these is on a run path: each restates a quantity by another
route (pointwise instead of on the solver's band, an integral bound
instead of the rest term itself, two kept trajectories paired after the
fact instead of a run streamed into its remainder rows) or supplies
seeded test data.
"""

import numpy as np

from debye_limit.flows import _quasineutral_values
from debye_limit.grid import Field, _dealias_values, _derivative_values, _l2_values
from debye_limit.initial import random_smooth_fields
from debye_limit.remainder import Remainder


def random_smooth_field(grid, rng, max_mode=8):
    """One seeded band-limited sample: row 0 of ``random_smooth_fields``."""
    return Field(grid, random_smooth_fields(grid, rng, 1, max_mode)[0])


def pb_residual(grid, phi, n, eps):
    """F(phi) = eps*phi'' - exp(phi) + n, evaluated pointwise then dealiased.

    The solver measures its residual on band coefficients; this is the
    same equation on grid values, so the two norms agree by Parseval.
    """
    d2_phi = _derivative_values(grid, phi, 2)
    return _dealias_values(grid, eps * d2_phi - np.exp(phi) + n)


def r1_majorant(phi0, phi1, eps):
    """Pointwise bound on |R1| from the integral form of the rest term.

    |R1| = sqrt(eps) * exp(phi0) * phi1^2 * integral_0^1 e^(theta*eps*phi1)
    (1-theta) dtheta, and the integral is at most e^(max(eps*phi1, 0))/2.
    """
    return (np.sqrt(eps) * np.exp(phi0) * np.exp(np.maximum(eps * phi1, 0.0))
            * phi1**2 / 2.0)


def quasineutral_identity_defect(traj):
    """max over recorded times of | ||exp(phi)-n|| - eps*||phi_xx|| |.

    Up to the Poisson solve tolerance the two sides agree snapshot by
    snapshot, which pins the measured gap to the field equation rather
    than to an accident of the dynamics. NaN when no potential was
    recorded; a limit-flow trajectory raises ``ValueError``.
    """
    if traj.phi is None:
        raise ValueError("trajectory has no recorded potentials")
    grid, phi = traj.grid, traj.phi
    gap = _quasineutral_values(grid, traj.n[:len(phi)], phi)
    lap_norm = _l2_values(grid, _derivative_values(grid, phi, 2))
    defect = np.abs(gap - traj.eps * lap_norm)
    return float(np.max(defect)) if defect.size else float("nan")


def paired_remainder(ep_traj, lim_traj):
    """Remainder stack of two kept trajectories, paired after the run.

    Each row holds ``(n - n0)/eps``, ``(u - u0)/eps`` and
    ``(phi - ln n0)/eps`` at every recorded time common to the runs, with
    the full flow's recorded potential; ``RemainderRows`` forms the same
    rows while the full flow runs.
    """
    if not (ep_traj.eps > 0.0):
        raise ValueError("first trajectory must be a full-flow run")
    if lim_traj.eps != 0.0:
        raise ValueError("second trajectory must be a limit-flow run")
    count = min(len(ep_traj.phi), len(lim_traj.t))
    t = ep_traj.t[:count]
    if np.any(np.abs(t - lim_traj.t[:count]) > 1e-12 * np.maximum(1.0, np.abs(t))):
        raise ValueError("state times of the paired runs differ")
    eps = ep_traj.eps
    n0, u0 = lim_traj.n[:count], lim_traj.u[:count]
    n1 = (ep_traj.n[:count] - n0) / eps
    u1 = (ep_traj.u[:count] - u0) / eps
    phi1 = (ep_traj.phi[:count] - np.log(n0)) / eps
    return Remainder(lim_traj.grid, eps, t, n0, u0, n1, u1, phi1)


def quasineutrality_gap(traj):
    """sup over recorded times of ||exp(phi) - n||_L2 for a kept full-flow run."""
    if traj.phi is None:
        raise ValueError("trajectory has no recorded potentials")
    values = _quasineutral_values(traj.grid, traj.n[:len(traj.phi)], traj.phi)
    return float(np.max(values)) if np.size(values) else float("nan")
