"""Pseudospectral study of the quasineutral limit of cold-ion plasma flow.

The package integrates the full flow (potential solved from the
nonlinear Poisson equation with parameter eps) and its eps -> 0 limit
(potential = ln n) from identical initial data on the periodic unit
interval, then measures how the gap between them scales with eps:
remainder fields, eps-weighted triple norms, energy-identity and
commutator diagnostics, and fitted convergence orders.
"""

__version__ = "0.1.0"

from .energy import (
    EnergySnapshot,
    IdentityReport,
    energy_snapshot,
    identity_2_12_check,
    kato_ponce_sample,
)
from .experiments import (
    SweepReport,
    SweepSpec,
    fit_order,
    gronwall_monitor,
    quasineutrality_gap,
    run_sweep,
)
from .flows import (
    BlowUpError,
    BlowUpEvent,
    EPState,
    LimitState,
    RunOptions,
    Trajectory,
    default_dt,
    evolve,
    rhs_ep,
    rhs_limit,
    step,
)
from .grid import (
    Field,
    Grid,
    dealias,
    derivative,
    hs_norm,
    integrate,
    l2_norm,
    max_abs,
)
from .initial import InitParams, make_initial, random_smooth_field, random_smooth_fields
from .poisson import (
    PBConvergenceError,
    PBSolution,
    PBSolveOptions,
    pb_residual,
    solve_phi,
    solve_phi_limit,
)
from .remainder import (
    Remainder,
    TripleNorm,
    elliptic_ratio_pair,
    r1_field,
    r1_majorant,
    remainder_residual,
    remainder_series,
    triple_norm,
)

__all__ = [
    "__version__",
    "Field", "Grid", "derivative", "integrate", "l2_norm", "hs_norm",
    "max_abs", "dealias",
    "PBSolveOptions", "PBSolution", "PBConvergenceError", "pb_residual",
    "solve_phi", "solve_phi_limit",
    "InitParams", "make_initial", "random_smooth_field", "random_smooth_fields",
    "EPState", "LimitState", "RunOptions", "BlowUpError", "BlowUpEvent",
    "Trajectory", "default_dt", "rhs_ep", "rhs_limit", "step", "evolve",
    "Remainder", "TripleNorm", "remainder_series",
    "r1_field", "r1_majorant", "triple_norm", "remainder_residual",
    "elliptic_ratio_pair",
    "EnergySnapshot", "IdentityReport",
    "energy_snapshot", "identity_2_12_check", "kato_ponce_sample",
    "SweepSpec", "SweepReport", "fit_order", "gronwall_monitor", "run_sweep",
    "quasineutrality_gap",
]
