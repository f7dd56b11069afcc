"""Pseudospectral study of the quasineutral limit of cold-ion plasma flow.

The package integrates the full flow (potential solved from the
nonlinear Poisson equation with parameter eps) and its eps -> 0 limit
(potential = ln n) from identical initial data on the periodic unit
interval, then measures how the gap between them scales with eps:
remainder fields, eps-weighted triple norms, energy-identity and
commutator diagnostics, and fitted convergence orders.
"""

__version__ = "0.1.0"
