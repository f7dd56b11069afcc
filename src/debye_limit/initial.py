"""Well-prepared initial data for the paired flows.

Both systems are started from the *same* (n, u): a constant ion
background with a single sinusoidal perturbation in density and
velocity. The initial potential is never an independent datum; the
full-system potential is slaved to n through the nonlinear Poisson
solve and the limit potential is ln n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid


@dataclass(frozen=True)
class InitParams:
    """Parameters of the sinusoidal initial perturbation.

    ``abs(n_amp) < n_base`` keeps the initial density uniformly positive,
    which every solver stage downstream relies on. Every float is finite.
    """

    n_base: float = 1.0
    n_amp: float = 0.1
    u_amp: float = 0.1
    mode: int = 1
    phase_u: float = 0.0

    def __post_init__(self):
        if not (self.n_base > 0.0):
            raise ValueError(f"n_base must be positive, got {self.n_base}")
        if not (abs(self.n_amp) < self.n_base):
            raise ValueError(
                f"|n_amp| = {abs(self.n_amp)} must stay below n_base = "
                f"{self.n_base} to keep the density positive"
            )
        if not (isinstance(self.mode, (int, np.integer)) and self.mode >= 1):
            raise ValueError(f"mode must be a positive integer, got {self.mode}")
        finite = np.isfinite((self.n_base, self.n_amp, self.u_amp, self.phase_u))
        if not finite.all():
            raise ValueError(f"initial data must be finite, got {self}")


def make_initial(params: InitParams, grid: Grid) -> tuple[Field, Field]:
    """Single-mode data: n = n_base + n_amp sin(2 pi m x), shifted u."""
    theta = 2.0 * np.pi * params.mode * grid.x
    n0 = params.n_base + params.n_amp * np.sin(theta)
    u0 = params.u_amp * np.sin(theta + params.phase_u)
    return Field(grid, n0), Field(grid, u0)


def random_smooth_fields(grid: Grid, rng: np.random.Generator, count: int,
                         max_mode: int) -> np.ndarray:
    """``(count, N)`` stack of seeded band-limited trigonometric samples.

    Each row has 1/m^2 coefficient decay over modes ``1..max_mode``. The
    coefficients are drawn before any grid-dependent work, in one draw
    that consumes the stream like ``count`` draws of one field, so the
    same generator state produces the *same continuum functions* on
    every resolution. Refinement studies depend on that.
    """
    coeffs = rng.standard_normal((count, max_mode, 2))

    def table():  # built once per grid and max_mode
        theta = (2.0 * np.pi * np.arange(1, max_mode + 1))[:, None] * grid.x
        return np.array((np.cos(theta), np.sin(theta)))
    cos, sin = grid._cached(("trig", max_mode), table)
    values = np.zeros((count, grid.n_points))
    for m in range(1, max_mode + 1):
        a, b = coeffs[:, m - 1, :1], coeffs[:, m - 1, 1:]
        values = values + (1.0 / m**2) * (a * cos[m - 1] + b * sin[m - 1])
    return values
