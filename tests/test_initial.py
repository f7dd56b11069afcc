"""Initial data constructors."""

import numpy as np
import pytest

from debye_limit.grid import Field, Grid, hs_norm, integrate
from debye_limit.initial import (
    InitParams,
    make_initial,
    random_smooth_field,
)


def test_single_mode_shapes_and_mean():
    grid = Grid(64)
    n, u = make_initial(InitParams(), grid)
    assert n.values.shape == (64,)
    assert abs(integrate(n) - 1.0) < 1e-14
    assert abs(integrate(u)) < 1e-14
    assert np.min(n.values) > 0.0


def test_density_perturbation_norm():
    # ||0.1 sin||_{L2} = 0.1 / sqrt(2)
    grid = Grid(128)
    n, _ = make_initial(InitParams(), grid)
    pert = Field(grid, n.values - 1.0)
    assert abs(hs_norm(pert, 0) - 0.07071067811865477) < 1e-15


def test_phase_shift_moves_velocity_only():
    grid = Grid(64)
    a = make_initial(InitParams(phase_u=0.0), grid)
    b = make_initial(InitParams(phase_u=np.pi / 2), grid)
    assert np.array_equal(a[0].values, b[0].values)
    assert not np.array_equal(a[1].values, b[1].values)


def test_params_validation():
    with pytest.raises(ValueError):
        InitParams(n_base=0.0)
    with pytest.raises(ValueError):
        InitParams(n_amp=1.0)   # would touch zero density
    with pytest.raises(ValueError):
        InitParams(n_amp=-1.5)
    with pytest.raises(ValueError):
        InitParams(mode=0)


def test_random_field_is_grid_independent():
    coarse = random_smooth_field(Grid(64), np.random.default_rng(42))
    fine = random_smooth_field(Grid(128), np.random.default_rng(42))
    # same continuum function sampled at the shared points
    assert np.allclose(coarse.values, fine.values[::2], rtol=0, atol=1e-14)


def test_random_field_reproducible():
    a = random_smooth_field(Grid(64), np.random.default_rng(7))
    b = random_smooth_field(Grid(64), np.random.default_rng(7))
    assert np.array_equal(a.values, b.values)
