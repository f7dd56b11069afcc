"""Initial data constructors."""

import numpy as np
import pytest

from debye_limit.grid import Field, Grid, _integral_values, hs_norm
from debye_limit.initial import InitParams, make_initial, random_smooth_fields


def test_single_mode_shapes_and_mean():
    grid = Grid(64)
    n, u = make_initial(InitParams(), grid)
    assert n.values.shape == (64,)
    assert abs(_integral_values(grid, n.values) - 1.0) < 1e-14
    assert abs(_integral_values(grid, u.values)) < 1e-14
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
    coarse = random_smooth_fields(Grid(64), np.random.default_rng(42), 1, 8)[0]
    fine = random_smooth_fields(Grid(128), np.random.default_rng(42), 1, 8)[0]
    # same continuum function sampled at the shared points
    assert np.allclose(coarse, fine[::2], rtol=0, atol=1e-14)


def test_random_field_reproducible():
    a = random_smooth_fields(Grid(64), np.random.default_rng(7), 1, 8)
    b = random_smooth_fields(Grid(64), np.random.default_rng(7), 1, 8)
    assert np.array_equal(a, b)


def _one_field(grid, rng, max_mode):
    # the single-field draw, one mode at a time: the stacked draw must
    # give every row these bits
    coeffs = rng.standard_normal((max_mode, 2))
    values = np.zeros(grid.n_points)
    for m in range(1, max_mode + 1):
        theta = 2.0 * np.pi * m * grid.x
        a, b = coeffs[m - 1]
        values = values + (1.0 / m**2) * (a * np.cos(theta) + b * np.sin(theta))
    return values


@pytest.mark.parametrize("n_points", [64, 128, 256, 512])
@pytest.mark.parametrize("max_mode", [1, 8, 31])
def test_stacked_draw_matches_sequential_fields(n_points, max_mode):
    grid = Grid(n_points)
    stack = random_smooth_fields(grid, np.random.default_rng(5), 3, max_mode)
    rng = np.random.default_rng(5)
    assert stack.shape == (3, n_points)
    for row in stack:
        assert np.array_equal(row, _one_field(grid, rng, max_mode))
    rng = np.random.default_rng(5)
    for row in stack:
        one = random_smooth_fields(grid, rng, 1, max_mode)
        assert np.array_equal(row, one[0])
