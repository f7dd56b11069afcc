"""Spectral grid and Field plumbing: derivatives, norms, dealiasing."""

import numpy as np
import pytest

from debye_limit.grid import (
    MAX_DERIVATIVE_ORDER,
    MAX_SOBOLEV_ORDER,
    Field,
    Grid,
    dealias,
    derivative,
    hs_norm,
    integrate,
    l2_norm,
    max_abs,
)
from debye_limit.initial import random_smooth_field


def fd6_derivative(values, dx):
    """Sixth-order centered difference, independent of any FFT code path."""
    c = np.array([-1.0 / 60.0, 3.0 / 20.0, -3.0 / 4.0, 0.0,
                  3.0 / 4.0, -3.0 / 20.0, 1.0 / 60.0])
    out = np.zeros_like(values)
    for k, coef in zip(range(-3, 4), c):
        out += coef * np.roll(values, -k)
    return out / dx


def test_derivative_matches_fd6_oracle():
    grid = Grid(256)
    f = Field.from_function(grid, lambda x: np.exp(np.sin(2 * np.pi * x)))
    spectral = derivative(f).values
    fd = fd6_derivative(f.values, grid.dx)
    # FD6 truncation error on this profile is about 2.5e-9 at n=256
    assert np.max(np.abs(spectral - fd)) < 1e-7


def nyquist_mode(grid):
    """(-1)^i: the Nyquist mode, the one rfft coefficient without a partner."""
    return Field(grid, (-1.0) ** np.arange(grid.n_points))


def test_derivative_exact_on_sine():
    grid = Grid(64)
    f = Field.from_function(grid, lambda x: np.sin(2 * np.pi * x))
    want = 2 * np.pi * np.cos(2 * np.pi * grid.x)
    assert np.max(np.abs(derivative(f).values - want)) < 1e-11
    # odd derivatives drop the Nyquist mode exactly; even ones scale it
    # by (i k)^order with k = pi * n_points on the unit torus
    nyq = nyquist_mode(grid)
    for order in (1, 3, 5):
        assert np.array_equal(derivative(nyq, order).values, np.zeros(64))
    k_nyq = np.pi * grid.n_points
    for order in (2, 4):
        want = (-1.0) ** (order // 2) * k_nyq**order * nyq.values
        got = derivative(nyq, order).values
        assert np.max(np.abs(got - want)) < 1e-12 * k_nyq**order


def test_derivative_annihilates_constants():
    grid = Grid(32)
    f = Field(grid, np.full(32, 3.7))
    assert max_abs(derivative(f)) < 1e-12
    assert max_abs(derivative(f, 2)) < 1e-11


def test_derivative_linear_and_composes():
    rng = np.random.default_rng(11)
    grid = Grid(64)
    for _ in range(10):
        f = random_smooth_field(grid, rng)
        g = random_smooth_field(grid, rng)
        lhs = derivative(Field(grid, 2.0 * f.values - 3.0 * g.values))
        rhs = 2.0 * derivative(f).values - 3.0 * derivative(g).values
        scale = max(np.max(np.abs(rhs)), 1.0)
        assert np.max(np.abs(lhs.values - rhs)) < 1e-10 * scale
        twice = derivative(derivative(f)).values
        once = derivative(f, 2).values
        scale2 = max(np.max(np.abs(once)), 1.0)
        assert np.max(np.abs(twice - once)) < 1e-10 * scale2


def test_derivative_order_zero_is_identity():
    grid = Grid(32)
    f = Field(grid, np.linspace(0.0, 1.0, 32) ** 2)
    assert np.array_equal(derivative(f, 0).values, f.values)


def test_integral_of_derivative_vanishes():
    rng = np.random.default_rng(3)
    grid = Grid(128)
    for _ in range(10):
        f = random_smooth_field(grid, rng)
        assert abs(integrate(derivative(f))) < 1e-13


def test_l2_norm_of_sine():
    grid = Grid(256)
    f = Field.from_function(grid, lambda x: np.sin(2 * np.pi * x))
    assert abs(l2_norm(f) - 0.7071067811865476) < 1e-14


def test_hs_norm_closed_forms():
    # ||sin(2 pi x)||_{H^s}^2 = (1 + (2pi)^2 + ... + (2pi)^(2s)) / 2
    grid = Grid(128)
    f = Field.from_function(grid, lambda x: np.sin(2 * np.pi * x))
    assert abs(hs_norm(f, 1) - 4.49880081823798) < 1e-12
    assert abs(hs_norm(f, 2) - 28.27564211603687) < 1e-11


def test_hs_norm_parseval_consistency():
    # s = 0 must agree with the quadrature L2 norm, and the general s
    # with a derivative-by-derivative build-up.
    rng = np.random.default_rng(5)
    grid = Grid(128)
    fields = [random_smooth_field(grid, rng) for _ in range(10)]
    # the Nyquist mode alone, and riding on smooth data
    nyq = nyquist_mode(grid)
    fields += [nyq, Field(grid, fields[0].values + 0.3 * nyq.values)]
    for f in fields:
        assert abs(hs_norm(f, 0) - l2_norm(f)) < 1e-12 * max(l2_norm(f), 1.0)
        total = 0.0
        for a in range(4):
            total += l2_norm(derivative(f, a)) ** 2
        assert abs(hs_norm(f, 3) - np.sqrt(total)) < 1e-10 * np.sqrt(total)


def test_hs_norm_monotone_in_s():
    rng = np.random.default_rng(9)
    grid = Grid(64)
    f = random_smooth_field(grid, rng)
    norms = [hs_norm(f, s) for s in range(MAX_SOBOLEV_ORDER + 1)]
    for a, b in zip(norms, norms[1:]):
        assert b >= a


def test_dealias_idempotent_and_cuts_high_modes():
    grid = Grid(64)
    low = Field.from_function(grid, lambda x: np.cos(2 * np.pi * 10 * x))
    high = Field.from_function(grid, lambda x: np.cos(2 * np.pi * 31 * x))
    kept = dealias(low)
    assert np.max(np.abs(kept.values - low.values)) < 1e-13
    assert max_abs(dealias(high)) < 1e-13
    assert max_abs(dealias(nyquist_mode(grid))) < 1e-13
    # the cutoff sits at n/3: mode 21 of 64 is kept, mode 22 removed
    edge = Field.from_function(grid, lambda x: np.sin(2 * np.pi * 21 * x))
    assert np.max(np.abs(dealias(edge).values - edge.values)) < 1e-13
    assert max_abs(dealias(Field.from_function(
        grid, lambda x: np.sin(2 * np.pi * 22 * x)))) < 1e-13
    once = dealias(Field(grid, low.values + high.values))
    twice = dealias(once)
    # idempotent up to one FFT round trip
    assert np.max(np.abs(once.values - twice.values)) < 1e-14


def test_field_validation():
    grid = Grid(32)
    with pytest.raises(ValueError):
        Field(grid, np.zeros(31))
    with pytest.raises(ValueError):
        Field(grid, np.full(32, np.nan))
    with pytest.raises(ValueError):
        Field(grid, np.full(32, np.inf))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(48)  # not a power of two
    with pytest.raises(ValueError):
        Grid(16)  # too coarse
    with pytest.raises(ValueError):
        Grid(64, length=0.0)


def test_order_caps():
    grid = Grid(32)
    f = Field(grid, np.ones(32))
    with pytest.raises(ValueError):
        derivative(f, MAX_DERIVATIVE_ORDER + 1)
    with pytest.raises(ValueError):
        hs_norm(f, MAX_SOBOLEV_ORDER + 1)
    with pytest.raises(ValueError):
        derivative(f, -1)


def test_field_values_are_immutable():
    grid = Grid(32)
    f = Field(grid, np.zeros(32))
    with pytest.raises(ValueError):
        f.values[0] = 1.0
