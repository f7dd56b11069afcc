"""Weighted energies, the kinetic balance, commutators."""

import numpy as np
import pytest

from debye_limit.energy import (
    energy_snapshot,
    identity_2_12_check,
    kato_ponce_sample,
    write_ledger_csv,
)
from debye_limit.flows import EPState, RunOptions, evolve
from debye_limit.grid import Field, Grid, _l2_values
from debye_limit.initial import InitParams, make_initial, random_smooth_fields
from debye_limit.remainder import Remainder
from oracles import paired_remainder, random_smooth_field


def _rem(grid, eps, t=(0.0,), n1=None, u1=None, phi1=None, n0=None, u0=None):
    """A remainder stack at times ``t`` whose rows all hold the given fields.

    The limit flow defaults to the rest state n0 = 1, u0 = 0.
    """
    def rows(values, fill=0.0):
        row = np.full(grid.n_points, fill) if values is None else values
        return np.tile(np.asarray(row, dtype=float), (len(t), 1))
    return Remainder(grid, eps, t, rows(n0, 1.0), rows(u0), rows(n1),
                     rows(u1), rows(phi1))


# ---------------------------------------------------------------- snapshots


def test_equilibrium_snapshot_is_identically_zero():
    grid = Grid(64)
    rem = _rem(grid, eps=1e-2)
    for gamma in (0, 1, 2):
        snap = energy_snapshot(rem, gamma)
        for value in (snap.e_kin, snap.e_phi, snap.e_grad, snap.e_visc,
                      snap.e_lap, snap.term_i, snap.term_ii, snap.term_iii,
                      snap.term_iv):
            assert value.tolist() == [0.0]


def test_kinetic_and_forcing_values_single_mode():
    # u1 = cos, phi1 = sin on n0 = 1:
    #   e_kin = (1/2) int cos^2 = 1/4
    #   e_phi = (1/2) int sin^2 = 1/4
    #   I = -int (phi1)_x u1 = -2*pi int cos^2 = -pi
    grid = Grid(128)
    x = grid.x
    rem = _rem(grid, eps=1e-2, u1=np.cos(2 * np.pi * x),
               phi1=np.sin(2 * np.pi * x))
    snap = energy_snapshot(rem, gamma=0)
    assert abs(snap.e_kin[0] - 0.25) < 1e-14
    assert abs(snap.e_phi[0] - 0.25) < 1e-14
    assert abs(snap.term_i[0] + np.pi) < 1e-12
    # zero background velocity kills the transport and stretching terms
    assert snap.term_iii[0] == 0.0
    assert snap.term_iv[0] == 0.0


def test_gamma_weight_applies_derivative():
    grid = Grid(128)
    u1 = np.sin(2 * np.pi * grid.x)
    snap0 = energy_snapshot(_rem(grid, 1e-3, u1=u1), gamma=0)
    snap1 = energy_snapshot(_rem(grid, 1e-3, u1=u1), gamma=1)
    assert abs(snap0.e_kin[0] - 0.25) < 1e-14
    assert abs(snap1.e_kin[0] - np.pi**2) < 1e-11 * np.pi**2


def test_energies_nonnegative_random_fields():
    grid = Grid(128)
    eps = 1e-2
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n1, u1, phi1 = random_smooth_fields(grid, rng, 3, max_mode=6)
        n0, u0 = random_smooth_fields(grid, rng, 2, max_mode=4)
        rem = _rem(grid, eps, n1=n1, u1=u1, phi1=phi1, n0=1.0 + 0.2 * n0,
                   u0=0.3 * u0)
        for gamma in (0, 1, 2):
            snap = energy_snapshot(rem, gamma)
            for value in (snap.e_kin, snap.e_phi, snap.e_grad,
                          snap.e_visc, snap.e_lap):
                assert value[0] >= 0.0


# ----------------------------------------------------------- balance check


def _paired_run(n_points=64, eps=1e-2, dt=1e-4, t_end=0.01):
    grid = Grid(n_points)
    n0, u0 = make_initial(InitParams(), grid)
    ep = evolve(EPState(0.0, n0, u0),
                RunOptions(dt=dt, t_end=t_end, eps=eps, record_every=1))
    lim = evolve(EPState(0.0, n0, u0),
                 RunOptions(dt=dt, t_end=t_end, eps=0.0, record_every=1))
    return paired_remainder(ep, lim)


def test_identity_defect_second_order_in_spacing():
    snaps = energy_snapshot(_paired_run(), gamma=0)
    defects = {}
    for stride in (8, 4, 2):
        report = identity_2_12_check(snaps, stride=stride)
        assert report.spacing == pytest.approx(stride * 1e-4, rel=1e-12)
        defects[stride] = report.defect
    # centered differences: halving the spacing divides the defect by ~4
    assert 3.0 < defects[8] / defects[4] < 5.0
    assert 3.0 < defects[4] / defects[2] < 5.0


def test_identity_defect_zero_on_equilibrium():
    grid = Grid(64)
    rems = _rem(grid, 1e-2, t=(0.0, 0.1, 0.2, 0.3))
    report = identity_2_12_check(energy_snapshot(rems, gamma=1))
    assert report.defect == 0.0
    assert all(d == 0.0 for d in report.defects)


def test_identity_check_validation():
    grid = Grid(64)
    snaps = energy_snapshot(_rem(grid, 1e-2, t=(0.0, 0.1, 0.2)), gamma=0)
    with pytest.raises(ValueError, match="step cannot be zero"):  # numpy's slice check
        identity_2_12_check(snaps, stride=0)


# ------------------------------------------------------------- commutators


def _one_pair(f, g, orders):
    """The sampler on a P = 1 block: ``(lhs, rhs, ratio)``, each ``(K,)``."""
    return tuple(a[0] for a in kato_ponce_sample(f.values[None], g.values[None],
                                                 orders, f.grid))


def test_kato_ponce_k1_never_exceeds_one():
    # k = 1: lhs = ||(f_x) g|| <= max|f_x| ||g|| <= rhs, exactly
    grid = Grid(128)
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = random_smooth_field(grid, rng, max_mode=8)
        g = random_smooth_field(grid, rng, max_mode=8)
        (lhs,), (rhs,), (ratio,) = _one_pair(f, g, (1,))
        assert ratio <= 1.0 + 1e-12
        assert lhs >= 0.0 and rhs > 0.0


def test_kato_ponce_uniform_over_orders():
    grid = Grid(128)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(30):
        f = random_smooth_field(grid, rng, max_mode=8)
        g = random_smooth_field(grid, rng, max_mode=8)
        for ratio in _one_pair(f, g, (1, 2, 3))[2]:
            assert np.isfinite(ratio)
            worst = max(worst, ratio)
    assert worst <= 10.0


def test_kato_ponce_constant_f_gives_zero():
    grid = Grid(128)
    rng = np.random.default_rng(5)
    f = Field(grid, np.full(grid.n_points, 3.2))
    g = random_smooth_field(grid, rng, max_mode=8)
    # rhs has no |f_x| or |d^k f| left, and the guarded ratio comes
    # back 0. lhs is pure FFT roundoff, but d^3 amplifies it by the
    # cube of the fine-grid Nyquist wavenumber, hence the loose cap.
    for lhs, rhs, ratio in zip(*_one_pair(f, g, (1, 2, 3))):
        assert lhs <= 1e-6
        assert rhs == 0.0
        assert ratio == 0.0


def test_kato_ponce_bitwise_reproducible():
    grid = Grid(128)
    first, second = [], []
    for sink in (first, second):
        rng = np.random.default_rng(123)
        for _ in range(10):
            f = random_smooth_field(grid, rng, max_mode=8)
            g = random_smooth_field(grid, rng, max_mode=8)
            sink.append(_one_pair(f, g, (2,)))
    assert len(first) == len(second) == 10
    for a, b in zip(first, second):
        assert all(map(np.array_equal, a, b))  # lhs, rhs and ratio


@pytest.mark.parametrize("orders", [(1, 2, 3), (3, 1)])
def test_kato_ponce_block_rows_match_single_pairs(orders):
    # a stacked block of pairs gives each pair the bits of its own sample
    grid = Grid(128)
    fields = random_smooth_fields(grid, np.random.default_rng(9), 10, max_mode=8)
    block = kato_ponce_sample(fields[0::2], fields[1::2], orders, grid)
    assert all(a.shape == (5, len(orders)) for a in block)
    for p, (f, g) in enumerate(zip(fields[0::2], fields[1::2])):
        single = kato_ponce_sample(f[None], g[None], orders, grid)
        for in_block, alone in zip(block, single):  # lhs, rhs and ratio
            assert np.array_equal(in_block[p], alone[0])


def test_kato_ponce_resolution_insensitive():
    # same coefficients on two grids: the norms are band-limited and
    # land identically, while the grid maxima in the rhs creep toward
    # the continuous sup at second order, so the ratio moves a little
    samples = {}
    for n in (128, 256):
        grid = Grid(n)
        rng = np.random.default_rng(7)
        f = random_smooth_field(grid, rng, max_mode=8)
        g = random_smooth_field(grid, rng, max_mode=8)
        (lhs,), _, (ratio,) = _one_pair(f, g, (3,))
        samples[n] = lhs, ratio
    assert samples[128][0] == pytest.approx(samples[256][0], rel=1e-12)
    assert samples[128][1] == pytest.approx(samples[256][1], rel=1e-3)


def test_kato_ponce_validation():
    grid = Grid(128)
    rng = np.random.default_rng(0)
    f = random_smooth_field(grid, rng, max_mode=4)
    g = random_smooth_field(grid, rng, max_mode=4)
    block = np.array((f.values, g.values))
    with pytest.raises(ValueError, match="order"):
        kato_ponce_sample(block, block, (0,), grid)
    with pytest.raises(ValueError, match="stacks"):
        kato_ponce_sample(block, block[:1], (2,), grid)
    with pytest.raises(ValueError, match="stacks"):
        kato_ponce_sample(block, block, (2,), Grid(64))


def _upsample_one(grid, values):
    n = grid.n_points
    fine = np.zeros(n + 1, dtype=complex)
    fine[: n // 2 + 1] = np.fft.rfft(values)
    fine[n // 2] *= 0.5
    return np.fft.irfft(fine, n=2 * n) * 2


def _single_order_sample(f, g, k):
    # one order at a time, each derivative its own pair of transforms:
    # the orders' shared transforms must give these bits exactly
    grid = f.grid
    fine = Grid(2 * grid.n_points)
    fv, gv = _upsample_one(grid, f.values), _upsample_one(grid, g.values)
    d = lambda v, a: np.fft.irfft(fine.derivative_symbol(a) * np.fft.rfft(v),
                                  fine.n_points) if a else v
    lhs = _l2_values(fine, d(fv * gv, k) - fv * d(gv, k))
    rhs = float(np.max(np.abs(d(fv, 1))) * _l2_values(fine, d(gv, k - 1))
                + _l2_values(fine, d(fv, k)) * np.max(np.abs(gv)))
    return lhs, rhs, lhs / rhs if rhs > 0.0 else 0.0


@pytest.mark.parametrize("n_points", [64, 128, 256])
def test_kato_ponce_orders_match_single_order_oracle(n_points):
    grid = Grid(n_points)
    rng = np.random.default_rng(n_points)
    pairs = [(random_smooth_field(grid, rng), random_smooth_field(grid, rng))
             for _ in range(5)]
    pairs.append((Field(grid, np.full(n_points, 3.2)), pairs[0][1]))
    for f, g in pairs:
        lhs, rhs, ratio = _one_pair(f, g, (1, 2, 3))
        for j, k in enumerate((1, 2, 3)):  # column j is orders[j]
            got = np.array([lhs[j], rhs[j], ratio[j]])
            assert np.array_equal(got, _single_order_sample(f, g, k))


def test_kato_ponce_pair_makes_four_fft_calls(fft_calls):
    grid = Grid(128)
    rng = np.random.default_rng(1)
    f, g = random_smooth_field(grid, rng), random_smooth_field(grid, rng)
    fft_calls.clear()
    _one_pair(f, g, (1, 2, 3))
    assert fft_calls == ["rfft", "irfft", "rfft", "irfft"]


# ------------------------------------------------------------------ ledger


def test_ledger_csv_layout(tmp_path):
    grid = Grid(64)
    snaps = energy_snapshot(_rem(grid, 1e-2, t=(0.0, 0.1, 0.2)), gamma=0)
    path = tmp_path / "ledger.csv"
    write_ledger_csv(snaps, {1: 0.5}, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,gamma,e_kin,e_phi,e_grad,e_visc,e_lap,I,II,III,IV,defect"
    assert len(lines) == 4
    assert lines[1].endswith("nan")
    assert lines[2].endswith("0.5")
    assert lines[3].endswith("nan")
