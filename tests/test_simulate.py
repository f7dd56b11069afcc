"""``simulate`` streams its records: each is reduced to its trajectory row
as ``evolve`` passes it, so no field stack is kept.

The outputs are checked bit for bit against an oracle that keeps every
record (``evolve`` without a consumer) and reduces the stacks one
record at a time.
"""

import os
import stat

import numpy as np
import pytest

from debye_limit import cli, flows, poisson
from debye_limit.cli import main
from debye_limit.flows import EPState, RunOptions, evolve
from debye_limit.grid import Field, Grid, _integral_values, _l2_values, hs_norm
from debye_limit.initial import InitParams, make_initial
from debye_limit.poisson import PBConvergenceError

HEADER = "t,norm_n_Hs,norm_u_Hs,mass,min_n,max_n,quasineutral_residual"


def _csv_text(header, rows):
    return "\n".join([header, *(",".join("%.17g" % v for v in row) for row in rows)]) + "\n"


def _oracle(traj, s):
    """The trajectory and snapshot CSV texts of a run that kept every record."""
    grid, rows = traj.grid, []
    for i, t in enumerate(traj.t):
        n, u = Field(grid, traj.n[i]), Field(grid, traj.u[i])
        if traj.phi is None:
            gap = 0.0
        elif i < len(traj.phi):
            gap = _l2_values(grid, np.exp(traj.phi[i]) - traj.n[i])
        else:  # the record whose potential solve failed
            gap = float("nan")
        rows.append((float(t), hs_norm(n, s), hs_norm(u, s),
                     _integral_values(grid, traj.n[i]),
                     float(n.values.min()), float(n.values.max()), gap))
    columns = [grid.x, traj.n[-1], traj.u[-1]]
    header = "x,n,u"
    if traj.phi is not None and len(traj.phi) == len(traj.t):
        columns.append(traj.phi[-1])
        header += ",phi"
    return _csv_text(HEADER, rows), _csv_text(header, zip(*columns))


def _simulate(tmp_path, flow, grid, t_end, dt, s=2, eps=1e-2, init=None,
              record_every=1):
    """Run ``simulate`` in process; return its exit code, its trajectory and
    snapshot texts, and the state and options of the run."""
    conf = tmp_path / "conf.ini"
    init = init or InitParams()
    lines = ["[run]", f"record_every = {record_every}", "[init]",
             f"n_amp = {init.n_amp!r}", f"u_amp = {init.u_amp!r}"]
    conf.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = main(["simulate", "--flow", flow, "--eps", repr(eps), "--grid", str(grid),
                 "--t-end", repr(t_end), "--dt", repr(dt), "--s", str(s),
                 "--config", str(conf), "--out", str(out)])
    (traj_path,) = out.glob("traj_*.csv")
    (snap_path,) = out.glob("snap_*.csv")
    g = Grid(grid)
    state = EPState(0.0, *make_initial(init, g))
    opts = RunOptions(dt=dt, t_end=t_end, eps=eps if flow == "ep" else 0.0,
                      record_every=record_every)
    return code, traj_path.read_text(), snap_path.read_text(), state, opts


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("s", [0, 2, 3])
@pytest.mark.parametrize("flow", ["ep", "limit"])
def test_simulate_outputs_equal_the_stack_oracle(tmp_path, flow, s, record_every):
    # 10 full steps and a short last one
    code, traj_text, snap_text, state, opts = _simulate(
        tmp_path, flow, 32, 0.0105, 1e-3, s=s, record_every=record_every)
    assert code == 0
    kept = evolve(state, opts)
    assert len(kept.t) == (12 if record_every == 1 else 5)
    assert (traj_text, snap_text) == _oracle(kept, s)


@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("flow", ["ep", "limit"])
def test_density_floor_blowup_equals_the_stack_oracle(tmp_path, flow, s):
    code, traj_text, snap_text, state, opts = _simulate(
        tmp_path, flow, 64, 0.5, 1e-3, s=s, init=InitParams(n_amp=0.9, u_amp=0.9),
        record_every=10)
    kept = evolve(state, opts)
    assert code == 3 and kept.blowup.reason == "density_floor"
    assert len(kept.t) > 3 and (traj_text, snap_text) == _oracle(kept, s)


def test_pb_divergence_at_the_initial_state_equals_the_stack_oracle(tmp_path,
                                                                   monkeypatch):
    monkeypatch.setattr(poisson, "MAX_NEWTON_ITERS", 1)
    code, traj_text, snap_text, state, opts = _simulate(tmp_path, "ep", 64, 0.01, 1e-3)
    kept = evolve(state, opts)
    assert code == 3 and kept.blowup.reason == "pb_divergence"
    assert kept.t.tolist() == [0.0] and len(kept.phi) == 0
    assert (traj_text, snap_text) == _oracle(kept, 2)
    assert traj_text.splitlines()[1].endswith(",nan")
    assert snap_text.startswith("x,n,u\n")


@pytest.mark.parametrize("s", [2, 3])
def test_pb_divergence_at_a_later_record_equals_the_stack_oracle(
        tmp_path, monkeypatch, s):
    # solve 13 is the state potential after step 3: the initial state's
    # solve, then stages 2-4 and the new state per step
    real, calls = flows._solve_phi_values, []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 13:
            raise PBConvergenceError("injected", 1.0)
        return real(*args, **kwargs)

    monkeypatch.setattr(flows, "_solve_phi_values", failing)
    code, traj_text, snap_text, state, opts = _simulate(
        tmp_path, "ep", 32, 0.01, 1e-3, s=s, record_every=3)
    calls.clear()
    kept = evolve(state, opts)
    assert code == 3 and kept.blowup.reason == "pb_divergence"
    assert kept.t.tolist() == pytest.approx([0.0, 0.003]) and len(kept.t) == 2
    assert len(kept.phi) == 1
    assert (traj_text, snap_text) == _oracle(kept, s)
    assert traj_text.splitlines()[-1].endswith(",nan")


def test_simulate_outputs_get_the_mode_the_umask_gives(tmp_path):
    # the mode of a plain open(): 0o666 less the umask, not mkstemp's 0o600
    umask = os.umask(0o022)
    try:
        code = main(["simulate", "--flow", "limit", "--grid", "32", "--t-end", "0.01",
                     "--out", str(tmp_path)])
    finally:
        os.umask(umask)
    assert code == 0
    modes = [stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()]
    assert modes == [0o644, 0o644]


def test_simulate_memory_is_linear_in_the_grid(tmp_path, peak_alloc):
    # 401 records at N = 1024: the n and u stacks alone would take 16 R N bytes
    records, n_points = 401, 1024
    argv = ["simulate", "--flow", "limit", "--grid", str(n_points), "--dt", "1e-4",
            "--t-end", "0.04", "--out", str(tmp_path)]
    assert peak_alloc(main, argv) < 16 * records * n_points / 4
    lines = (tmp_path / "traj_limit_0.csv").read_text().splitlines()
    assert len(lines) == 1 + records


@pytest.mark.parametrize("flow", ["ep", "limit"])
def test_simulate_makes_one_evolve_call(tmp_path, monkeypatch, flow):
    # the benchmark counts flow runs and steps by wrapping cli.evolve, and
    # reads the final state, dt and blow-up of what it returns
    runs = []

    def capturing(state, opts, *args, **kwargs):
        traj = flows.evolve(state, opts, *args, **kwargs)
        runs.append((state, opts, traj))
        return traj

    monkeypatch.setattr(cli, "evolve", capturing)
    code, *_ = _simulate(tmp_path, flow, 32, 0.0105, 1e-3, record_every=3)
    assert code == 0 and len(runs) == 1
    state, opts, traj = runs[0]
    kept = evolve(state, opts)
    assert traj.dt == kept.dt and traj.blowup is None and kept.blowup is None
    final, want = traj.final, kept.final
    assert type(final) is type(want) and final.t == want.t
    assert np.array_equal(final.n.values, want.n.values)
    assert np.array_equal(final.u.values, want.u.values)
