"""Sweep orchestration: order fits, uniform bounds, verdict assembly, reports."""

import concurrent.futures
import dataclasses
import itertools
import json

import numpy as np
import pytest

from debye_limit import experiments, flows, poisson
from debye_limit.experiments import (
    BOUND_FACTOR,
    SweepSpec,
    _run_member,
    fit_order,
    gronwall_monitor,
    run_sweep,
    write_report_csv,
    write_report_json,
)
from debye_limit.flows import EPState, RunOptions, evolve
from debye_limit.grid import MAX_SOBOLEV_ORDER, Field, Grid, _l2_values, hs_norm
from debye_limit.initial import InitParams, make_initial
from debye_limit.poisson import PBConvergenceError
from debye_limit.remainder import remainder_series
from oracles import paired_remainder, quasineutral_identity_defect, quasineutrality_gap

EPS_MINI = (1e-1, 1e-2, 1e-3)


def _mini_spec(**kwargs):
    defaults = dict(
        eps_list=EPS_MINI,
        n_points=64,
        run=RunOptions(dt=1e-3, t_end=0.1, record_every=5),
        init=InitParams(),
        s_list=(0, 1, 2),
        seed=0,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


@pytest.fixture(scope="module")
def mini_report():
    return run_sweep(_mini_spec())


# --------------------------------------------------------------- order fit


def test_fit_order_recovers_exact_power_law():
    eps = [1e-1, 1e-2, 1e-3, 1e-4]
    pairs = [(e, 3.7 * e**2) for e in eps]
    fit = fit_order(pairs)
    # the report's fit entry, keys in report order
    assert list(fit) == ["slope", "intercept", "r_squared", "eps_used"]
    assert fit["slope"] == pytest.approx(2.0, abs=1e-12)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)
    assert fit["intercept"] == pytest.approx(np.log(3.7), abs=1e-10)
    assert fit["eps_used"] == eps


# ---------------------------------------------------------- uniform bound


def test_gronwall_pass_and_fail():
    flat = [(1e-1, 1.0), (1e-2, 1.0), (1e-3, 1.0)]
    assert gronwall_monitor([flat], BOUND_FACTOR, False) == "PASS"

    blown = [(1e-1, 1.0), (1e-2, 10.0)]
    assert gronwall_monitor([blown], BOUND_FACTOR, False) == "FAIL"
    # a generous factor turns the same data into a PASS
    assert gronwall_monitor([blown], 100.0, False) == "PASS"
    # one failing family fails the verdict, in either place
    assert gronwall_monitor([flat, blown], BOUND_FACTOR, False) == "FAIL"
    assert gronwall_monitor([blown, flat], BOUND_FACTOR, False) == "FAIL"
    assert gronwall_monitor([blown, flat], 100.0, False) == "PASS"


def test_gronwall_reference_is_largest_eps_any_order():
    # within 2x of the 3.0 at eps = 1e-1, in every input order; against
    # the 1.0 of the first pair it would read FAIL
    members = [(1e-3, 1.0), (1e-1, 3.0), (1e-2, 5.0)]
    for order in itertools.permutations(members):
        assert gronwall_monitor([list(order)], 2.0, False) == "PASS"
    # the same values with the 1.0 at the largest eps
    late = [(1e-1, 1.0), (1e-3, 3.0), (1e-2, 5.0)]
    assert gronwall_monitor([late], 2.0, False) == "FAIL"
    # each family is measured against its own value at the largest eps
    assert gronwall_monitor([members, [(1e-1, 10.0), (1e-2, 20.0)]], 2.0, False) == "PASS"
    assert gronwall_monitor([members, late], 2.0, False) == "FAIL"


def test_gronwall_inconclusive_on_blowup():
    members = [(1e-1, 1.0), (1e-2, 1.0)]
    assert gronwall_monitor([members], BOUND_FACTOR, True) == "INCONCLUSIVE"
    # a blow-up outranks a failing family
    blown = [(1e-1, 1.0), (1e-2, 10.0)]
    assert gronwall_monitor([members, blown], BOUND_FACTOR, True) == "INCONCLUSIVE"


def test_gronwall_single_member_passes():
    assert gronwall_monitor([[(1e-2, 3.0)]], BOUND_FACTOR, False) == "PASS"


def test_gronwall_validation():
    # an empty family has no reference value, even beside a full one and
    # after a blow-up
    for families in ([[]], [[(1e-2, 3.0)], []]):
        for blew_up in (False, True):
            with pytest.raises(ValueError):
                gronwall_monitor(families, BOUND_FACTOR, blew_up)


# -------------------------------------------------------------------- spec


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="eps_list"):
        _mini_spec(eps_list=())
    with pytest.raises(ValueError, match="positive"):
        _mini_spec(eps_list=(1e-1, -1e-2))
    with pytest.raises(ValueError, match="at least"):
        _mini_spec(eps_list=(1e-1, 1e-300))
    with pytest.raises(ValueError, match="eps_list"):
        _mini_spec(eps_list=(1e-1, float("nan")))
    with pytest.raises(ValueError, match="s_list"):
        _mini_spec(eps_list=(1e-2,), s_list=())
    with pytest.raises(ValueError, match="s_list"):
        _mini_spec(eps_list=(1e-2,), s_list=(0, -1))
    with pytest.raises(ValueError, match="s_list"):
        _mini_spec(eps_list=(1e-2,), s_list=(0, MAX_SOBOLEV_ORDER + 1))


def test_fit_ready_gating():
    assert _mini_spec().fit_ready()  # three decades / decreasing
    assert not _mini_spec(eps_list=(1e-1, 1e-2)).fit_ready()
    assert not _mini_spec(eps_list=(1e-1, 1e-3, 1e-2)).fit_ready()
    assert not _mini_spec(eps_list=(1e-1, 5e-2, 1e-2)).fit_ready()
    assert not _mini_spec(eps_list=(1e-2, 1e-2, 1e-2)).fit_ready()


# ------------------------------------------------------------------- sweep


def test_mini_sweep_rows_and_statuses(mini_report):
    rep = mini_report
    assert rep.limit_status == "OK"
    assert [row["eps"] for row in rep.rows] == list(EPS_MINI)
    assert all(row["status"] == "OK" for row in rep.rows)
    assert rep.dt == 1e-3


def test_mini_sweep_errors_decrease_with_eps(mini_report):
    rows = mini_report.rows
    for key in ("n_H0", "u_H0", "qn_gap"):
        values = [row["errors"][key] for row in rows]
        assert values[0] > values[1] > values[2] > 0.0


def test_mini_sweep_fits_and_verdicts_present(mini_report):
    rep = mini_report
    for s in (0, 1, 2):
        assert f"n_H{s}" in rep.fits and f"u_H{s}" in rep.fits
        assert rep.verdicts[f"gronwall_s{s}"] in ("PASS", "FAIL")
        assert rep.verdicts[f"elliptic_k{s}"] in ("PASS", "FAIL")
    assert "qn_gap" in rep.fits
    for name in ("order_n", "order_u", "order_qn_gap"):
        assert rep.verdicts[name] in ("PASS", "FAIL")
    # sanity band only: at this short horizon the eps = 1e-1 member sits
    # outside the small-eps regime and drags the fitted slope down
    assert 0.4 < rep.fits["qn_gap"]["slope"] < 1.3


def test_sweep_deterministic_rerun(mini_report):
    again = run_sweep(_mini_spec())
    a = json.dumps(mini_report.as_dict(include_timings=False), sort_keys=True)
    b = json.dumps(again.as_dict(include_timings=False), sort_keys=True)
    assert a == b


@pytest.fixture(scope="module")
def mini_parallel_report():
    return run_sweep(_mini_spec(), jobs=2)


def test_sweep_parallel_matches_serial(mini_report, mini_parallel_report):
    a = json.dumps(mini_report.as_dict(include_timings=False), sort_keys=True)
    b = json.dumps(mini_parallel_report.as_dict(include_timings=False),
                   sort_keys=True)
    assert a == b


def _arrays(obj):
    """Every ndarray reachable through dataclass fields, dicts and sequences."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _arrays(key)
            yield from _arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _arrays(value)


def test_report_keeps_only_series(mini_report, mini_parallel_report):
    # members reduce their trajectories and remainder stacks to (T,)
    # series in the worker, so no (R, N) or (T, N) stack reaches the
    # report, whether the members ran in process or in a pool
    for report in (mini_report, mini_parallel_report):
        arrays = list(_arrays(report))
        assert arrays, "the members keep their series"
        assert [a.shape for a in arrays if a.ndim >= 2] == []


def test_members_share_the_read_only_limit_rows(sweep_records):
    # each member's remainder reads the limit flow through views of its
    # record stacks, so no stack may be written through any of them; a
    # member streams its full flow into its remainder rows and keeps one record
    run_sweep(_mini_spec())
    lim, *members = sweep_records.returned
    assert len(members) == len(sweep_records.remainders) == len(EPS_MINI)
    for ep, rems in zip(members, sweep_records.remainders):
        assert np.shares_memory(rems.n0, lim.n)
        assert np.shares_memory(rems.u0, lim.u)
        assert ep.phi.shape == ep.n.shape == (1, 64)
        assert rems.n1.shape == rems.u1.shape == rems.phi1.shape == lim.n.shape == (21, 64)
        for stack in (lim.t, lim.n, lim.u, ep.t, ep.n, ep.u, ep.phi,
                      rems.n0, rems.u0):
            with pytest.raises(ValueError, match="read-only"):
                stack[0] = 1.0
    assert lim.phi is None


def test_member_errors_match_the_trajectory_differences(sweep_records):
    # a row's n_H{s} and u_H{s} are eps times the remainder norms; they
    # must equal the H^s norms of the flows' differences, formed from
    # the two trajectories
    report = run_sweep(_mini_spec())
    lim, *eps_trajs = sweep_records.trajectories
    for row, ep in zip(report.rows, eps_trajs):
        for s in (0, 1, 2):
            for name, full, limit in (("n", ep.n, lim.n), ("u", ep.u, lim.u)):
                want = max(hs_norm(Field(lim.grid, a - b), s)
                           for a, b in zip(full, limit))
                assert row["errors"][f"{name}_H{s}"] == pytest.approx(
                    want, rel=1e-12, abs=0.0), (row["eps"], name, s)


def test_member_reduction_makes_three_transform_calls(monkeypatch, fft_calls):
    # one stacked transform each for the remainder spectra, the two
    # evolution residuals and the potential residual, counted from the
    # moment the member's remainder stack is assembled
    spec = _mini_spec(eps_list=(1e-2,))
    state = EPState(0.0, *make_initial(spec.init, Grid(spec.n_points)))
    lim = evolve(state, dataclasses.replace(spec.run, eps=0.0))

    def assemble(rows):
        rems = remainder_series(rows)
        fft_calls.clear()
        return rems

    monkeypatch.setattr(experiments, "remainder_series", assemble)
    member = _run_member(spec, state, lim, 1e-2)
    assert len(fft_calls) <= 3
    assert member.row["status"] == "OK" and len(member.residuals[0]) == 20


def _fail_solve(monkeypatch, call):
    """Make the ``call``-th potential solve of the flows fail, counting anew
    at each run's first solve (``call = 1``)."""
    real, calls = flows._solve_phi_values, []

    def solve(grid, n, *args):
        calls.append(1)
        if len(calls) == call:
            raise PBConvergenceError("planted failure", 1.0)
        return real(grid, n, *args)

    monkeypatch.setattr(flows, "_solve_phi_values", solve)
    return calls


# (limit t_end, the failing solve or None, streamed rows); a run's solves are
# its state's, then 3 stages and the new state's per step, so solve 41 is
# that of the state after step 10, the third record at record_every 5
STREAM_CASES = {"default": (0.1, None, 21), "first_solve_fails": (0.1, 1, 0),
                "last_record_has_no_potential": (0.1, 41, 2),
                "limit_ends_first": (0.05, None, 11)}


@pytest.mark.parametrize("case", list(STREAM_CASES))
def test_streamed_member_equals_the_paired_trajectories(monkeypatch, sweep_records,
                                                         case):
    # a member forms its remainder rows and its full flow's errors while the
    # run streams; they equal the bits of the old route, two kept
    # trajectories paired after the run, whether the last record has no
    # potential or the limit run ends before the member
    lim_t_end, failing, count = STREAM_CASES[case]
    spec = _mini_spec(eps_list=(1e-2,))
    initial = EPState(0.0, *make_initial(spec.init, Grid(spec.n_points)))
    lim = evolve(initial, dataclasses.replace(spec.run, eps=0.0, t_end=lim_t_end))
    calls = _fail_solve(monkeypatch, failing or 0)
    member = _run_member(spec, initial, lim, 1e-2)
    calls.clear()
    ep = evolve(initial, dataclasses.replace(spec.run, eps=1e-2, dt=lim.dt))
    assert (ep.blowup is None) == (failing is None) == (member.row["status"] == "OK")
    assert [len(traj.t) for traj in sweep_records.returned] == [1]

    (rems,), want = sweep_records.remainders, paired_remainder(ep, lim)
    assert len(rems.t) == count
    for name in ("t", "n0", "u0", "n1", "u1", "phi1"):
        assert np.array_equal(getattr(rems, name), getattr(want, name)), name
    phi_l2 = _l2_values(lim.grid, ep.phi[:count] - np.log(ep.n[:count]))
    errors = member.row["errors"]
    assert np.array_equal(errors["phi_l2"], np.max(phi_l2) if count else np.nan,
                          equal_nan=True)
    assert np.array_equal(errors["qn_gap"], quasineutrality_gap(ep), equal_nan=True)
    if case == "limit_ends_first":  # the gap reads every record of the member
        assert len(ep.phi) == 21


def test_member_keeps_no_full_flow_record_stack(monkeypatch, peak_alloc):
    # a member streams its full flow into its remainder rows, so up to its
    # diagnostics it holds those rows' three (R, N) stacks and no record
    # stack of its own. Measured at N = 64 and R = 206: 3.7 stacks, against
    # 8.2 when the member kept its records and paired them after the run
    class Stop(Exception):
        pass

    def stop(*args):
        raise Stop

    spec = _mini_spec(eps_list=(1e-2,), run=RunOptions(t_end=0.5))
    initial = EPState(0.0, *make_initial(spec.init, Grid(spec.n_points)))
    lim = evolve(initial, dataclasses.replace(spec.run, eps=0.0))
    monkeypatch.setattr(experiments, "remainder_residual", stop)

    def member():
        with pytest.raises(Stop):
            _run_member(spec, initial, lim, 1e-2)

    stack_bytes = 8 * len(lim.t) * spec.n_points
    assert len(lim.t) == 206
    assert peak_alloc(member) < 5 * stack_bytes


def test_sweep_pool_is_capped_at_the_member_count(monkeypatch):
    # the pool forks its workers at once, so a large --jobs must not
    # start more of them than there are members
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # the sweep imports the module only when it needs a pool, and looks
    # the executor up on it at call time
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    spec = _mini_spec(run=RunOptions(dt=1e-3, t_end=2e-3))
    for jobs in (100_000, 3, 2):
        rep = run_sweep(spec, jobs=jobs)
        assert seen.pop() == min(jobs, len(EPS_MINI))
        assert all(row["status"] == "OK" for row in rep.rows)


def test_default_sweep_pb_work(pb_counts):
    # the default sweep's members at N = 256 over 17 steps of the default
    # dt: 69 solves each. With each stage started from its own history,
    # kept clean of tolerance noise by one correction of every stage
    # solution, and the first step's stages 3 and 4 started from the stage
    # before them, they make 147 Newton steps (144 solves take none) and
    # 560 CG iterations. Correcting only the guesses that passed as they
    # were made 156 and 574 (135 took none), a history of the accepted
    # guesses as they were 257 and 797 (38 took none), the hand-made
    # stage guesses 287 and 1243, and the solver before any stage
    # extrapolation and the CG floor 419 and 2641.
    spec = _mini_spec(eps_list=(1e-1, 1e-2, 1e-3, 1e-4), n_points=256,
                      run=RunOptions(t_end=0.01, record_every=2))
    run_sweep(spec)
    steps = 17
    assert len(pb_counts) == 4 * (4 * steps + 1)
    assert sum(newton for newton, _ in pb_counts) <= 150
    assert sum(cg for _, cg in pb_counts) <= 600


def test_sweep_duplicate_eps_identical_rows():
    spec = _mini_spec(eps_list=(1e-2, 1e-2))
    rep = run_sweep(spec)
    assert not spec.fit_ready()
    assert rep.fits == {}
    first, second = rep.rows
    assert first["errors"] == second["errors"]
    assert first["sup_norms"] == second["sup_norms"]
    assert not rep.blew_up


def test_sweep_blowup_member_gates_verdicts(monkeypatch):
    monkeypatch.setattr(flows, "NORM_CEILING", 1e-3)
    rep = run_sweep(_mini_spec(eps_list=(1e-2,)))
    assert rep.rows[0]["status"] == "BLOWUP"
    assert "blowup" in rep.rows[0]
    for s in (0, 1, 2):
        assert rep.verdicts[f"gronwall_s{s}"] == "INCONCLUSIVE"
        assert rep.verdicts[f"elliptic_k{s}"] == "INCONCLUSIVE"
    assert rep.fits == {}
    # the report carries the one blow-up flag, outside its serialized form
    assert rep.blew_up and "blew_up" not in rep.as_dict()


def test_sweep_shorter_than_one_auto_step(sweep_records):
    # t_end = 0: the n and u errors are zero, so no order can be read
    # from them; the quasineutrality gap of the initial state remains
    run = RunOptions(t_end=0.0, record_every=5)
    rep = run_sweep(_mini_spec(n_points=32, run=run))
    assert list(rep.fits) == ["qn_gap"]
    assert rep.verdicts["order_n"] == rep.verdicts["order_u"] == "INCONCLUSIVE"
    # t_end below the auto dt: the sweep takes one step of length t_end
    run = RunOptions(t_end=1e-4, record_every=5)
    sweep_records.trajectories.clear()
    rep = run_sweep(_mini_spec(n_points=32, run=run))
    assert rep.dt == 1e-4
    assert sweep_records.trajectories[0].final.t == 1e-4
    assert all(row["status"] == "OK" for row in rep.rows)


def test_as_dict_strips_timings(mini_report):
    with_t = mini_report.as_dict()
    without = mini_report.as_dict(include_timings=False)
    assert "wall_time_total" in with_t
    assert "wall_time_total" not in without
    assert all("wall_time" in row for row in with_t["rows"])
    assert all("wall_time" not in row for row in without["rows"])


# ----------------------------------------------------------------- reports


def test_report_json_round_trip(mini_report, tmp_path):
    path = tmp_path / "report.json"
    write_report_json(mini_report, path)
    loaded = json.loads(path.read_text())
    assert set(loaded) == {"spec", "dt", "limit_status", "rows", "fits",
                           "verdicts", "wall_time_total"}
    assert loaded["spec"]["eps_list"] == list(EPS_MINI)
    assert loaded["spec"]["init"]["n_amp"] == 0.1
    assert loaded["rows"][0]["errors"]["n_H2"] > 0.0


def test_report_csv_layout(mini_report, tmp_path):
    path = tmp_path / "rows.csv"
    write_report_csv(mini_report, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("eps,status,s,sup_n1_Hs")
    assert len(lines) == 1 + len(EPS_MINI) * 3  # one row per (eps, s)


# ------------------------------------------------------------ gap helpers


def test_gap_helpers_need_potentials():
    grid = Grid(64)
    n0, u0 = make_initial(InitParams(), grid)
    lim = evolve(EPState(0.0, n0, u0),
                 RunOptions(dt=1e-3, t_end=0.01, eps=0.0, record_every=2))
    with pytest.raises(ValueError, match="no recorded potentials"):
        quasineutrality_gap(lim)
    with pytest.raises(ValueError, match="no recorded potentials"):
        quasineutral_identity_defect(lim)
    # a full flow whose first potential solve failed recorded none: NaN
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poisson, "MAX_NEWTON_ITERS", 1)
        ep = evolve(EPState(0.0, n0, u0), RunOptions(dt=1e-3, t_end=0.01, eps=1e-2))
    assert ep.blowup is not None and len(ep.phi) == 0
    assert np.isnan(quasineutrality_gap(ep))
    assert np.isnan(quasineutral_identity_defect(ep))
