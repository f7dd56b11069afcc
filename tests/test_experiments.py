"""Sweep orchestration: order fits, verdict assembly, reports."""

import json

import numpy as np
import pytest

from debye_limit.experiments import (
    SweepSpec,
    fit_order,
    quasineutral_identity_defect,
    quasineutrality_gap,
    run_sweep,
    write_report_csv,
    write_report_json,
)
from debye_limit.flows import EPState, LimitState, RunOptions, evolve
from debye_limit.grid import MAX_SOBOLEV_ORDER, Grid
from debye_limit.initial import InitParams, make_initial
from debye_limit.poisson import PBSolveOptions

EPS_MINI = (1e-1, 1e-2, 1e-3)


def _mini_spec(**kwargs):
    defaults = dict(
        eps_list=EPS_MINI,
        n_points=64,
        run=RunOptions(dt=1e-3, t_end=0.1, record_every=5),
        init=InitParams(),
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
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.7), abs=1e-10)
    assert fit.eps_used == tuple(eps)


def test_fit_order_validation():
    with pytest.raises(ValueError, match=">= 3 pairs"):
        fit_order([(1e-1, 1.0), (1e-2, 0.1)])
    with pytest.raises(ValueError, match="positive"):
        fit_order([(1e-1, 1.0), (1e-2, 0.1), (1e-3, -0.1)])
    with pytest.raises(ValueError, match="positive"):
        fit_order([(0.0, 1.0), (1e-2, 0.1), (1e-3, 0.01)])
    with pytest.raises(ValueError, match="distinct"):
        fit_order([(1e-2, 1.0), (1e-2, 1.0), (1e-2, 1.0)])


# -------------------------------------------------------------------- spec


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="eps_list"):
        SweepSpec(eps_list=())
    with pytest.raises(ValueError, match="positive"):
        SweepSpec(eps_list=(1e-1, -1e-2))
    with pytest.raises(ValueError, match="at least"):
        SweepSpec(eps_list=(1e-1, 1e-300))
    with pytest.raises(ValueError, match="eps_list"):
        SweepSpec(eps_list=(1e-1, float("nan")))
    with pytest.raises(ValueError, match="s_list"):
        SweepSpec(eps_list=(1e-2,), s_list=())
    with pytest.raises(ValueError, match="s_list"):
        SweepSpec(eps_list=(1e-2,), s_list=(0, -1))
    with pytest.raises(ValueError, match="s_list"):
        SweepSpec(eps_list=(1e-2,), s_list=(0, MAX_SOBOLEV_ORDER + 1))
    with pytest.raises(ValueError, match="bound_factor"):
        SweepSpec(eps_list=(1e-2,), bound_factor=0.0)


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


def test_sweep_parallel_matches_serial(mini_report):
    par = run_sweep(_mini_spec(), jobs=2)
    a = json.dumps(mini_report.as_dict(include_timings=False), sort_keys=True)
    b = json.dumps(par.as_dict(include_timings=False), sort_keys=True)
    assert a == b


def test_sweep_duplicate_eps_identical_rows():
    spec = _mini_spec(eps_list=(1e-2, 1e-2))
    rep = run_sweep(spec)
    assert not spec.fit_ready()
    assert rep.fits == {}
    first, second = rep.rows
    assert first["errors"] == second["errors"]
    assert first["sup_norms"] == second["sup_norms"]


def test_sweep_blowup_member_gates_verdicts():
    spec = _mini_spec(
        eps_list=(1e-2,),
        run=RunOptions(dt=1e-3, t_end=0.1, record_every=5, norm_ceiling=1e-3),
    )
    rep = run_sweep(spec)
    assert rep.rows[0]["status"] == "BLOWUP"
    assert "blowup" in rep.rows[0]
    for s in (0, 1, 2):
        assert rep.verdicts[f"gronwall_s{s}"] == "INCONCLUSIVE"
        assert rep.verdicts[f"elliptic_k{s}"] == "INCONCLUSIVE"
    assert rep.fits == {}


def test_sweep_shorter_than_one_auto_step():
    # t_end = 0: the n and u errors are zero, so no order can be read
    # from them; the quasineutrality gap of the initial state remains
    run = RunOptions(t_end=0.0, record_every=5)
    rep = run_sweep(_mini_spec(n_points=32, run=run))
    assert list(rep.fits) == ["qn_gap"]
    assert rep.verdicts["order_n"] == rep.verdicts["order_u"] == "INCONCLUSIVE"
    # t_end below the auto dt: the sweep takes one step of length t_end
    run = RunOptions(t_end=1e-4, record_every=5)
    rep = run_sweep(_mini_spec(n_points=32, run=run))
    assert rep.dt == 1e-4
    assert rep.limit_traj.final.t == 1e-4
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
    lim = evolve(LimitState(0.0, n0, u0),
                 RunOptions(dt=1e-3, t_end=0.01, eps=0.0, record_every=2))
    with pytest.raises(ValueError, match="no recorded potentials"):
        quasineutrality_gap(lim)
    with pytest.raises(ValueError, match="no recorded potentials"):
        quasineutral_identity_defect(lim)
    # a full flow whose first potential solve failed recorded none: NaN
    ep = evolve(EPState(0.0, n0, u0),
                RunOptions(dt=1e-3, t_end=0.01, eps=1e-2,
                           pb=PBSolveOptions(max_newton_iters=1)))
    assert ep.blowup is not None and ep.phis == []
    assert np.isnan(quasineutrality_gap(ep))
    assert np.isnan(quasineutral_identity_defect(ep))
