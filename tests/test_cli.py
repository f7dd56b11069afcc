"""Command-line behaviour: exit codes, output files, precedence rules."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import debye_limit
from debye_limit import __version__
from debye_limit.cli import main


def _fast_sim_args(out_dir, extra=()):
    return ["simulate", "--grid", "64", "--t-end", "0.01", "--dt", "1e-3",
            "--eps", "1e-2", "--out", str(out_dir), *extra]


def _run_cli(argv):
    """The CLI in a fresh interpreter, so stderr shows any traceback."""
    src = os.path.dirname(os.path.dirname(debye_limit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "debye_limit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_version_prints_and_exits_zero(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_simulate_writes_trajectory_and_snapshot(tmp_path, capsys):
    code = main(_fast_sim_args(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "flow=ep eps=0.01" in out
    traj = tmp_path / "traj_ep_0.01.csv"
    snap = tmp_path / "snap_ep_0.01_0.01.csv"
    assert traj.exists() and snap.exists()
    header = traj.read_text().split("\n", 1)[0]
    assert header == ("t,norm_n_Hs,norm_u_Hs,mass,min_n,max_n,"
                      "quasineutral_residual")
    assert snap.read_text().split("\n", 1)[0] == "x,n,u,phi"


def test_simulate_limit_flow_forces_eps_zero(tmp_path, capsys):
    code = main(_fast_sim_args(tmp_path, extra=["--flow", "limit"]))
    assert code == 0
    assert (tmp_path / "traj_limit_0.csv").exists()
    # no potential is recorded for the limit flow snapshot
    snap = tmp_path / "snap_limit_0_0.01.csv"
    assert snap.read_text().split("\n", 1)[0] == "x,n,u"


def test_simulate_blowup_exits_three(tmp_path, capsys):
    conf = tmp_path / "conf.ini"
    conf.write_text("[run]\nnorm_ceiling = 1e-3\n")
    code = main(_fast_sim_args(tmp_path, extra=["--config", str(conf)]))
    assert code == 3
    assert "blow-up at" in capsys.readouterr().out


def test_simulate_pb_failure_exits_three_without_traceback(tmp_path):
    # a potential solve that cannot converge ends the run like a guard:
    # exit 3, the partial trajectory is written, nothing escapes
    conf = tmp_path / "conf.ini"
    conf.write_text("[pb]\nmax_newton_iters = 1\n")
    proc = _run_cli(["simulate", "--flow", "ep", "--eps", "1e-2", "--grid",
                     "64", "--config", str(conf), "--out", str(tmp_path)])
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "pb_divergence" in proc.stdout
    lines = (tmp_path / "traj_ep_0.01.csv").read_text().strip().split("\n")
    assert len(lines) == 2  # header and the initial state
    assert float(lines[1].split(",")[0]) == 0.0


def test_sweep_pb_failure_marks_members_blowup(tmp_path, capsys):
    conf = tmp_path / "conf.ini"
    conf.write_text("""
[grid]
n_points = 32
[run]
t_end = 0.01
dt = 1e-3
[pb]
max_newton_iters = 1
[sweep]
eps_list = 1e-2 1e-3
""")
    code = main(["sweep", "--config", str(conf), "--out", str(tmp_path)])
    assert code == 3
    report = json.loads((tmp_path / "sweep_report.json").read_text())
    assert report["limit_status"] == "OK"
    for row in report["rows"]:
        assert row["status"] == "BLOWUP"
        assert row["blowup"]["reason"] == "pb_divergence"
        # the first solve failed, so no state has a potential: every
        # sup over the empty series reads NaN, the gap included
        assert row["blowup"]["t"] == 0.0
        sups = [v for fam in (row["sup_norms"], row["elliptic"])
                for group in fam.values() for v in group.values()]
        for value in [*row["errors"].values(), *sups]:
            assert np.isnan(value)
        assert np.isnan(row["errors"]["qn_gap"])


def test_near_vacuum_guard_outcome_matches_trajectory(tmp_path, capsys):
    # near-vacuum data steepens hard; whether or not the floor trips
    # before t_end, the exit code must agree with where the CSV stops
    code = main(["simulate", "--flow", "ep", "--eps", "1e-2",
                 "--grid", "64", "--t-end", "0.35", "--n-amp", "0.9",
                 "--out", str(tmp_path)])
    lines = (tmp_path / "traj_ep_0.01.csv").read_text().strip().split("\n")
    first = lines[1].split(",")
    assert abs(float(first[4]) - 0.1) < 1e-12  # min_n sees the amplitude
    tripped = "blow-up at" in capsys.readouterr().out
    assert code == (3 if tripped else 0)
    last_t = float(lines[-1].split(",")[0])
    assert (last_t < 0.35) == (code == 3)


def test_n_amp_at_or_above_base_exits_two(tmp_path, capsys):
    code = main(_fast_sim_args(tmp_path, extra=["--n-amp", "1.5"]))
    assert code == 2
    assert "n_amp" in capsys.readouterr().err


def test_bad_config_exits_two(tmp_path, capsys):
    conf = tmp_path / "conf.ini"
    conf.write_text("[run]\nteps = 3\n")
    code = main(_fast_sim_args(tmp_path, extra=["--config", str(conf)]))
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


def test_bad_dt_exits_two(tmp_path, capsys):
    code = main(["simulate", "--dt", "soon", "--out", str(tmp_path)])
    assert code == 2
    assert "--dt expects" in capsys.readouterr().err


def test_check_rejects_auto_dt(tmp_path, capsys):
    code = main(["check", "--dt", "auto", "--out", str(tmp_path)])
    assert code == 2
    assert "explicit --dt" in capsys.readouterr().err


def test_eps_zero_needs_limit_flow(tmp_path, capsys):
    code = main(_fast_sim_args(tmp_path, extra=["--eps", "0.0"]))
    assert code == 2
    assert "needs eps > 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config, codes", [
    pytest.param(["simulate", "--t-end", "nan"], None, (2,), id="simulate-t-nan"),
    pytest.param(["simulate", "--t-end", "inf"], None, (2,), id="simulate-t-inf"),
    pytest.param(["check", "--t-end", "nan"], None, (2,), id="check-t-nan"),
    pytest.param(["check", "--t-end", "inf"], None, (2,), id="check-t-inf"),
    pytest.param(["check", "--eps", "0"], None, (2,), id="check-eps-0"),
    pytest.param(["sweep", "--grid", "32", "--t-end", "1e-3"],
                 "[sweep]\neps_list = nan 1e-2\n", (2,), id="sweep-eps-nan"),
    # too few recorded states for the identity check
    pytest.param(["check", "--t-end", "0"], None, (2,), id="check-t-0"),
    pytest.param(["simulate", "--grid", "32", "--t-end", "1e-3", "--s", "9"],
                 None, (2,), id="simulate-s-flag"),
    pytest.param(["simulate", "--grid", "32", "--t-end", "1e-3"],
                 "[run]\ns = 99\n", (2,), id="simulate-s-config"),
    pytest.param(["sweep", "--grid", "32", "--t-end", "1e-3"],
                 "[sweep]\ns_list = 0 9\n", (2,), id="sweep-s_list"),
    # t_end below the auto dt: one short step, as simulate takes
    pytest.param(["sweep", "--grid", "32", "--t-end", "1e-4"], None, (0, 4),
                 id="sweep-t-below-dt"),
    # the n and u errors are all zero, so their orders are inconclusive
    pytest.param(["sweep", "--grid", "32", "--t-end", "0"], None, (0, 4),
                 id="sweep-t-0"),
    # exit-1 holes that test_exit_code_contract_property found
    pytest.param(["sweep", "--grid", "0"], None, (2,), id="sweep-grid-0"),
    pytest.param(["check", "--seed", "-1"], None, (2,), id="check-seed-negative"),
    pytest.param(["check", "--t-end", "0.0301"], None, (2,),
                 id="check-t-not-whole-records"),
    pytest.param(["check", "--eps", "1e-300"], None, (2,), id="check-eps-tiny"),
    # eps*k^2 overflows: the potential solve stops before any numpy
    # arithmetic could warn, and the run ends as a pb_divergence
    pytest.param(["simulate", "--grid", "32", "--t-end", "1e-3", "--eps", "inf"],
                 None, (3,), id="simulate-eps-inf"),
    pytest.param(["simulate", "--grid", "32", "--t-end", "1e-3", "--eps", "1e308"],
                 None, (3,), id="simulate-eps-1e308"),
])
def test_exit_code_contract_without_traceback(tmp_path, argv, config, codes):
    if config is not None:
        conf = tmp_path / "conf.ini"
        conf.write_text(config)
        argv = [*argv, "--config", str(conf)]
    proc = _run_cli([*argv, "--out", str(tmp_path)])
    assert proc.returncode in codes
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr


def test_sweep_duplicate_eps_passes_and_writes(tmp_path, capsys):
    conf = tmp_path / "conf.ini"
    conf.write_text("""
[grid]
n_points = 64
[run]
t_end = 0.02
dt = 1e-3
[sweep]
eps_list = 1e-2 1e-2
record_every = 5
""")
    code = main(["sweep", "--config", str(conf), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict gronwall_s0: PASS" in out
    assert (tmp_path / "sweep_report.json").exists()
    assert (tmp_path / "sweep_rows.csv").exists()
    assert (tmp_path / "remainder_0.01.csv").exists()


def test_sweep_failed_verdict_exits_four(tmp_path, capsys):
    conf = tmp_path / "conf.ini"
    conf.write_text("""
[grid]
n_points = 64
[run]
t_end = 0.02
dt = 1e-3
[sweep]
eps_list = 1e-2 1e-2
record_every = 5
bound_factor = 0.5
""")
    code = main(["sweep", "--config", str(conf), "--out", str(tmp_path)])
    assert code == 4
    assert "verdict gronwall_s0: FAIL" in capsys.readouterr().out


def test_check_battery_quick_run(tmp_path, capsys):
    conf = tmp_path / "conf.ini"
    conf.write_text("""
[check]
n_points = 64
dt = 1e-3
record_every = 1
t_end = 0.01
identity_tol = 1e-3
res_n_tol = 1e-2
res_u_tol = 1e-2
res_phi_tol = 1e-8
kp_pairs = 5
kp_grid = 64
kp_max_mode = 4
""")
    code = main(["check", "--config", str(conf), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 7
    assert "FAIL" not in out
    for name in ("check_ledger.csv", "check_residuals.csv",
                 "check_kato_ponce.csv"):
        assert (tmp_path / name).exists()


def test_out_dir_precedence(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "env"
    cfg_dir = tmp_path / "cfg"
    flag_dir = tmp_path / "flag"
    monkeypatch.setenv("DEBYE_LIMIT_OUT", str(env_dir))

    # env var alone
    code = main(["simulate", "--grid", "64", "--t-end", "0.01",
                 "--dt", "1e-3", "--eps", "1e-2"])
    assert code == 0
    assert (env_dir / "traj_ep_0.01.csv").exists()

    # config [output] dir beats the env var
    conf = tmp_path / "conf.ini"
    conf.write_text(f"[output]\ndir = {cfg_dir}\n")
    code = main(["simulate", "--grid", "64", "--t-end", "0.01",
                 "--dt", "1e-3", "--eps", "1e-2", "--config", str(conf)])
    assert code == 0
    assert (cfg_dir / "traj_ep_0.01.csv").exists()

    # --out beats both
    code = main(["simulate", "--grid", "64", "--t-end", "0.01",
                 "--dt", "1e-3", "--eps", "1e-2", "--config", str(conf),
                 "--out", str(flag_dir)])
    assert code == 0
    assert (flag_dir / "traj_ep_0.01.csv").exists()
    capsys.readouterr()


# -------------------------------------------------- one computation each


def _ini(sections):
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


SMALL_SWEEP = _ini({"grid": {"n_points": 32},
                    "run": {"t_end": 0.01, "dt": 1e-3},
                    "sweep": {"eps_list": "1e-1 1e-2 1e-3"}})
# a short, densely recorded run and a small Kato-Ponce battery
SMALL_CHECK_KEYS = {"n_points": 32, "dt": 1e-3, "record_every": 1,
                    "t_end": 0.01, "kp_pairs": 2, "kp_grid": 32,
                    "kp_max_mode": 4}


def _recording(monkeypatch, module, name, sink):
    """Replace ``module.name`` by a wrapper that appends each result to sink."""
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = real(*args, **kwargs)
        sink.append(result)
        return result

    monkeypatch.setattr(module, name, wrapper)


def test_sweep_forms_each_triple_norm_once(tmp_path, monkeypatch, capsys):
    # one triple norm stack per (member, s), covering every recorded
    # snapshot, and the elliptic ratios read those norms instead of
    # forming their own
    from debye_limit import energy, experiments, remainder

    series, norms, ratios, ffts_in_ratios, inside = [], [], [], [], []
    _recording(monkeypatch, experiments, "remainder_series", series)
    for module in (remainder, experiments, energy):
        if hasattr(module, "triple_norm"):
            _recording(monkeypatch, module, "triple_norm", norms)
    # every H^s norm starts with a real FFT: count those inside the ratios
    real_rfft, real_ratio = np.fft.rfft, experiments.elliptic_ratio_pair

    def counting_rfft(*args, **kwargs):
        ffts_in_ratios.extend(inside)
        return real_rfft(*args, **kwargs)

    def flagged_ratio(*args):
        inside.append(1)
        try:
            return real_ratio(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    monkeypatch.setattr(experiments, "elliptic_ratio_pair", flagged_ratio)
    _recording(monkeypatch, experiments, "elliptic_ratio_pair", ratios)
    conf = tmp_path / "conf.ini"
    conf.write_text(SMALL_SWEEP)
    code = main(["sweep", "--config", str(conf), "--out", str(tmp_path)])
    capsys.readouterr()
    assert code in (0, 4)
    s_count = 3  # the default s_list 0 1 2
    snapshots = sum(len(rems.t) for rems in series)
    assert len(series) == 3 and snapshots > 3
    assert len(norms) == len(series) * s_count
    assert [len(tn.t) for tn in norms] == [
        len(rems.t) for rems in series for _ in range(s_count)]
    assert len(ratios) == len(series) * s_count
    assert not ffts_in_ratios


@pytest.mark.parametrize("max_mode, want", [("15", (0, 4)), ("16", (2,)),
                                             ("10000000000000", (2,))])
def test_kp_max_mode_must_stay_below_nyquist(tmp_path, capsys, max_mode, want):
    # kp_grid 32 has its Nyquist mode at 16: from there on the sampler
    # is not alias-free, and a huge mode count cannot even be drawn
    keys = dict(SMALL_CHECK_KEYS, kp_max_mode=max_mode)
    conf = tmp_path / "conf.ini"
    conf.write_text(_ini({"check": keys}))
    code = main(["check", "--config", str(conf), "--out", str(tmp_path)])
    assert code in want
    assert ("kp_max_mode" in capsys.readouterr().err) == (code == 2)


def test_check_computes_each_energy_snapshot_once(tmp_path, monkeypatch, capsys):
    from debye_limit import cli, energy

    series, snaps = [], []
    _recording(monkeypatch, cli, "remainder_series", series)
    _recording(monkeypatch, cli, "energy_snapshot", snaps)
    _recording(monkeypatch, energy, "energy_snapshot", snaps)
    conf = tmp_path / "conf.ini"
    conf.write_text(_ini({"check": SMALL_CHECK_KEYS}))
    code = main(["check", "--config", str(conf), "--out", str(tmp_path)])
    capsys.readouterr()
    assert code in (0, 4)
    assert len(series) == 1
    assert len(snaps) == 1
    assert len(snaps[0].t) == len(series[0].t) == 11


def test_each_potential_residual_formed_once_per_pass(tmp_path, monkeypatch,
                                                      capsys):
    # check takes residuals at strides 2 and 1, and the sweep's remainder
    # tables at stride 1: each pass forms the potential equation's
    # residual once per snapshot it uses, not once per pair end
    from debye_limit import cli, experiments, remainder

    series, rows = [], []
    real = remainder._res_phi_values

    def counting(grid, eps, n0, n1, phi1):
        rows.append(len(n0))
        return real(grid, eps, n0, n1, phi1)

    monkeypatch.setattr(remainder, "_res_phi_values", counting)
    _recording(monkeypatch, cli, "remainder_series", series)
    conf = tmp_path / "check.ini"
    conf.write_text(_ini({"check": SMALL_CHECK_KEYS}))
    assert main(["check", "--config", str(conf), "--out", str(tmp_path)]) in (0, 4)
    assert rows == [6, 11]  # 11 records: rows 0, 2, ..., 10, then all

    series.clear()
    rows.clear()
    _recording(monkeypatch, experiments, "remainder_series", series)
    conf.write_text(SMALL_SWEEP)
    assert main(["sweep", "--config", str(conf), "--out", str(tmp_path)]) in (0, 4)
    capsys.readouterr()
    assert rows == [len(rems.t) for rems in series] and len(rows) == 3


# --------------------------------------------------- exit-code contract


# Each flag draws a value that should run. Up to two flags or config
# keys then take an edge value: one to be rejected (2), one that ends
# the run (3), or one that only some commands accept.
_VALID_FLAGS = {
    "--grid": ("32", "64"),
    "--eps": ("1e-1", "1e-2", "1e-12"),
    "--s": tuple(str(s) for s in range(9)),
    "--n-amp": ("0.1", "-0.5", "0.9", "0.99"),
    "--flow": ("ep", "limit"),
    "--seed": ("0", "7"),
}
_EDGES = (
    ("--t-end", "-1e-3"), ("--t-end", "nan"), ("--t-end", "inf"),
    ("--dt", "0"), ("--dt", "-1e-3"), ("--dt", "nan"),
    ("--grid", "0"), ("--grid", "-1"), ("--grid", "33"),
    ("--eps", "0"), ("--eps", "-1e-2"), ("--eps", "nan"), ("--eps", "inf"),
    ("--eps", "1e308"), ("--eps", "1e-300"), ("--s", "-2"), ("--s", "-1"),
    ("--s", "9"), ("--s", "12"), ("--n-amp", "1"), ("--n-amp", "1.5"),
    ("--seed", "-1"),
    ("run", "record_every", "0"), ("run", "norm_ceiling", "1e-3"),
    ("pb", "max_newton_iters", "0"), ("pb", "max_newton_iters", "1"),
    ("sweep", "eps_list", "1e-2 nan"), ("sweep", "eps_list", "inf 1e-2"),
    ("sweep", "eps_list", "1e-2 -1"), ("sweep", "eps_list", "1e-2 1e-300"),
    ("sweep", "s_list", "0 9"),
    ("check", "kp_pairs", "0"), ("check", "kp_grid", "33"),
    ("check", "kp_max_mode", "-1"), ("check", "kp_max_mode", "10000000000000"),
    ("check", "kp_max_mode", "16"),
)


@st.composite
def _cli_case(draw):
    command = draw(st.sampled_from(("simulate", "sweep", "check")))
    t_end = draw(st.sampled_from(("2e-3", "1e-3", "1e-4", "0")))
    flags = {"--t-end": t_end, "--jobs": "1"}
    # a tiny dt is a long run, not a breach of the contract
    flags["--dt"] = draw(st.one_of(
        st.just("auto"),
        st.integers(1, 20).map(lambda k: repr(float(t_end) / k)),
        st.floats(1.0 / 20.0, 1.0).map(lambda f: repr(f * float(t_end)))))
    for flag, values in _VALID_FLAGS.items():
        if draw(st.booleans()):
            flags[flag] = draw(st.sampled_from(values))
    config = {"check": dict(SMALL_CHECK_KEYS)}
    for edge in draw(st.lists(st.sampled_from(_EDGES), max_size=2)):
        if len(edge) == 2:
            flags[edge[0]] = edge[1]
        else:
            config.setdefault(edge[0], {})[edge[1]] = edge[2]
    # "--flag=value", so that argparse reads "-1e-3" as a value
    return [command, *(f"{k}={v}" for k, v in flags.items())], config


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_cli_case())
def test_exit_code_contract_property(tmp_path_factory, case):
    # every flag and config value ends in 0, 2, 3 or 4: nothing escapes
    argv, config = case
    out = tmp_path_factory.mktemp("contract")
    conf = out / "conf.ini"
    conf.write_text(_ini(config))
    try:
        code = main([*argv, "--config", str(conf), "--out", str(out)])
    except SystemExit as exc:  # argparse rejects a malformed flag
        code = exc.code
    assert code in (0, 2, 3, 4), (argv, config)
