"""Command-line behaviour: exit codes, output files, precedence rules."""

import json
import os
import subprocess
import sys

import pytest

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
])
def test_exit_code_contract_without_traceback(tmp_path, argv, config, codes):
    if config is not None:
        conf = tmp_path / "conf.ini"
        conf.write_text(config)
        argv = [*argv, "--config", str(conf)]
    proc = _run_cli([*argv, "--out", str(tmp_path)])
    assert proc.returncode in codes
    assert "Traceback" not in proc.stderr


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
