"""Command-line behaviour: exit codes, output files, precedence rules."""

import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import debye_limit
from debye_limit import __version__, cli, flows, poisson
from debye_limit.cli import main
from debye_limit.energy import kato_ponce_sample
from debye_limit.grid import Grid
from debye_limit.initial import random_smooth_fields

README = Path(__file__).resolve().parents[1] / "README.md"


def _fast_sim_args(out_dir, extra=()):
    return ["simulate", "--grid", "64", "--t-end", "0.01", "--dt", "1e-3",
            "--eps", "1e-2", "--out", str(out_dir), *extra]


def _run_cli(argv):
    """The CLI in a fresh interpreter, so stderr shows any traceback."""
    src = os.path.dirname(os.path.dirname(debye_limit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "debye_limit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def _run_in_process(argv, capfd):
    """``main(argv)`` in this process: its exit code, stdout, stderr and
    the messages of the warnings it raised.

    A ``SystemExit`` (argparse's usage errors) gives its code; any other
    exception escapes and fails the calling test, where a fresh
    interpreter would have printed a traceback and exited 1. Every
    warning is recorded, including those pytest would otherwise filter.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = capfd.readouterr()
    return code, out, err, [str(w.message) for w in caught]


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


def test_simulate_blowup_exits_three(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(flows, "NORM_CEILING", 1e-3)
    code = main(_fast_sim_args(tmp_path))
    assert code == 3
    assert "blow-up at" in capsys.readouterr().out


def test_simulate_pb_failure_exits_three_without_traceback(tmp_path, monkeypatch,
                                                           capfd):
    # a potential solve that cannot converge ends the run like a guard:
    # exit 3, the partial trajectory is written, nothing escapes
    monkeypatch.setattr(poisson, "MAX_NEWTON_ITERS", 1)
    code, out, err, caught = _run_in_process(
        ["simulate", "--flow", "ep", "--eps", "1e-2", "--grid", "64",
         "--out", str(tmp_path)], capfd)
    assert code == 3
    assert "Traceback" not in err and not caught
    assert "pb_divergence" in out
    lines = (tmp_path / "traj_ep_0.01.csv").read_text().strip().split("\n")
    assert len(lines) == 2  # header and the initial state
    assert float(lines[1].split(",")[0]) == 0.0


def test_sweep_pb_failure_marks_members_blowup(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(poisson, "MAX_NEWTON_ITERS", 1)
    conf = tmp_path / "conf.ini"
    conf.write_text("""
[grid]
n_points = 32
[run]
t_end = 0.01
dt = 1e-3
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
    err = capsys.readouterr().err
    assert "--dt ([run] dt)" in err and "'soon'" in err


def test_check_rejects_auto_dt(tmp_path, capsys):
    # [check] dt is a plain float key, so the flag takes no 'auto' either
    code = main(["check", "--dt", "auto", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--dt ([check] dt)" in err and "'auto'" in err


def test_simulate_prints_the_step_of_a_run_below_one_auto_step(tmp_path, capsys):
    code = main(["simulate", "--grid", "32", "--t-end", "1e-4",
                 "--out", str(tmp_path)])
    assert code == 0
    assert "dt=0.0001 steps to t=0.0001" in capsys.readouterr().out


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
    # a derivative order outside 0..16 built k**-1 or overflowed
    pytest.param(["check"], "[check]\ngamma = -1\n", (2,), id="check-gamma-negative"),
    pytest.param(["check"], "[check]\ngamma = 17\n", (2,), id="check-gamma-17"),
    # t_end / dt overflowed to inf when the steps were counted
    pytest.param(["simulate", "--grid", "32", "--t-end", "1e-3", "--dt", "1e-320"],
                 None, (2,), id="simulate-dt-tiny"),
    pytest.param(["sweep", "--grid", "32", "--t-end", "1e-3", "--dt", "1e-320"],
                 None, (2,), id="sweep-dt-tiny"),
    pytest.param(["check", "--t-end", "1e-3", "--dt", "1e-320"], None, (2,),
                 id="check-dt-tiny"),
    # non-finite initial data passed InitParams and failed in the field check
    *[pytest.param([command], f"[init]\n{key} = {value}\n", (2,),
                   id=f"{command}-{key}-{value}")
      for command in ("simulate", "sweep", "check")
      for key, value in (("u_amp", "nan"), ("n_base", "inf"), ("phase_u", "inf"))],
    # a finite but huge velocity overflows in the first step and in the
    # record norms: the guards end the run, and numpy must not warn
    pytest.param(["check"], "[init]\nu_amp = 1e308\n", (3,), id="check-u_amp-1e308"),
    pytest.param(["simulate", "--dt", "1e-4"], "[init]\nu_amp = 1e308\n", (3,),
                 id="simulate-u_amp-1e308"),
    pytest.param(["sweep", "--grid", "32", "--t-end", "1e-3", "--dt", "1e-4",
                  "--jobs", "2"], "[init]\nu_amp = 1e308\n", (3,),
                 id="sweep-jobs-2-u_amp-1e308"),
    # with an auto dt of about 1e-311 the step count overflows (simulate)
    # or the record stacks do not fit (sweep, 6.4e+306 records) before any
    # step is taken
    pytest.param(["simulate"], "[init]\nu_amp = 1e308\n", (2,),
                 id="simulate-auto-dt-u_amp-1e308"),
    pytest.param(["sweep", "--grid", "32", "--t-end", "1e-3"],
                 "[init]\nu_amp = 1e308\n", (2,), id="sweep-auto-dt-u_amp-1e308"),
    # a power-of-two grid whose tables cannot be allocated raised numpy's
    # MemoryError; 2^40 points fail at the request, before any allocation
    *[pytest.param([command, "--grid", str(2**40)], None, (2,),
                   id=f"{command}-grid-2-pow-40")
      for command in ("simulate", "sweep", "check")],
    pytest.param(["check"], f"[check]\nkp_grid = {2**40}\n", (2,),
                 id="check-kp_grid-2-pow-40"),
])
def test_exit_code_contract_without_traceback(tmp_path, capfd, argv, config,
                                              codes):
    if config is not None:
        conf = tmp_path / "conf.ini"
        conf.write_text(config)
        argv = [*argv, "--config", str(conf)]
    code, _, err, caught = _run_in_process([*argv, "--out", str(tmp_path)], capfd)
    assert code in codes
    assert not caught, caught
    assert "Traceback" not in err
    assert "Warning" not in err  # a --jobs worker's warnings reach fd 2 only
    assert len(err.splitlines()) <= 1  # at most one error line
    # a record count of 10^15 or more is named in %.4g form, not in 308 digits
    assert len(err) < 200


# one case per command in a fresh interpreter, for what only a new process
# shows: failures at import time, state left over from an earlier test, and
# the warnings of --jobs workers, which fork with the parent's warning filters
@pytest.mark.parametrize("argv, config, code", [
    (["version"], None, 0),
    (["simulate", "--grid", "32", "--t-end", "1e-3", "--eps", "inf"], "", 3),
    (["sweep", "--grid", "32", "--t-end", "1e-3", "--dt", "1e-4", "--jobs", "2"],
     "[init]\nu_amp = 1e308\n", 3),
    (["check"], "[init]\nu_amp = 1e308\n", 3),
], ids=["version", "simulate", "sweep", "check"])
def test_fresh_interpreter_exit_code_without_traceback(tmp_path, argv, config,
                                                       code):
    if config is not None:  # every command but version
        conf = tmp_path / "conf.ini"
        conf.write_text(config)
        argv = [*argv, "--config", str(conf), "--out", str(tmp_path)]
    proc = _run_cli(argv)
    assert proc.returncode == code
    assert proc.stderr == ""
    if argv == ["version"]:
        assert proc.stdout.strip() == __version__


@pytest.mark.parametrize("command", ["simulate", "sweep", "check"])
def test_record_stacks_too_large_exit_two(tmp_path, capsys, command):
    # a run's record stacks are allocated before its first step, so a
    # run too long to record fails at once, naming its record count
    code = main([command, "--t-end", "1e9", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the ") and " records of a run " in err
    assert int(err.split()[2]) > 10 ** 11


def test_check_on_the_rest_state(tmp_path, capsys):
    # n_amp = u_amp = 0: every residual vanishes, and each halving ratio
    # of a vanishing error reads inf instead of warning on 0/0
    conf = tmp_path / "conf.ini"
    conf.write_text(_ini({"init": {"n_amp": 0.0, "u_amp": 0.0},
                          "check": dict(SMALL_CHECK_KEYS, n_points=64)}))
    code = main(["check", "--config", str(conf), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "halving ratio = inf" in out
    assert "ratios: res_n inf, res_u inf" in out


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


def test_sweep_names_each_remainder_file_by_its_eps(tmp_path, capsys):
    # two eps values that agree to 6 digits: each member keeps its own file
    conf = tmp_path / "conf.ini"
    conf.write_text("""
[grid]
n_points = 32
[run]
t_end = 0.004
dt = 1e-3
[sweep]
eps_list = 0.01 0.0100000001
s_list = 0
record_every = 1
""")
    assert main(["sweep", "--config", str(conf), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "sweep_report.json").read_text())
    assert [row["eps"] for row in report["rows"]] == [0.01, 0.0100000001]
    for eps in (0.01, 0.0100000001):
        lines = (tmp_path / f"remainder_{eps!r}.csv").read_text().strip().split("\n")
        assert len(lines) == 6  # the header and one row per record
        assert {float(line.split(",")[1]) for line in lines[1:]} == {eps}
    assert len(list(tmp_path.glob("remainder_*.csv"))) == 2


def test_sweep_limit_blowup_makes_every_uniformity_verdict_inconclusive(tmp_path,
                                                                         capsys):
    # the limit run ends at the density floor near t = 0.557 while the
    # member runs to t_end: the paired records stop short of t_end, so no
    # verdict of uniformity in eps can be read from them
    conf = tmp_path / "conf.ini"
    conf.write_text("""
[grid]
n_points = 64
[init]
n_amp = 0.9
[run]
t_end = 0.6
[sweep]
eps_list = 0.1
s_list = 0
record_every = 4
""")
    code = main(["sweep", "--config", str(conf), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 3
    report = json.loads((tmp_path / "sweep_report.json").read_text())
    assert report["limit_status"] == "BLOWUP"
    assert [row["status"] for row in report["rows"]] == ["OK"]
    last = (tmp_path / "remainder_0.1.csv").read_text().strip().split("\n")[-1]
    assert float(last.split(",")[0]) < 0.6
    assert report["verdicts"] == {"gronwall_s0": "INCONCLUSIVE",
                                  "elliptic_k0": "INCONCLUSIVE"}
    assert "verdict gronwall_s0: INCONCLUSIVE" in out


def test_sweep_failed_verdict_exits_four(tmp_path, capsys):
    # the golden sweep: its eps = 1e-1 member lies outside the small-eps
    # regime, so the density order and the elliptic ratios fail
    code = main(["sweep", "--grid", "64", "--t-end", "0.01",
                 "--out", str(tmp_path)])
    assert code == 4
    out = capsys.readouterr().out
    assert "verdict order_n: FAIL" in out
    assert "verdict gronwall_s0: PASS" in out


def test_check_battery_quick_run(tmp_path, capsys):
    conf = tmp_path / "conf.ini"
    # the check's own dt and record interval: 21 records
    conf.write_text("""
[check]
n_points = 64
t_end = 0.01
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


def _blocked_out(tmp_path, kind):
    """An output path that cannot be a directory: an existing file, or a
    path under one."""
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    return blocker if kind == "file" else blocker / "sub"


@pytest.mark.parametrize("source", ["flag", "env", "config"])
@pytest.mark.parametrize("kind", ["file", "under_file"])
@pytest.mark.parametrize("command", ["simulate", "sweep", "check"])
def test_output_path_that_cannot_be_a_directory_exits_two(
        tmp_path, monkeypatch, capsys, command, kind, source):
    # the output directory is resolved and created before any run, so a
    # bad path is a usage error and no run is computed and then lost
    from debye_limit import experiments

    runs = []
    _recording(monkeypatch, cli, "evolve", runs)
    _recording(monkeypatch, experiments, "evolve", runs)
    out = _blocked_out(tmp_path, kind)
    sections = {"grid": {"n_points": 32}, "run": {"t_end": 0.01, "dt": 1e-3},
                "check": SMALL_CHECK_KEYS}
    argv = [command]
    if source == "flag":
        argv += ["--out", str(out)]
    elif source == "env":
        monkeypatch.setenv("DEBYE_LIMIT_OUT", str(out))
    else:
        sections["output"] = {"dir": str(out)}
    conf = tmp_path / "conf.ini"
    conf.write_text(_ini(sections))
    assert main([*argv, "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out) in err
    assert runs == []
    assert (tmp_path / "blocker").read_text() == "kept\n"


def test_output_write_error_exits_two(tmp_path, monkeypatch, capsys):
    from debye_limit import io_utils

    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(io_utils.tempfile, "mkstemp", full_disk)
    assert main(_fast_sim_args(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err == "error: [Errno 28] No space left on device\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, flags, sections", [
    pytest.param("simulate", ["--flow", "bogus"], {}, id="simulate-flags0"),
    pytest.param("sweep", ["--jobs", "0"], {}, id="sweep-flags1"),
    pytest.param("check", ["--eps", "0"], {}, id="check-flags2"),
    # runs too long to record: the auto dt is about 1e-311, or t_end huge
    pytest.param("simulate", [], {"init": {"u_amp": "1e308"}}, id="simulate-records"),
    pytest.param("sweep", ["--grid", "32", "--t-end", "1e-3"],
                 {"init": {"u_amp": "1e308"}}, id="sweep-records"),
    pytest.param("check", [], {"check": {"t_end": "1e300"}}, id="check-records")])
def test_rejected_command_leaves_no_output_directory(tmp_path, capsys,
                                                     command, flags, sections):
    # the directory is created once the settings are checked, so a usage
    # error leaves nothing behind
    conf = tmp_path / "conf.ini"
    conf.write_text(_ini(sections))
    out = tmp_path / "new" / "out"
    assert main([command, *flags, "--config", str(conf), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "new").exists()


def test_oserror_outside_the_output_is_not_a_usage_error(tmp_path, monkeypatch):
    # only the output directory's and its writes' errors exit 2; any other
    # OSError (here one a run raises) is not reported as a usage error
    def no_run(*args, **kwargs):
        raise OSError(24, "Too many open files")

    monkeypatch.setattr(cli, "evolve", no_run)
    with pytest.raises(OSError, match="Too many open files"):
        main(_fast_sim_args(tmp_path))


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
    # one triple norm call per member, covering every order and every
    # recorded snapshot from one spectrum, and the elliptic ratios read
    # those norms instead of forming their own
    from debye_limit import energy, experiments, remainder

    series, norms, ratios, ffts_in_ratios, inside = [], [], [], [], []
    ffts_in_norms, in_norm = [], []
    _recording(monkeypatch, experiments, "remainder_series", series)
    for module in (remainder, experiments, energy):
        if hasattr(module, "triple_norm"):
            _recording(monkeypatch, module, "triple_norm", norms)
    # every H^s norm starts with a real FFT: count those inside the ratios
    # and inside the triple norms
    real_rfft = np.fft.rfft

    def counting_rfft(*args, **kwargs):
        ffts_in_ratios.extend(inside)
        ffts_in_norms.extend(in_norm)
        return real_rfft(*args, **kwargs)

    def flagged(real, flag):
        def wrapper(*args):
            flag.append(1)
            try:
                return real(*args)
            finally:
                flag.pop()
        return wrapper

    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    for name, flag in (("elliptic_ratio_pair", inside), ("triple_norm", in_norm)):
        monkeypatch.setattr(experiments, name, flagged(getattr(experiments, name), flag))
    _recording(monkeypatch, experiments, "elliptic_ratio_pair", ratios)
    conf = tmp_path / "conf.ini"
    conf.write_text(SMALL_SWEEP)
    code = main(["sweep", "--config", str(conf), "--out", str(tmp_path)])
    capsys.readouterr()
    assert code in (0, 4)
    s_count = 3  # the default s_list 0 1 2
    snapshots = sum(len(rems.t) for rems in series)
    assert len(series) == 3 and snapshots > 3
    assert len(norms) == len(series)
    assert [list(tns) for tns in norms] == [[0, 1, 2]] * len(series)
    assert [[len(tn.t) for tn in tns.values()] for tns in norms] == [
        [len(rems.t)] * s_count for rems in series]
    assert len(ffts_in_norms) == len(series)  # one spectrum per call
    assert len(ratios) == len(series) * s_count
    assert not ffts_in_ratios


def test_sweep_writes_each_remainder_file_once(tmp_path, monkeypatch, capsys):
    # an exact-duplicate eps is still run and reduced, but its file is
    # written once
    names, real = [], cli.write_remainder_csv

    def counting(norms, residuals, path):
        names.append(os.path.basename(path))
        real(norms, residuals, path)

    monkeypatch.setattr(cli, "write_remainder_csv", counting)
    conf = tmp_path / "conf.ini"
    conf.write_text(_ini({"grid": {"n_points": 32},
                          "run": {"t_end": 0.004, "dt": 1e-3},
                          "sweep": {"eps_list": "1e-2 1e-2 1e-3"}}))
    main(["sweep", "--config", str(conf), "--out", str(tmp_path)])
    assert sorted(names) == ["remainder_0.001.csv", "remainder_0.01.csv"]
    report = json.loads((tmp_path / "sweep_report.json").read_text())
    assert [row["eps"] for row in report["rows"]] == [1e-2, 1e-2, 1e-3]


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
    # tables at stride 1: the potential equation's residual is formed
    # once per snapshot of the stack, whatever the strides, not once per
    # pair end or per pass
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
    assert rows == [11]  # 11 records, shared by both strides

    series.clear()
    rows.clear()
    _recording(monkeypatch, experiments, "remainder_series", series)
    conf.write_text(SMALL_SWEEP)
    assert main(["sweep", "--config", str(conf), "--out", str(tmp_path)]) in (0, 4)
    capsys.readouterr()
    assert rows == [len(rems.t) for rems in series] and len(rows) == 3


# ------------------------------------------------------- flag table

_SHARED = {"--config": "none", "--n-amp": "0.1", "--grid": "256",
           "--out": "$DEBYE_LIMIT_OUT or '.'"}
# each subcommand's flags, with the default its help names
_HELP_DEFAULTS = {
    "simulate": {**_SHARED, "--eps": "0.01", "--flow": "ep", "--t-end": "0.5",
                 "--dt": "auto", "--s": "2"},
    "sweep": {**_SHARED, "--t-end": "0.5", "--dt": "auto", "--jobs": "1",
              "--seed": "0"},
    "check": {**_SHARED, "--eps": "0.01", "--t-end": "0.03", "--dt": "0.00025",
              "--seed": "0"},
    "version": {},
}
_FLAG_VALUES = {"--config": "conf.ini", "--eps": "1e-2", "--flow": "ep",
                "--grid": "64", "--t-end": "0.01", "--dt": "1e-3", "--s": "2",
                "--n-amp": "0.1", "--out": ".", "--jobs": "1", "--seed": "0"}
_REMOVED_SLOTS = [(command, flag) for command, flags in _HELP_DEFAULTS.items()
                  for flag in _FLAG_VALUES if flag not in flags]


@pytest.mark.parametrize("command", list(_HELP_DEFAULTS))
def test_help_lists_exactly_the_command_flags(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "200")  # one line per flag
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = {}
    for line in capsys.readouterr().out.splitlines():
        words = line.split()
        if words and words[0].startswith("--"):
            listed[words[0]] = line.rsplit("(default: ", 1)[1].rstrip(")")
    assert listed == _HELP_DEFAULTS[command]


@pytest.mark.parametrize("command, offers", [("simulate", True), ("sweep", True),
                                             ("check", False)])
def test_dt_help_offers_auto_only_where_its_key_takes_it(monkeypatch, capsys,
                                                         command, offers):
    monkeypatch.setenv("COLUMNS", "200")  # one line per flag
    with pytest.raises(SystemExit):
        main([command, "--help"])
    (line,) = [line for line in capsys.readouterr().out.splitlines()
               if line.split()[:1] == ["--dt"]]
    assert ("or 'auto'" in line) == offers


# per flag, a value that does not parse as its key's kind and, where
# every command taking the flag rejects one, a value out of range
_BAD_VALUES = {"--dt": ("soon", "0"), "--grid": ("1.5", "33"),
               "--eps": ("tiny", "-1"), "--seed": ("7.5",),
               "--n-amp": ("big", "1.5")}
_FLAG_KEYS = {flag: targets for flag, _, _, targets in cli.FLAGS}
_BAD_CASES = [(command, flag, raw) for flag, values in _BAD_VALUES.items()
              for command in _FLAG_KEYS[flag] for raw in values]


@pytest.mark.parametrize("command, flag, raw", _BAD_CASES,
                         ids=[f"{c}{f}={r}" for c, f, r in _BAD_CASES])
def test_flag_and_its_key_reject_a_value_alike(tmp_path, capsys, command, flag,
                                               raw):
    section, key = _FLAG_KEYS[flag][command]
    assert main([command, f"{flag}={raw}", "--out", str(tmp_path)]) == 2
    flag_err = capsys.readouterr().err
    conf = tmp_path / "conf.ini"
    conf.write_text(f"[{section}]\n{key} = {raw}\n")
    assert main([command, "--config", str(conf), "--out", str(tmp_path)]) == 2
    key_err = capsys.readouterr().err
    if "bad value" in key_err:
        # each names where the value came from, then the same reason
        assert flag_err.startswith(f"error: bad value for {flag} ([{section}] {key}): ")
        assert key_err.startswith(f"error: bad value for [{section}] {key} in {conf} ")
        reason = flag_err.split("): ", 1)[1]
        assert repr(raw) in reason and reason == key_err.split("): ", 1)[1]
    else:
        assert flag_err == key_err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["simulate", "sweep", "check"])
def test_run_guards_apply_to_every_command(tmp_path, monkeypatch, capsys, command):
    # the blow-up guards of flows end the runs of all three
    monkeypatch.setattr(flows, "NORM_CEILING", 1e-9)
    conf = tmp_path / "conf.ini"
    conf.write_text(_ini({"grid": {"n_points": 32}, "check": SMALL_CHECK_KEYS}))
    short = [] if command == "check" else ["--t-end", "1e-3"]
    assert main([command, *short, "--config", str(conf), "--out", str(tmp_path)]) == 3


class _LoggedSection(Mapping):
    """A config section that adds ``(section, key)`` to ``log`` on each lookup."""

    def __init__(self, name, values, log):
        self.name, self.values, self.log = name, values, log

    def __getitem__(self, key):
        self.log.add((self.name, key))
        return self.values[key]

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


def _settings_read(monkeypatch, tmp_path, command, sections):
    """The ``(section, key)`` pairs ``command`` looks up, with ``sections``
    as its config file and no flag but ``--config``; its settings; and its
    output directory."""
    log, cfg, real = set(), {}, cli._effective_config

    def logged(args):
        cfg.update(real(args))
        return {name: _LoggedSection(name, values, log) for name, values in cfg.items()}

    monkeypatch.setattr(cli, "_effective_config", logged)
    out = tmp_path / command
    conf = tmp_path / f"{command}.ini"
    conf.write_text(_ini({**sections, "output": {"dir": out}}))
    assert main([command, "--config", str(conf)]) in (0, 3, 4)
    return log, cfg, out


# every setting off its default, and [run] record_every unlike [sweep]
# record_every, so that a key echoed under another's name reads as missing
_READ_SECTIONS = {
    "grid": {"n_points": 32},
    "init": {"n_base": 1.5, "n_amp": 0.2, "u_amp": 0.05, "mode": 2, "phase_u": 0.5},
    "run": {"eps": 0.02, "dt": 1e-3, "t_end": 2e-3, "record_every": 3, "s": 1},
    "sweep": {"eps_list": "1e-1 1e-2", "s_list": "0 2", "record_every": 1, "seed": 7},
    "check": {**SMALL_CHECK_KEYS, "eps": 0.02, "gamma": 1, "seed": 3, "t_end": 0.004},
}


def test_sweep_spec_echoes_every_setting_it_reads(tmp_path, monkeypatch, capsys):
    read, cfg, out = _settings_read(monkeypatch, tmp_path, "sweep", _READ_SECTIONS)
    spec = json.loads((out / "sweep_report.json").read_text())["spec"]
    assert {("sweep", "eps_list"), ("run", "t_end"), ("init", "mode")} <= read
    echoed = {**{("init", key): value for key, value in spec["init"].items()},
              **{(section, key): spec.get(key) for section, key in read if section != "init"}}
    missing = sorted(setting for setting in read - {("output", "dir")}
                     if echoed[setting] != cfg[setting[0]][setting[1]])
    assert missing == []


def test_readme_names_the_commands_that_read_each_key(tmp_path, monkeypatch, capsys):
    readers = {}
    for command in ("simulate", "sweep", "check"):
        with monkeypatch.context() as patch:
            read, _, _ = _settings_read(patch, tmp_path, command, _READ_SECTIONS)
        for key in read:
            readers.setdefault(key, set()).add(command)
    rows = re.findall(r"^\| `\[(\w+)\] (\w+)` \| `[^`]*` \| ([^|]+) \|", README.read_text(),
                      flags=re.MULTILINE)
    documented = {(section, key): ({"simulate", "sweep", "check"} if text.strip() == "all three"
                                   else set(text.strip().split(", ")))
                  for section, key, text in rows}
    assert documented == readers


@pytest.mark.parametrize("command, flag", _REMOVED_SLOTS,
                         ids=[f"{c}{f}" for c, f in _REMOVED_SLOTS])
def test_flag_a_command_does_not_read_exits_two(tmp_path, monkeypatch, capfd,
                                                command, flag):
    # in tmp_path: a command that ran after all writes there
    monkeypatch.chdir(tmp_path)
    code, _, err, caught = _run_in_process([command, flag, _FLAG_VALUES[flag]],
                                           capfd)
    assert code == 2
    assert "Traceback" not in err and not caught
    assert err.startswith("usage: ")
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, jobs):
    code = main(["sweep", f"--jobs={jobs}", "--out", str(tmp_path)])
    assert code == 2
    assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("t_end, records", [("0", 1), ("3e-3", 4), ("4e-3", 5)])
def test_check_counts_its_records_before_any_run(tmp_path, monkeypatch, capsys,
                                                  t_end, records):
    trajectories, series = [], []
    _recording(monkeypatch, cli, "evolve", trajectories)
    _recording(monkeypatch, cli, "remainder_series", series)
    conf = tmp_path / "conf.ini"
    conf.write_text(_ini({"check": SMALL_CHECK_KEYS}))
    code = main(["check", "--t-end", t_end, "--config", str(conf),
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    if records < 5:
        assert code == 2
        assert f"at least 5 recorded states, got {records};" in err
        assert trajectories == [] and series == []
    else:
        assert code in (0, 4)
        # the limit run keeps its records; the full flow streams each into
        # its remainder row and keeps the last
        assert [len(traj.t) for traj in trajectories] == [records, 1]
        assert [len(rems.t) for rems in series] == [records]


def test_kato_ponce_repeat_runs_on_the_battery_grid(tmp_path, monkeypatch, capsys):
    grids = []
    real = cli._kp_battery

    def battery(grid, *args):
        grids.append(grid)
        return real(grid, *args)

    monkeypatch.setattr(cli, "_kp_battery", battery)
    conf = tmp_path / "conf.ini"
    conf.write_text(_ini({"check": SMALL_CHECK_KEYS}))
    assert main(["check", "--config", str(conf), "--out", str(tmp_path)]) in (0, 4)
    assert "kato-ponce reproducible = 1.000e+00" in capsys.readouterr().out
    base, again, fine = grids
    assert again is base and base.n_points == SMALL_CHECK_KEYS["kp_grid"]
    assert fine.n_points == 2 * base.n_points


@pytest.mark.parametrize("block", [1, 3, 100])
def test_kato_ponce_battery_does_not_depend_on_the_block_size(monkeypatch, block):
    # blocks of any size draw the stream like one draw of 2 per pair and
    # sample each pair as a one-pair block does; 10 pairs leave a
    # partial last block at size 3
    grid = Grid(64)
    rng = np.random.default_rng(4)
    singles = []
    for _ in range(10):
        f, g = random_smooth_fields(grid, rng, 2, max_mode=6)
        singles.append(kato_ponce_sample(f[None], g[None], (1, 2, 3), grid))
    expected = [np.concatenate(a) for a in zip(*singles)]  # lhs, rhs, ratio
    monkeypatch.setattr(cli, "KP_BLOCK", block)
    got = cli._kp_battery(grid, 4, 10, 6)
    assert len(got) == 3 and all(a.shape == (10, 3) for a in got)
    assert all(map(np.array_equal, got, expected))


def test_check_holds_no_record_stack_during_the_battery(tmp_path, monkeypatch):
    # the paired-run stage drops both runs' records, the remainder stack and
    # its energies before the Kato-Ponce battery (whose numpy.random import
    # adds megabytes of its own), so what is traced on entry to the battery
    # is less than one run's (R, N) record stack. With both runs and the
    # remainder stack still alive it is about nine of them: measured 17-19 KB
    # against 450 KB, for a bound of 52 KB.
    keys = {"n_points": 64, "dt": 1e-3, "record_every": 1, "t_end": 0.1,
            "kp_pairs": 3, "kp_grid": 32, "kp_max_mode": 4}
    conf = tmp_path / "check.ini"
    conf.write_text(_ini({"check": keys}))
    argv = ["check", "--config", str(conf), "--out", str(tmp_path)]
    main(argv)  # a first run loads what numpy and the grids set up lazily

    held = []
    real = cli._kp_battery

    def battery(*args):
        gc.collect()  # argparse's parser is a cycle that gc frees at its leisure
        held.append(tracemalloc.get_traced_memory()[0])
        return real(*args)

    monkeypatch.setattr(cli, "_kp_battery", battery)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert main(argv) in (0, 4)
    finally:
        if started:
            tracemalloc.stop()
    stack_bytes = 8 * 101 * keys["n_points"]  # 101 records
    assert len(held) == 3 and held[0] - before < stack_bytes


def test_kato_ponce_fine_battery_peak_memory(peak_alloc):
    # the default check's fine battery: 100 pairs on the 2 x 128 grid. Its
    # traced peak grows with KP_BLOCK (0.59 MB at 6 pairs per block, 0.76 MB
    # at 8), so a larger block cannot raise check's peak memory unnoticed.
    # A first battery on another grid imports what numpy loads lazily.
    cli._kp_battery(Grid(32), 0, 1, 2)
    assert peak_alloc(cli._kp_battery, Grid(256), 0, 100, 8) < 0.65e6


# --------------------------------------------------- exit-code contract


# Each flag the command takes draws a value that should run. Up to two
# of its flags or any config keys then take an edge value: one to be
# rejected (2), one that ends the run (3), or one that only some commands
# accept. A flag the command does not take is tested by
# test_flag_a_command_does_not_read_exits_two instead.
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
    ("--dt", "0"), ("--dt", "-1e-3"), ("--dt", "nan"), ("--dt", "1e-320"),
    ("--grid", "0"), ("--grid", "-1"), ("--grid", "33"),
    ("--eps", "0"), ("--eps", "-1e-2"), ("--eps", "nan"), ("--eps", "inf"),
    ("--eps", "1e308"), ("--eps", "1e-300"), ("--s", "-2"), ("--s", "-1"),
    ("--s", "9"), ("--s", "12"), ("--n-amp", "1"), ("--n-amp", "1.5"),
    ("--seed", "-1"),
    ("run", "record_every", "0"), ("run", "norm_ceiling", "1e-3"),
    ("pb", "max_newton_iters", "0"), ("pb", "max_newton_iters", "1"),
    ("init", "u_amp", "nan"), ("init", "n_base", "inf"), ("init", "phase_u", "inf"),
    ("sweep", "eps_list", "1e-2 nan"), ("sweep", "eps_list", "inf 1e-2"),
    ("sweep", "eps_list", "1e-2 -1"), ("sweep", "eps_list", "1e-2 1e-300"),
    ("sweep", "s_list", "0 9"),
    ("check", "kp_pairs", "0"), ("check", "kp_grid", "33"),
    ("check", "kp_max_mode", "-1"), ("check", "kp_max_mode", "10000000000000"),
    ("check", "kp_max_mode", "16"),
    ("check", "gamma", "-1"), ("check", "gamma", "17"),
)


@st.composite
def _cli_case(draw):
    command = draw(st.sampled_from(("simulate", "sweep", "check")))
    takes = _HELP_DEFAULTS[command]
    t_end = draw(st.sampled_from(("2e-3", "1e-3", "1e-4", "0")))
    flags = {"--t-end": t_end}
    if "--jobs" in takes:
        flags["--jobs"] = "1"
    # a tiny dt is a long run, not a breach of the contract
    flags["--dt"] = draw(st.one_of(
        st.just("auto"),
        st.integers(1, 20).map(lambda k: repr(float(t_end) / k)),
        st.floats(1.0 / 20.0, 1.0).map(lambda f: repr(f * float(t_end)))))
    for flag, values in _VALID_FLAGS.items():
        if flag in takes and draw(st.booleans()):
            flags[flag] = draw(st.sampled_from(values))
    config = {"check": dict(SMALL_CHECK_KEYS)}
    edges = [edge for edge in _EDGES if len(edge) == 3 or edge[0] in takes]
    for edge in draw(st.lists(st.sampled_from(edges), max_size=2)):
        if len(edge) == 2:
            flags[edge[0]] = edge[1]
        else:
            config.setdefault(edge[0], {})[edge[1]] = edge[2]
    # "--flag=value", so that argparse reads "-1e-3" as a value
    return [command, *(f"{k}={v}" for k, v in flags.items())], config


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_cli_case(),
       out_kind=st.sampled_from(("dir", "new", "file", "under_file")))
def test_exit_code_contract_property(tmp_path_factory, case, out_kind):
    # every flag and config value ends in 0, 2, 3 or 4: nothing escapes.
    # Each drawn flag is one its command takes, in a well-formed value,
    # so argparse accepts every case and none ends in a SystemExit. An
    # output path that cannot be a directory ends in 2 whatever the rest,
    # once the settings are checked and before any run. Such paths are
    # 82 of the 400 derandomized examples, so 318 draw a directory that
    # can run, against 200 when the output path was not drawn
    argv, config = case
    base = tmp_path_factory.mktemp("contract")
    conf = base / "conf.ini"
    conf.write_text(_ini(config))
    out = (base if out_kind == "dir" else base / "new" if out_kind == "new"
           else _blocked_out(base, out_kind))
    code = main([*argv, "--config", str(conf), "--out", str(out)])
    assert code in ((2,) if out_kind in ("file", "under_file")
                    else (0, 2, 3, 4)), (argv, config, out_kind)
