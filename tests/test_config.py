"""Config file parsing, schema enforcement and merging."""

import pytest

from debye_limit.config import (
    ConfigError,
    default_config,
    load_config_file,
    merge_config,
)


def _write(tmp_path, text):
    path = tmp_path / "conf.ini"
    path.write_text(text)
    return path


def test_defaults_cover_every_section():
    cfg = default_config()
    assert set(cfg) == {"grid", "init", "run", "pb", "sweep", "check", "output"}
    assert cfg["grid"]["n_points"] == 256
    assert cfg["run"]["dt"] is None  # auto
    assert cfg["run"]["t_end"] == 0.5
    assert cfg["sweep"]["eps_list"] == [1e-1, 1e-2, 1e-3, 1e-4]
    assert cfg["pb"]["tol"] == 1e-12
    assert cfg["check"]["dt"] == 2.5e-4


def test_parse_partial_file(tmp_path):
    path = _write(tmp_path, """
[grid]
n_points = 128

[run]
eps = 0.05
dt = auto

[sweep]
eps_list = 1e-1, 1e-2 1e-3
""")
    cfg = load_config_file(path)
    assert cfg == {
        "grid": {"n_points": 128},
        "run": {"eps": 0.05, "dt": None},
        "sweep": {"eps_list": [0.1, 0.01, 0.001]},
    }


def test_unknown_section_reports_position(tmp_path):
    path = _write(tmp_path, "[grid]\nn_points = 64\n\n[grud]\nn_points = 32\n")
    with pytest.raises(ConfigError, match=r"unknown section \[grud\].*line 4"):
        load_config_file(path)


def test_unknown_key_reports_position(tmp_path):
    path = _write(tmp_path, "[run]\nt_end = 0.25\nteps = 3\n")
    with pytest.raises(ConfigError, match=r"unknown key 'teps'.*line 3"):
        load_config_file(path)


def test_bad_value_types(tmp_path):
    path = _write(tmp_path, "[grid]\nn_points = many\n")
    with pytest.raises(ConfigError, match="bad value for.*n_points"):
        load_config_file(path)
    path = _write(tmp_path, "[sweep]\neps_list = 1e-1, soup\n")
    with pytest.raises(ConfigError, match="bad value"):
        load_config_file(path)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config_file(tmp_path / "absent.ini")


def test_malformed_syntax_is_config_error(tmp_path):
    path = _write(tmp_path, "n_points = 64\n")  # key before any section
    with pytest.raises(ConfigError, match="config parse error"):
        load_config_file(path)


def test_merge_overrides_without_mutation():
    base = default_config()
    base_grid = dict(base["grid"])
    override = {"grid": {"n_points": 512}, "run": {"eps": 0.2}}
    merged = merge_config(base, override)
    assert merged["grid"]["n_points"] == 512
    assert merged["run"]["eps"] == 0.2
    assert merged["run"]["t_end"] == base["run"]["t_end"]
    assert base["grid"] == base_grid  # base untouched
