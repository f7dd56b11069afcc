"""Config file parsing, schema enforcement and merging."""

import re
from pathlib import Path

import pytest

from debye_limit.config import (
    SCHEMA,
    ConfigError,
    default_config,
    load_config_file,
    merge_config,
    parse_value,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def _write(tmp_path, text):
    path = tmp_path / "conf.ini"
    path.write_text(text)
    return path


def test_defaults_cover_every_section():
    cfg = default_config()
    assert set(cfg) == {"grid", "init", "run", "sweep", "check", "output"}
    assert sum(map(len, cfg.values())) == 27
    assert cfg["grid"]["n_points"] == 256
    assert cfg["run"]["dt"] is None  # auto
    assert cfg["run"]["t_end"] == 0.5
    assert cfg["sweep"]["eps_list"] == [1e-1, 1e-2, 1e-3, 1e-4]
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


# a misspelt key, and keys that were removed: the filter switch, and the
# verdict thresholds, blow-up guards and solver settings, now constants
@pytest.mark.parametrize("section, key", [
    ("run", "teps"), ("run", "exp_filter"), ("pb", "damping_min"),
    ("sweep", "bound_factor"), ("check", "identity_tol"), ("check", "res_n_tol"),
    ("check", "res_u_tol"), ("check", "res_phi_tol"), ("check", "kp_ratio_max"),
    ("check", "kp_refine_rtol"), ("run", "density_floor"), ("run", "norm_ceiling"),
    ("pb", "tol"), ("pb", "max_newton_iters")])
def test_unknown_key_reports_position(tmp_path, section, key):
    path = _write(tmp_path, f"[grid]\nn_points = 64\n[{section}]\n  {key} = 3\n")
    # the keys of a removed section are reported at its header
    where = (rf"unknown key '{key}' in \[{section}\] \(line 4, column 3\)"
             if section in SCHEMA else rf"unknown section \[{section}\] \(line 3, column 1\)")
    with pytest.raises(ConfigError, match=where):
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


def test_readme_key_table_matches_the_schema():
    # README.md documents every key, once, with its default: a key that
    # is added or removed without the table fails here
    rows = re.findall(r"^\| `\[(\w+)\] (\w+)` \| `([^`]*)` \|", README.read_text(),
                      flags=re.MULTILINE)
    pairs = [(section, key) for section, key, _ in rows]
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == {(section, key) for section in SCHEMA for key in SCHEMA[section]}
    defaults = default_config()
    for section, key, text in rows:
        value = None if text == "none" else parse_value(
            text, SCHEMA[section][key], f"README [{section}] {key}")
        assert value == defaults[section][key], (section, key, text)
