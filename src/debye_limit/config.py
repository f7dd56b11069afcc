"""Config file handling for the command-line tools.

The format is flat structured text: ``[section]`` headers over
``key = value`` lines, parsed with the standard library. Unknown
sections or keys are hard errors with a line/column diagnostic, partial
files are fine, and command-line flags override file values.
"""

from __future__ import annotations

import configparser

__all__ = ["ConfigError", "default_config", "load_config_file", "merge_config"]


class ConfigError(Exception):
    """Invalid configuration; the CLI maps this to exit code 2."""


# value kinds: float | int | str | float_or_auto | float_list | int_list
SCHEMA = {
    "grid": {"n_points": "int"},
    "init": {
        "n_base": "float",
        "n_amp": "float",
        "u_amp": "float",
        "mode": "int",
        "phase_u": "float",
    },
    "run": {
        "flow": "str",
        "eps": "float",
        "dt": "float_or_auto",
        "t_end": "float",
        "density_floor": "float",
        "norm_ceiling": "float",
        "record_every": "int",
        "s": "int",
    },
    "pb": {
        "tol": "float",
        "max_newton_iters": "int",
        "damping_min": "float",
    },
    "sweep": {
        "eps_list": "float_list",
        "s_list": "int_list",
        "record_every": "int",
        "bound_factor": "float",
        "seed": "int",
    },
    "check": {
        "eps": "float",
        "gamma": "int",
        "n_points": "int",
        "dt": "float",
        "record_every": "int",
        "t_end": "float",
        "identity_tol": "float",
        "res_n_tol": "float",
        "res_u_tol": "float",
        "res_phi_tol": "float",
        "seed": "int",
        "kp_pairs": "int",
        "kp_max_mode": "int",
        "kp_grid": "int",
        "kp_ratio_max": "float",
        "kp_refine_rtol": "float",
    },
    "output": {"dir": "str"},
}


def default_config() -> dict:
    return {
        "grid": {"n_points": 256},
        "init": {
            "n_base": 1.0,
            "n_amp": 0.1,
            "u_amp": 0.1,
            "mode": 1,
            "phase_u": 0.0,
        },
        "run": {
            "flow": "ep",
            "eps": 1e-2,
            "dt": None,
            "t_end": 0.5,
            "density_floor": 1e-6,
            "norm_ceiling": 1e6,
            "record_every": 1,
            "s": 2,
        },
        "pb": {
            "tol": 1e-12,
            "max_newton_iters": 50,
            "damping_min": 0.0625,
        },
        "sweep": {
            "eps_list": [1e-1, 1e-2, 1e-3, 1e-4],
            "s_list": [0, 1, 2],
            "record_every": 2,
            "bound_factor": 2.0,
            "seed": 0,
        },
        "check": {
            "eps": 1e-2,
            "gamma": 0,
            "n_points": 256,
            "dt": 2.5e-4,
            "record_every": 2,
            "t_end": 0.03,
            "identity_tol": 1e-5,
            "res_n_tol": 1e-3,
            "res_u_tol": 1e-3,
            "res_phi_tol": 1e-8,
            "seed": 0,
            "kp_pairs": 100,
            "kp_max_mode": 8,
            "kp_grid": 128,
            "kp_ratio_max": 10.0,
            "kp_refine_rtol": 0.05,
        },
        "output": {"dir": None},
    }


def _find_position(text: str, section: str, key: str | None) -> str:
    """Best-effort ``line N, column M`` locator for diagnostics."""
    in_section = section is None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            if key is None and stripped[1:-1].strip() == section:
                return f"line {lineno}, column {line.index('[') + 1}"
            in_section = stripped[1:-1].strip() == section
            continue
        if key is not None and in_section:
            name = stripped.split("=", 1)[0].split(":", 1)[0].strip()
            if name == key:
                return f"line {lineno}, column {line.index(key) + 1}"
    return "unknown position"


def _parse_value(raw: str, kind: str, where: str):
    raw = raw.strip()
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            value = int(raw)
            return value
        if kind == "str":
            return raw
        if kind == "float_or_auto":
            if raw.lower() == "auto":
                return None
            return float(raw)
        if kind == "float_list":
            return [float(tok) for tok in raw.replace(",", " ").split()]
        if kind == "int_list":
            return [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"bad value for {where}: {exc}")
    raise AssertionError(f"unknown schema kind {kind}")


def load_config_file(path) -> dict:
    """Parse one config file into a partial nested dict.

    Unknown sections and keys are rejected with their location; so are
    values that fail to parse under the schema.
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}")
    out: dict = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(
                f"{path}: unknown section [{section}] "
                f"({_find_position(text, section, None)})"
            )
        out[section] = {}
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in [{section}] "
                    f"({_find_position(text, section, key)})"
                )
            where = (f"[{section}] {key} in {path} "
                     f"({_find_position(text, section, key)})")
            out[section][key] = _parse_value(raw, SCHEMA[section][key], where)
    return out


def merge_config(base: dict, override: dict) -> dict:
    merged = {sec: dict(vals) for sec, vals in base.items()}
    for sec, vals in override.items():
        merged.setdefault(sec, {}).update(vals)
    return merged
