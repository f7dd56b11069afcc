"""Config file handling for the command-line tools.

The format is flat structured text: ``[section]`` headers over
``key = value`` lines, parsed with the standard library. Unknown
sections or keys are hard errors with a line/column diagnostic, partial
files are fine, and command-line flags override file values.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict

from .flows import RunOptions
from .initial import InitParams


class ConfigError(Exception):
    """Invalid configuration; the CLI maps this to exit code 2."""


def default_config() -> dict:
    """Every key with its default, whose type sets the key's kind. The
    defaults of ``[init]`` and of ``[run]``'s run controls are those of
    :class:`InitParams` and :class:`RunOptions`."""
    run = RunOptions()
    return {
        "grid": {"n_points": 256},
        "init": asdict(InitParams()),
        "run": {
            "flow": "ep",
            "eps": run.eps,
            "dt": run.dt,
            "t_end": run.t_end,
            "record_every": run.record_every,
            "s": 2,
        },
        "sweep": {
            "eps_list": [1e-1, 1e-2, 1e-3, 1e-4],
            "s_list": [0, 1, 2],
            "record_every": 2,
            "seed": 0,
        },
        "check": {
            "eps": 1e-2,
            "gamma": 0,
            "n_points": 256,
            "dt": 2.5e-4,
            "record_every": 2,
            "t_end": 0.03,
            "seed": 0,
            "kp_pairs": 100,
            "kp_max_mode": 8,
            "kp_grid": 128,
        },
        "output": {"dir": None},
    }


# the kinds of the keys whose default is None; every other key takes
# the kind of its default: float | int | str | float_list | int_list
_NONE_KINDS = {("run", "dt"): "float_or_auto", ("output", "dir"): "str"}


def _kind(section: str, key: str, default) -> str:
    if default is None:
        return _NONE_KINDS[section, key]
    if isinstance(default, list):
        return f"{type(default[0]).__name__}_list"
    return type(default).__name__


SCHEMA = {section: {key: _kind(section, key, value) for key, value in values.items()}
          for section, values in default_config().items()}


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


_SCALAR_PARSERS = {
    "float": float, "int": int, "str": str,
    "float_or_auto": lambda raw: None if raw.lower() == "auto" else float(raw),
}


def parse_value(raw: str, kind: str, where: str):
    """``raw`` as a ``SCHEMA`` kind, or a :class:`ConfigError` naming ``where``."""
    try:
        if kind.endswith("_list"):
            parse = _SCALAR_PARSERS[kind.removesuffix("_list")]
            return [parse(tok) for tok in raw.replace(",", " ").split()]
        return _SCALAR_PARSERS[kind](raw.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {where}: {exc}")


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
            out[section][key] = parse_value(raw, SCHEMA[section][key], where)
    return out


def merge_config(base: dict, override: dict) -> dict:
    merged = {sec: dict(vals) for sec, vals in base.items()}
    for sec, vals in override.items():
        merged.setdefault(sec, {}).update(vals)
    return merged
