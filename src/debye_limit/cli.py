"""Command-line entry points.

Subcommands: ``simulate`` (one run of either flow), ``sweep`` (paired
runs across an eps list with verdicts), ``check`` (structural identity,
residual and commutator batteries) and ``version``.

Exit codes are part of the contract: 0 success, 2 usage or config
error, 3 a run hit a blow-up guard or its potential solve failed, 4 a
verdict or tolerance gate failed. Output files are written atomically;
the output directory is ``--out``, else the config file's ``[output]
dir``, else the ``DEBYE_LIMIT_OUT`` environment variable, else the
working directory. A command creates it once its settings are checked
and before it runs anything; a path that cannot be a directory, like any
other ``OSError`` of the output directory or of a write there, exits 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import (SCHEMA, ConfigError, default_config, load_config_file,
                     merge_config, parse_value)
from .energy import energy_snapshot, identity_2_12_check, kato_ponce_sample, write_ledger_csv
from .experiments import SweepSpec, run_sweep, write_report_csv, write_report_json
from .flows import (
    EPState,
    RecordAllocationError,
    RunOptions,
    TrajectoryTable,
    evolve,
    write_snapshot_csv,
)
from .grid import MAX_DERIVATIVE_ORDER, Grid, _check_order
from .initial import InitParams, make_initial, random_smooth_fields
from .io_utils import OutputError, make_output_dir, write_csv
from .remainder import (
    MIN_REMAINDER_EPS,
    RemainderRows,
    _sized_run,
    remainder_residual,
    remainder_series,
    write_remainder_csv,
)

_D = default_config()


_RUN_COMMANDS = ("simulate", "sweep", "check")
# Field pairs per Kato-Ponce block; a whole battery in one stack costs peak memory
KP_BLOCK = 6


def _by_command(section: str, key: str) -> dict:
    """``[section] key`` for simulate and sweep, ``[check] key`` for check."""
    return {"simulate": (section, key), "sweep": (section, key),
            "check": ("check", key)}


def _flag_help(text: str, default) -> str:
    return f"{text} (default: {default})"


# One row per flag: its argparse keywords, its help text and, for each
# subcommand that takes it, the config (section, key) it overrides, or
# None for a flag the command reads itself (whose help names its
# default). A subcommand takes only the flags whose rows name it. A flag
# with a key is parsed as that key's kind, so it fails as the key would.
FLAGS = (
    ("--config", dict(metavar="PATH"),
     _flag_help("config file ([section] key = value)", "none"),
     dict.fromkeys(_RUN_COMMANDS)),
    ("--eps", {}, "Debye parameter",
     {"simulate": ("run", "eps"), "check": ("check", "eps")}),
    ("--flow", {}, "which flow to simulate, 'ep' or 'limit'",
     {"simulate": ("run", "flow")}),
    ("--grid", dict(metavar="N"), "grid points (power of two)",
     _by_command("grid", "n_points")),
    ("--t-end", dict(metavar="T"), "final time",
     _by_command("run", "t_end")),
    ("--dt", dict(metavar="DT"), "time step", _by_command("run", "dt")),
    ("--s", dict(metavar="S"), "Sobolev order for exported norms",
     {"simulate": ("run", "s")}),
    ("--n-amp", dict(metavar="A"), "initial density perturbation amplitude",
     dict.fromkeys(_RUN_COMMANDS, ("init", "n_amp"))),
    ("--out", dict(metavar="DIR"),
     _flag_help("output directory", "$DEBYE_LIMIT_OUT or '.'"),
     dict.fromkeys(_RUN_COMMANDS)),
    ("--jobs", dict(type=int, metavar="N", default=1),
     _flag_help("parallel workers for sweeps", 1), {"sweep": None}),
    ("--seed", dict(metavar="K"), "seed for randomized batteries",
     {"sweep": ("sweep", "seed"), "check": ("check", "seed")}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="debye-limit",
        description=(
            "Pseudospectral integration of a cold-ion plasma flow and its "
            "quasineutral limit, with convergence and energy diagnostics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("simulate", "integrate one flow and export its trajectory"),
        ("sweep", "run the paired flows across an eps list and fit orders"),
        ("check", "run the structural identity and commutator batteries"),
        ("version", "print the package version"),
    ]
    for name, help_text in specs:
        # no prefixes: sweep and check would read "--s" as "--seed"
        sp = sub.add_parser(name, help=help_text, description=help_text,
                            allow_abbrev=False)
        for flag, kwargs, text, targets in FLAGS:
            if name not in targets:
                continue
            if targets[name] is not None:
                section, key = targets[name]
                default = _D[section][key]
                if SCHEMA[section][key] == "float_or_auto":
                    text += ", or 'auto'"
                text = _flag_help(text, "auto" if default is None else default)
            sp.add_argument(flag, help=text, **kwargs)
    return parser


def _effective_config(args) -> dict:
    cfg = default_config()
    if args.config is not None:
        cfg = merge_config(cfg, load_config_file(args.config))
    for flag, _, _, targets in FLAGS:
        target = targets.get(args.command)
        raw = getattr(args, flag[2:].replace("-", "_"), None)
        if target is None or raw is None:
            continue
        section, key = target
        cfg[section][key] = parse_value(raw, SCHEMA[section][key],
                                        f"{flag} ([{section}] {key})")
    return cfg


def _run_options(cfg, section: str, eps: float, record_every=None) -> RunOptions:
    """dt, t_end and record_every from ``section``."""
    own = cfg[section]
    return RunOptions(
        dt=own["dt"],
        t_end=own["t_end"],
        eps=eps,
        record_every=own["record_every"] if record_every is None else record_every,
    )


def cmd_simulate(cfg, args, out: str) -> int:
    flow = cfg["run"]["flow"]
    if flow not in ("ep", "limit"):
        raise ConfigError(f"flow must be 'ep' or 'limit', got {flow!r}")
    if flow == "ep" and not (cfg["run"]["eps"] > 0.0):
        raise ConfigError("the full flow needs eps > 0; use --flow limit for eps = 0")
    eps = cfg["run"]["eps"] if flow == "ep" else 0.0
    try:
        grid = Grid(cfg["grid"]["n_points"])
        init = InitParams(**cfg["init"])
        opts = _run_options(cfg, "run", eps)
        state = EPState(0.0, *make_initial(init, grid))
        # sized for the whole run, so a run too long to record exits here
        table = TrajectoryTable(state, opts, cfg["run"]["s"])  # keeps no fields
    except ValueError as exc:
        raise ConfigError(str(exc))
    make_output_dir(out)
    traj = evolve(state, opts, on_record=table)

    traj_path = os.path.join(out, f"traj_{flow}_{eps:g}.csv")
    snap_path = os.path.join(out, f"snap_{flow}_{eps:g}_{traj.t[-1]:g}.csv")
    table.write_csv(traj_path)
    write_snapshot_csv(traj, snap_path)

    print(f"simulate: flow={flow} eps={eps:g} grid={grid.n_points} "
          f"dt={traj.dt:g} steps to t={traj.t[-1]:g}")
    print(f"simulate: wrote {traj_path} and {snap_path}")
    if traj.blowup is not None:
        ev = traj.blowup
        print(f"simulate: blow-up at t={ev.t:g}: {ev.reason} ({ev.value:g})")
        return 3
    return 0


def cmd_sweep(cfg, args, out: str) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    try:
        spec = SweepSpec(
            eps_list=tuple(cfg["sweep"]["eps_list"]),
            n_points=cfg["grid"]["n_points"],
            run=_run_options(cfg, "run", eps=1.0,
                             record_every=cfg["sweep"]["record_every"]),
            init=InitParams(**cfg["init"]),
            s_list=tuple(cfg["sweep"]["s_list"]),
            seed=cfg["sweep"]["seed"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    _sized_run(EPState(0.0, *make_initial(spec.init, Grid(spec.n_points))), spec.run)
    make_output_dir(out)
    report = run_sweep(spec, jobs=args.jobs)

    json_path = os.path.join(out, "sweep_report.json")
    csv_path = os.path.join(out, "sweep_rows.csv")
    write_report_json(report, json_path)
    write_report_csv(report, csv_path)
    # an exact-duplicate eps names the same file, which is written once
    remainders = {f"remainder_{m.row['eps']!r}.csv": m for m in report.members}
    for name, member in remainders.items():
        write_remainder_csv(member.triple_norms, member.residuals, os.path.join(out, name))

    for name, fit in report.fits.items():
        print(f"sweep: fit {name}: slope={fit['slope']:.4f} "
              f"r2={fit['r_squared']:.5f}"
              + (" (largest eps excluded)" if fit["excluded_largest"] else ""))
    for name, verdict in report.verdicts.items():
        print(f"sweep: verdict {name}: {verdict}")
    print(f"sweep: wrote {json_path} and {csv_path}")

    if report.blew_up:
        return 3
    if any(v == "FAIL" for v in report.verdicts.values()):
        return 4
    return 0


def _kp_battery(grid: Grid, seed: int, pairs: int, max_mode: int) -> tuple:
    """Kato-Ponce ``(lhs, rhs, ratio)`` of ``pairs`` seeded field pairs at
    orders 1..3: three ``(pairs, 3)`` arrays, sampled in blocks of ``KP_BLOCK``."""
    rng = np.random.default_rng(seed)
    blocks = []
    for start in range(0, pairs, KP_BLOCK):
        # rows 2i and 2i + 1 are pair i, as in one draw of 2 per pair
        fields = random_smooth_fields(grid, rng, 2 * min(KP_BLOCK, pairs - start),
                                      max_mode=max_mode)
        blocks.append(kato_ponce_sample(fields[0::2], fields[1::2], (1, 2, 3), grid))
    return tuple(np.concatenate(arrays) for arrays in zip(*blocks))


def _ratio(coarse: float, fine: float) -> float:
    """Coarse-to-fine ratio of an error; inf when the fine one vanishes."""
    return coarse / fine if fine > 0 else float("inf")


# check's gate tolerances: identity defect, the three residuals' maxima, the
# largest Kato-Ponce ratio and its relative drift under grid refinement
IDENTITY_TOL, RES_N_TOL, RES_U_TOL, RES_PHI_TOL = 1e-5, 1e-3, 1e-3, 1e-8
KP_RATIO_MAX, KP_REFINE_RTOL = 10.0, 0.05


def _paired_check(state, opts: RunOptions, gamma: int, out: str):
    """Both runs of ``check`` (the full flow streamed into its remainder rows),
    their ledger and residual table; None after a blow-up, else the fine identity
    report, its halving ratio and the residual maxima."""
    lim_traj = evolve(state, replace(opts, eps=0.0))
    rows = RemainderRows(lim_traj, opts)
    if (lim_traj.blowup is not None
            or evolve(state, opts, on_record=rows).blowup is not None):
        return None
    rems = remainder_series(rows)
    snaps = energy_snapshot(rems, gamma)
    fine = identity_2_12_check(snaps, stride=1)
    coarse = identity_2_12_check(snaps, stride=2)
    defects = {i + 1: d for i, d in enumerate(fine.defects)}
    write_ledger_csv(snaps, defects, os.path.join(out, "check_ledger.csv"))
    residuals = remainder_residual(rems, stride=2)
    write_csv(os.path.join(out, "check_residuals.csv"),
              "t,res_n,res_u,res_phi", zip(rems.t[::2][1:], *residuals))
    fine_residuals = remainder_residual(rems, stride=1)[:2]  # res_n, res_u
    return fine, _ratio(coarse.defect, fine.defect), [
        np.max(r) for r in (*residuals, *fine_residuals)]


def cmd_check(cfg, args, out: str) -> int:
    c = cfg["check"]
    if not (c["eps"] >= MIN_REMAINDER_EPS):
        raise ConfigError(f"check needs eps >= {MIN_REMAINDER_EPS:.3g}, "
                          f"got {c['eps']}")
    if c["seed"] < 0 or c["kp_pairs"] < 1 or c["kp_max_mode"] < 1:
        raise ConfigError("check needs seed >= 0, kp_pairs >= 1 and "
                          "kp_max_mode >= 1")
    try:
        grid = Grid(c["n_points"])
        kp_grid = Grid(c["kp_grid"])  # the Kato-Ponce battery's grid
        _check_order(c["gamma"], MAX_DERIVATIVE_ORDER, "[check] gamma")
        init = InitParams(**cfg["init"])
        opts = _run_options(cfg, "check", c["eps"])
    except ValueError as exc:
        raise ConfigError(str(exc))
    # the sampler is alias-free only for fields below the grid's Nyquist mode
    if not c["kp_max_mode"] < c["kp_grid"] / 2:
        raise ConfigError(f"check needs kp_max_mode < kp_grid / 2 = "
                          f"{c['kp_grid'] // 2}, got {c['kp_max_mode']}")
    state = EPState(0.0, *make_initial(init, grid))
    # the identity check takes centered differences of uniformly spaced records
    _, n_full, tail, n_records = _sized_run(state, opts)
    if tail > 0.0 or n_full % c["record_every"]:
        raise ConfigError("check needs t_end to be a whole number of record "
                          "intervals dt * record_every")
    if n_records < 5:
        # the identity check at stride 2 needs three snapshots
        raise ConfigError(f"check needs at least 5 recorded states, got "
                          f"{n_records}; raise t_end or lower record_every")
    make_output_dir(out)
    paired = _paired_check(state, opts, c["gamma"], out)
    if paired is None:
        print("check: run blew up before t_end; no verdicts")
        return 3
    fine, ratio, (res_n, res_u, res_phi, res_n_fine, res_u_fine) = paired

    kp_base = _kp_battery(kp_grid, c["seed"], c["kp_pairs"], c["kp_max_mode"])
    # the repeat runs on the same grid, so the gate sees its warm caches
    kp_again = _kp_battery(kp_grid, c["seed"], c["kp_pairs"], c["kp_max_mode"])
    kp_fine = _kp_battery(Grid(2 * c["kp_grid"]), c["seed"], c["kp_pairs"],
                          c["kp_max_mode"])
    lhs, rhs, kp_ratio = kp_base  # column j is order j + 1
    write_csv(os.path.join(out, "check_kato_ponce.csv"), "pair,k,lhs,rhs,ratio",
              ((i, j + 1, lhs[i, j], rhs[i, j], kp_ratio[i, j])
               for i, j in np.ndindex(lhs.shape)))
    max_ratio = np.max(kp_ratio)
    max_ratio_fine = np.max(kp_fine[2])
    reproducible = np.array_equal(kp_again, kp_base)  # every sample, bit for bit
    refine_drift = abs(max_ratio_fine / max_ratio - 1.0) if max_ratio > 0 else 0.0

    gates = [
        ("identity defect (spacing %.1e)" % fine.spacing,
         fine.defect, IDENTITY_TOL, fine.defect <= IDENTITY_TOL),
        ("res_n", res_n, RES_N_TOL, res_n <= RES_N_TOL),
        ("res_u", res_u, RES_U_TOL, res_u <= RES_U_TOL),
        ("res_phi", res_phi, RES_PHI_TOL, res_phi <= RES_PHI_TOL),
        ("kato-ponce max ratio", max_ratio, KP_RATIO_MAX,
         np.isfinite(max_ratio) and max_ratio <= KP_RATIO_MAX),
        ("kato-ponce refinement drift", refine_drift, KP_REFINE_RTOL,
         refine_drift <= KP_REFINE_RTOL),
        ("kato-ponce reproducible", float(reproducible), 1.0, reproducible),
    ]
    all_ok = True
    for name, value, tol, ok in gates:
        print(f"check: {name} = {value:.3e} (tol {tol:g}): "
              f"{'PASS' if ok else 'FAIL'}")
        all_ok = all_ok and ok
    print(f"check: identity defect halving ratio = {ratio:.2f} "
          f"(fine spacing {fine.spacing:.1e})")
    print(f"check: residual second-order ratios: "
          f"res_n {_ratio(res_n, res_n_fine):.2f}, "
          f"res_u {_ratio(res_u, res_u_fine):.2f}")
    return 0 if all_ok else 4


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "version":
            print(__version__)
            return 0
        run = {"simulate": cmd_simulate, "sweep": cmd_sweep, "check": cmd_check}
        cfg = _effective_config(args)
        out = args.out if args.out is not None else (
            cfg["output"]["dir"] or os.environ.get("DEBYE_LIMIT_OUT", "."))
        return run[args.command](cfg, args, out)
    except (ConfigError, RecordAllocationError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
