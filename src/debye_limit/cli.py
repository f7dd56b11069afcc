"""Command-line entry points.

Subcommands: ``simulate`` (one run of either flow), ``sweep`` (paired
runs across an eps list with verdicts), ``check`` (structural identity,
residual and commutator batteries) and ``version``.

Exit codes are part of the contract: 0 success, 2 usage or config
error, 3 a run hit a blow-up guard or its potential solve failed, 4 a
verdict or tolerance gate failed. Output files are written atomically;
the output directory is ``--out``, else the config file's ``[output]
dir``, else the ``DEBYE_LIMIT_OUT`` environment variable, else the
working directory.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .config import ConfigError, default_config, load_config_file, merge_config
from .energy import energy_snapshot, identity_2_12_check, kato_ponce_sample, write_ledger_csv
from .experiments import SweepSpec, run_sweep, write_report_csv, write_report_json
from .flows import (
    EPState,
    LimitState,
    RunOptions,
    _count_steps,
    evolve,
    write_snapshot_csv,
    write_trajectory_csv,
)
from .grid import MAX_SOBOLEV_ORDER, Field, Grid
from .initial import InitParams, make_initial, random_smooth_fields
from .io_utils import write_csv
from .poisson import PBSolveOptions
from .remainder import (
    MIN_REMAINDER_EPS,
    remainder_residual,
    remainder_series,
    write_remainder_csv,
)

_D = default_config()


def _flag_help(text: str, default) -> str:
    return f"{text} (default: {default})"


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
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.add_argument("--config", metavar="PATH", default=None,
                        help=_flag_help("config file ([section] key = value)", "none"))
        sp.add_argument("--eps", type=float, default=None,
                        help=_flag_help("Debye parameter", _D["run"]["eps"]))
        sp.add_argument("--flow", choices=("ep", "limit"), default=None,
                        help=_flag_help("which flow to simulate", _D["run"]["flow"]))
        sp.add_argument("--grid", type=int, metavar="N", default=None,
                        help=_flag_help("grid points (power of two)",
                                        _D["grid"]["n_points"]))
        sp.add_argument("--t-end", type=float, metavar="T", default=None,
                        help=_flag_help("final time", _D["run"]["t_end"]))
        sp.add_argument("--dt", metavar="DT", default=None,
                        help=_flag_help("time step, or 'auto'", "auto"))
        sp.add_argument("--s", type=int, metavar="S", default=None,
                        help=_flag_help("Sobolev order for exported norms",
                                        _D["run"]["s"]))
        sp.add_argument("--n-amp", type=float, metavar="A", default=None,
                        help=_flag_help("initial density perturbation amplitude",
                                        _D["init"]["n_amp"]))
        sp.add_argument("--out", metavar="DIR", default=None,
                        help=_flag_help("output directory",
                                        "$DEBYE_LIMIT_OUT or '.'"))
        sp.add_argument("--jobs", type=int, metavar="N", default=1,
                        help=_flag_help("parallel workers for sweeps", 1))
        sp.add_argument("--seed", type=int, metavar="K", default=None,
                        help=_flag_help("seed for randomized batteries",
                                        _D["sweep"]["seed"]))
    return parser


def _effective_config(args) -> dict:
    cfg = default_config()
    if args.config is not None:
        cfg = merge_config(cfg, load_config_file(args.config))
    run_cmd = args.command in ("simulate", "sweep")
    if args.eps is not None:
        cfg["run" if run_cmd else "check"]["eps"] = args.eps
    if args.flow is not None:
        cfg["run"]["flow"] = args.flow
    if args.grid is not None:
        cfg["grid" if run_cmd else "check"]["n_points"] = args.grid
    if args.t_end is not None:
        cfg["run" if run_cmd else "check"]["t_end"] = args.t_end
    if args.dt is not None:
        if run_cmd:
            cfg["run"]["dt"] = _parse_dt(args.dt)
        else:
            value = _parse_dt(args.dt)
            if value is None:
                raise ConfigError("check needs an explicit --dt, not 'auto'")
            cfg["check"]["dt"] = value
    if args.s is not None:
        cfg["run"]["s"] = args.s
    if args.n_amp is not None:
        cfg["init"]["n_amp"] = args.n_amp
    if args.seed is not None:
        cfg["sweep"]["seed"] = args.seed
        cfg["check"]["seed"] = args.seed
    return cfg


def _parse_dt(raw):
    if isinstance(raw, float):
        return raw
    if raw.lower() == "auto":
        return None
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"--dt expects a number or 'auto', got {raw!r}")


def _out_dir(args, cfg) -> str:
    if args.out is not None:
        return args.out
    if cfg["output"]["dir"]:
        return cfg["output"]["dir"]
    return os.environ.get("DEBYE_LIMIT_OUT", ".")


def _run_options(cfg, eps: float, record_every=None) -> RunOptions:
    run = cfg["run"]
    return RunOptions(
        dt=run["dt"],
        t_end=run["t_end"],
        eps=eps,
        density_floor=run["density_floor"],
        norm_ceiling=run["norm_ceiling"],
        pb=PBSolveOptions(**cfg["pb"]),
        record_every=record_every if record_every is not None
        else run["record_every"],
    )


def cmd_simulate(cfg, args) -> int:
    out = _out_dir(args, cfg)
    flow = cfg["run"]["flow"]
    if flow not in ("ep", "limit"):
        raise ConfigError(f"flow must be 'ep' or 'limit', got {flow!r}")
    if flow == "ep" and not (cfg["run"]["eps"] > 0.0):
        raise ConfigError("the full flow needs eps > 0; use --flow limit for eps = 0")
    eps = cfg["run"]["eps"] if flow == "ep" else 0.0
    if not 0 <= cfg["run"]["s"] <= MAX_SOBOLEV_ORDER:
        raise ConfigError(f"[run] s must lie in 0..{MAX_SOBOLEV_ORDER}, "
                          f"got {cfg['run']['s']}")
    try:
        grid = Grid(cfg["grid"]["n_points"])
        init = InitParams(**cfg["init"])
        opts = _run_options(cfg, eps)
    except ValueError as exc:
        raise ConfigError(str(exc))
    n0, u0 = make_initial(init, grid)
    state_cls = EPState if flow == "ep" else LimitState
    traj = evolve(state_cls(0.0, n0, u0), opts)

    os.makedirs(out, exist_ok=True)
    traj_path = os.path.join(out, f"traj_{flow}_{eps:g}.csv")
    write_trajectory_csv(traj, traj_path, s=cfg["run"]["s"])
    final = traj.final
    snap_path = write_snapshot_csv(final, flow, eps, out, phi=traj.final_phi)

    print(f"simulate: flow={flow} eps={eps:g} grid={grid.n_points} "
          f"dt={traj.dt:g} steps to t={final.t:g}")
    print(f"simulate: wrote {traj_path} and {snap_path}")
    if traj.blowup is not None:
        ev = traj.blowup
        print(f"simulate: blow-up at t={ev.t:g}: {ev.reason} ({ev.value:g})")
        return 3
    return 0


def cmd_sweep(cfg, args) -> int:
    out = _out_dir(args, cfg)
    try:
        spec = SweepSpec(
            eps_list=tuple(cfg["sweep"]["eps_list"]),
            n_points=cfg["grid"]["n_points"],
            run=_run_options(cfg, eps=1.0,
                             record_every=cfg["sweep"]["record_every"]),
            init=InitParams(**cfg["init"]),
            s_list=tuple(cfg["sweep"]["s_list"]),
            seed=cfg["sweep"]["seed"],
            bound_factor=cfg["sweep"]["bound_factor"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    report = run_sweep(spec, jobs=max(1, args.jobs))

    os.makedirs(out, exist_ok=True)
    json_path = os.path.join(out, "sweep_report.json")
    csv_path = os.path.join(out, "sweep_rows.csv")
    write_report_json(report, json_path)
    write_report_csv(report, csv_path)
    for member in report.members:
        rem_path = os.path.join(out, f"remainder_{member.eps:g}.csv")
        write_remainder_csv(member.remainders, member.triple_norms, rem_path)

    for name, fit in report.fits.items():
        print(f"sweep: fit {name}: slope={fit['slope']:.4f} "
              f"r2={fit['r_squared']:.5f}"
              + (" (largest eps excluded)" if fit["excluded_largest"] else ""))
    for name, verdict in report.verdicts.items():
        print(f"sweep: verdict {name}: {verdict}")
    print(f"sweep: wrote {json_path} and {csv_path}")

    blew_up = report.limit_status != "OK" or any(
        r["status"] != "OK" for r in report.rows)
    if blew_up:
        return 3
    if any(v == "FAIL" for v in report.verdicts.values()):
        return 4
    return 0


def _kp_battery(n_points: int, seed: int, pairs: int, max_mode: int):
    grid = Grid(n_points)
    rng = np.random.default_rng(seed)
    samples = []
    for index in range(pairs):
        # one stacked draw per pair: a whole battery in one stack costs
        # peak memory
        f, g = (Field(grid, v) for v in
                random_smooth_fields(grid, rng, 2, max_mode=max_mode))
        samples.extend((index, sample)
                       for sample in kato_ponce_sample(f, g, (1, 2, 3)))
    return samples


def cmd_check(cfg, args) -> int:
    out = _out_dir(args, cfg)
    c = cfg["check"]
    if not (c["eps"] >= MIN_REMAINDER_EPS):
        raise ConfigError(f"check needs eps >= {MIN_REMAINDER_EPS:.3g}, "
                          f"got {c['eps']}")
    if c["seed"] < 0 or c["kp_pairs"] < 1 or c["kp_max_mode"] < 1:
        raise ConfigError("check needs seed >= 0, kp_pairs >= 1 and "
                          "kp_max_mode >= 1")
    try:
        grid = Grid(c["n_points"])
        Grid(c["kp_grid"])  # the Kato-Ponce battery's grid
        init = InitParams(**cfg["init"])
        pb = PBSolveOptions(**cfg["pb"])
        opts = RunOptions(dt=c["dt"], t_end=c["t_end"], eps=c["eps"], pb=pb,
                          record_every=c["record_every"])
    except ValueError as exc:
        raise ConfigError(str(exc))
    # the sampler is alias-free only for fields below the grid's Nyquist mode
    if not c["kp_max_mode"] < c["kp_grid"] / 2:
        raise ConfigError(f"check needs kp_max_mode < kp_grid / 2 = "
                          f"{c['kp_grid'] // 2}, got {c['kp_max_mode']}")
    # the identity check takes centered differences of uniformly spaced records
    n_full, tail = _count_steps(c["t_end"], c["dt"])
    if tail > 0.0 or n_full % c["record_every"]:
        raise ConfigError("check needs t_end to be a whole number of record "
                          "intervals dt * record_every")
    n0, u0 = make_initial(init, grid)
    ep_traj = evolve(EPState(0.0, n0, u0), opts)
    lim_traj = evolve(LimitState(0.0, n0, u0),
                      RunOptions(dt=c["dt"], t_end=c["t_end"], eps=0.0, pb=pb,
                                 record_every=c["record_every"]))
    if ep_traj.blowup is not None or lim_traj.blowup is not None:
        print("check: run blew up before t_end; no verdicts")
        return 3
    rems = remainder_series(ep_traj, lim_traj)
    if len(rems.t) < 5:
        # the identity check at stride 2 needs three snapshots
        raise ConfigError(f"check needs at least 5 recorded states, got "
                          f"{len(rems.t)}; raise t_end or lower record_every")
    snaps = energy_snapshot(rems, c["gamma"])
    fine = identity_2_12_check(snaps, stride=1)
    coarse = identity_2_12_check(snaps, stride=2)
    ratio = coarse.defect / fine.defect if fine.defect > 0 else float("inf")

    os.makedirs(out, exist_ok=True)
    defects = {i + 1: d for i, d in enumerate(fine.defects)}
    write_ledger_csv(snaps, defects, os.path.join(out, "check_ledger.csv"))

    residuals = remainder_residual(rems, stride=2)
    write_csv(os.path.join(out, "check_residuals.csv"),
              "t,res_n,res_u,res_phi", zip(rems.t[::2][1:], *residuals))
    res_n, res_u, res_phi = (np.max(r) for r in residuals)
    res_n_fine, res_u_fine, _ = (np.max(r) for r in
                                 remainder_residual(rems, stride=1))

    kp_base = _kp_battery(c["kp_grid"], c["seed"], c["kp_pairs"], c["kp_max_mode"])
    kp_again = _kp_battery(c["kp_grid"], c["seed"], c["kp_pairs"], c["kp_max_mode"])
    kp_fine = _kp_battery(2 * c["kp_grid"], c["seed"], c["kp_pairs"],
                          c["kp_max_mode"])
    write_csv(os.path.join(out, "check_kato_ponce.csv"), "pair,k,lhs,rhs,ratio",
              [(i, s.k, s.lhs, s.rhs, s.ratio) for i, s in kp_base])
    max_ratio = max(s.ratio for _, s in kp_base)
    max_ratio_fine = max(s.ratio for _, s in kp_fine)
    reproducible = all(a.ratio == b.ratio
                       for (_, a), (_, b) in zip(kp_base, kp_again))
    refine_drift = abs(max_ratio_fine / max_ratio - 1.0) if max_ratio > 0 else 0.0

    gates = [
        ("identity defect (spacing %.1e)" % fine.spacing,
         fine.defect, c["identity_tol"], fine.defect <= c["identity_tol"]),
        ("res_n", res_n, c["res_n_tol"], res_n <= c["res_n_tol"]),
        ("res_u", res_u, c["res_u_tol"], res_u <= c["res_u_tol"]),
        ("res_phi", res_phi, c["res_phi_tol"], res_phi <= c["res_phi_tol"]),
        ("kato-ponce max ratio", max_ratio, c["kp_ratio_max"],
         np.isfinite(max_ratio) and max_ratio <= c["kp_ratio_max"]),
        ("kato-ponce refinement drift", refine_drift, c["kp_refine_rtol"],
         refine_drift <= c["kp_refine_rtol"]),
        ("kato-ponce reproducible", float(reproducible), 1.0, reproducible),
    ]
    all_ok = True
    for name, value, tol, ok in gates:
        print(f"check: {name} = {value:.3e} (tol {tol:g}): "
              f"{'PASS' if ok else 'FAIL'}")
        all_ok = all_ok and ok
    print(f"check: identity defect halving ratio = {ratio:.2f} "
          f"(fine spacing {fine.spacing:.1e})")
    print(f"check: residual second-order ratios: res_n {res_n / res_n_fine:.2f}, "
          f"res_u {res_u / res_u_fine:.2f}")
    return 0 if all_ok else 4


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "version":
            print(__version__)
            return 0
        cfg = _effective_config(args)
        if args.command == "simulate":
            return cmd_simulate(cfg, args)
        if args.command == "sweep":
            return cmd_sweep(cfg, args)
        if args.command == "check":
            return cmd_check(cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
