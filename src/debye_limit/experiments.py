"""Epsilon sweeps: paired runs, convergence orders and verdicts.

A sweep integrates the limit flow once and the full flow at every eps
in the list, from identical initial data on one shared grid with one
shared dt (so time-discretization error cancels in the differences).
Per eps it reduces the paired trajectories to remainder diagnostics,
then fits convergence orders across eps and assembles PASS/FAIL
verdicts for the uniform-boundedness monitors.

Reports serialize to a JSON document plus a flat CSV; identical specs
reproduce bit-identical numbers (timing fields aside).
"""

from __future__ import annotations

import concurrent.futures
import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .energy import SweepMember, gronwall_monitor
from .flows import EPState, LimitState, RunOptions, default_dt, evolve
from .grid import Field, Grid, _derivative_values, hs_norm, l2_norm
from .initial import InitParams, make_initial
from .io_utils import atomic_write_text, write_csv
from .remainder import elliptic_ratio_pair, remainder_series, triple_norm

__all__ = [
    "OrderFit",
    "fit_order",
    "SweepSpec",
    "MemberResult",
    "SweepReport",
    "run_sweep",
    "quasineutrality_gap",
    "quasineutral_identity_defect",
    "write_report_json",
    "write_report_csv",
]

ORDER_BAND = (0.85, 1.15)
R_SQUARED_MIN = 0.99
ELLIPTIC_FACTOR = 3.0


@dataclass(frozen=True)
class OrderFit:
    slope: float
    intercept: float
    r_squared: float
    eps_used: tuple
    excluded_largest: bool = False


def fit_order(pairs) -> OrderFit:
    """Least-squares slope of log(err) against log(eps).

    Needs at least three pairs with strictly positive entries; the
    slope is the observed convergence order.
    """
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValueError(f"order fit needs >= 3 pairs, got {len(pairs)}")
    eps = np.array([p[0] for p in pairs], dtype=float)
    err = np.array([p[1] for p in pairs], dtype=float)
    if np.any(eps <= 0.0) or np.any(err <= 0.0):
        raise ValueError("order fit needs positive eps and positive errors")
    x = np.log(eps)
    y = np.log(err)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise ValueError("order fit needs at least two distinct eps values")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    residuals = y - (intercept + slope * x)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 and ss_res <= 1e-30 else 1.0 - ss_res / ss_tot
    return OrderFit(slope, intercept, float(r_squared), tuple(float(e) for e in eps))


@dataclass(frozen=True)
class SweepSpec:
    """Inputs of one sweep.

    ``eps_list`` may be any positive values (duplicates included, for
    determinism checks); convergence orders are only fitted when it has
    at least three strictly decreasing entries spanning two decades.
    ``seed`` is recorded for downstream randomized checks; the dynamics
    themselves are deterministic.
    """

    eps_list: tuple
    n_points: int = 256
    run: RunOptions = field(default_factory=lambda: RunOptions(record_every=2))
    init: InitParams = field(default_factory=InitParams)
    s_list: tuple = (0, 1, 2)
    seed: int = 0
    bound_factor: float = 2.0

    def __post_init__(self):
        eps_list = tuple(float(e) for e in self.eps_list)
        if not eps_list:
            raise ValueError("eps_list must not be empty")
        if any(e <= 0.0 for e in eps_list):
            raise ValueError("eps_list entries must be positive")
        object.__setattr__(self, "eps_list", eps_list)
        s_list = tuple(int(s) for s in self.s_list)
        if not s_list or any(s < 0 for s in s_list):
            raise ValueError("s_list must hold nonnegative integers")
        object.__setattr__(self, "s_list", s_list)
        if not (self.bound_factor > 0.0):
            raise ValueError("bound_factor must be positive")

    def fit_ready(self) -> bool:
        e = self.eps_list
        return (
            len(e) >= 3
            and all(a > b for a, b in zip(e, e[1:]))
            and e[0] / e[-1] >= 100.0 * (1.0 - 1e-12)
        )


@dataclass
class MemberResult:
    """Everything retained for one eps of the sweep."""

    eps: float
    status: str  # "OK" | "BLOWUP"
    wall_time: float
    ep_traj: object
    remainders: list
    sup_norms: dict
    errors: dict
    elliptic: dict
    blowup: dict | None = None


@dataclass
class SweepReport:
    spec: dict
    dt: float
    limit_status: str
    rows: list
    fits: dict
    verdicts: dict
    wall_time_total: float
    members: list  # MemberResult objects; not serialized
    limit_traj: object  # not serialized

    def as_dict(self, include_timings: bool = True) -> dict:
        rows = []
        for row in self.rows:
            row = dict(row)
            if not include_timings:
                row.pop("wall_time", None)
            rows.append(row)
        out = {
            "spec": self.spec,
            "dt": self.dt,
            "limit_status": self.limit_status,
            "rows": rows,
            "fits": self.fits,
            "verdicts": self.verdicts,
        }
        if include_timings:
            out["wall_time_total"] = self.wall_time_total
        return out


def quasineutrality_gap(traj) -> float:
    """sup over recorded times of ||exp(phi) - n||_L2 for a full-flow run."""
    if traj.phis is None:
        raise ValueError("trajectory has no recorded potentials")
    gap = 0.0
    for state, phi in zip(traj.states, traj.phis):
        diff = np.exp(phi.values) - state.n.values
        gap = max(gap, float(np.sqrt(np.mean(diff * diff) * state.grid.length)))
    return gap


def quasineutral_identity_defect(traj) -> float:
    """max over recorded times of | ||exp(phi)-n|| - eps*||phi_xx|| |.

    Up to the Poisson solve tolerance the two sides agree snapshot by
    snapshot, which pins the measured gap to the field equation rather
    than to an accident of the dynamics.
    """
    if traj.phis is None:
        raise ValueError("trajectory has no recorded potentials")
    worst = 0.0
    for state, phi in zip(traj.states, traj.phis):
        grid = state.grid
        diff = np.exp(phi.values) - state.n.values
        gap = float(np.sqrt(np.mean(diff * diff) * grid.length))
        lap = _derivative_values(grid, phi.values, 2)
        lap_norm = float(np.sqrt(np.mean(lap * lap) * grid.length))
        worst = max(worst, abs(gap - traj.eps * lap_norm))
    return worst


def _sup(values) -> float:
    """max of the values; NaN when a run recorded no potential at all."""
    return max(values, default=float("nan"))


def _member_diagnostics(spec: SweepSpec, eps: float, ep_traj, lim_traj) -> MemberResult:
    rems = remainder_series(ep_traj, lim_traj)
    count = len(rems)
    sup_norms: dict = {}
    errors: dict = {}
    elliptic: dict = {}
    for s in spec.s_list:
        tns = [triple_norm(r, s) for r in rems]
        sup_norms[f"s{s}"] = {
            "n1_Hs": _sup(t.n1_hs for t in tns),
            "u1_triple": _sup(t.u1_triple for t in tns),
            "phi1_triple": _sup(t.phi1_triple for t in tns),
            "combined": _sup(t.combined for t in tns),
        }
        err_n = _sup(
            hs_norm(Field(ep_traj.states[i].grid,
                          ep_traj.states[i].n.values - lim_traj.states[i].n.values), s)
            for i in range(count)
        )
        err_u = _sup(
            hs_norm(Field(ep_traj.states[i].grid,
                          ep_traj.states[i].u.values - lim_traj.states[i].u.values), s)
            for i in range(count)
        )
        errors[f"n_H{s}"] = err_n
        errors[f"u_H{s}"] = err_u
        dens = _sup(elliptic_ratio_pair(r, s)[0] for r in rems)
        pot = _sup(elliptic_ratio_pair(r, s)[1] for r in rems)
        elliptic[f"k{s}"] = {"density": dens, "potential": pot}
    errors["phi_l2"] = _sup(
        l2_norm(Field(ep_traj.states[i].grid,
                      ep_traj.phis[i].values - np.log(ep_traj.states[i].n.values)))
        for i in range(count)
    )
    errors["qn_gap"] = quasineutrality_gap(ep_traj)
    status = "OK" if ep_traj.blowup is None else "BLOWUP"
    blowup = None
    if ep_traj.blowup is not None:
        ev = ep_traj.blowup
        blowup = {"t": ev.t, "reason": ev.reason, "value": ev.value}
    return MemberResult(eps=eps, status=status, wall_time=ep_traj.wall_time,
                        ep_traj=ep_traj, remainders=rems, sup_norms=sup_norms,
                        errors=errors, elliptic=elliptic, blowup=blowup)


def _run_member(spec: SweepSpec, eps: float, dt: float, lim_traj) -> MemberResult:
    grid = Grid(spec.n_points)
    n0, u0 = make_initial(spec.init, grid)
    opts = replace(spec.run, eps=eps, dt=dt)
    ep_traj = evolve(EPState(0.0, n0, u0), opts)
    return _member_diagnostics(spec, eps, ep_traj, lim_traj)


def _member_worker(args):
    return _run_member(*args)


def _fit_with_exclusion(pairs) -> dict:
    fit = fit_order(pairs)
    excluded = False
    if fit.r_squared < R_SQUARED_MIN and len(pairs) >= 4:
        # drop the largest eps once; pre-asymptotic head is the usual culprit
        trimmed = sorted(pairs, key=lambda p: p[0])[:-1]
        fit = fit_order(trimmed)
        excluded = True
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "eps_used": list(fit.eps_used),
        "excluded_largest": excluded,
    }


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepReport:
    """Run the paired flows across the eps list and assemble the report."""
    t_begin = time.perf_counter()
    grid = Grid(spec.n_points)
    n0, u0 = make_initial(spec.init, grid)
    initial = LimitState(0.0, n0, u0)
    dt = spec.run.dt if spec.run.dt is not None else default_dt(initial)

    lim_traj = evolve(initial, replace(spec.run, eps=0.0, dt=dt))
    limit_status = "OK" if lim_traj.blowup is None else "BLOWUP"

    if jobs > 1 and len(spec.eps_list) > 1:
        args = [(spec, eps, dt, lim_traj) for eps in spec.eps_list]
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            members = list(pool.map(_member_worker, args))
    else:
        members = [_run_member(spec, eps, dt, lim_traj) for eps in spec.eps_list]

    rows = []
    for m in members:
        row = {
            "eps": m.eps,
            "status": m.status,
            "sup_norms": m.sup_norms,
            "errors": m.errors,
            "elliptic": m.elliptic,
            "wall_time": m.wall_time,
        }
        if m.blowup is not None:
            row["blowup"] = m.blowup
        rows.append(row)

    fits: dict = {}
    verdicts: dict = {}
    ok_members = [m for m in members if m.status == "OK"]
    any_blowup = (len(ok_members) < len(members)) or limit_status != "OK"

    if spec.fit_ready() and len(ok_members) >= 3:
        for s in spec.s_list:
            fits[f"n_H{s}"] = _fit_with_exclusion(
                [(m.eps, m.errors[f"n_H{s}"]) for m in ok_members])
            fits[f"u_H{s}"] = _fit_with_exclusion(
                [(m.eps, m.errors[f"u_H{s}"]) for m in ok_members])
        fits["qn_gap"] = _fit_with_exclusion(
            [(m.eps, m.errors["qn_gap"]) for m in ok_members])

        s_ref = max(spec.s_list)
        for name, key in (("order_n", f"n_H{s_ref}"), ("order_u", f"u_H{s_ref}"),
                          ("order_qn_gap", "qn_gap")):
            f = fits[key]
            ok = (ORDER_BAND[0] <= f["slope"] <= ORDER_BAND[1]
                  and f["r_squared"] >= R_SQUARED_MIN)
            verdicts[name] = "PASS" if ok else "FAIL"

    for s in spec.s_list:
        report = gronwall_monitor(
            [SweepMember(m.eps, tuple(m.remainders), m.status != "OK")
             for m in members],
            s, spec.bound_factor)
        verdicts[f"gronwall_s{s}"] = report.verdict

    for k in spec.s_list:
        if any_blowup:
            verdicts[f"elliptic_k{k}"] = "INCONCLUSIVE"
            continue
        ref = max(members, key=lambda m: m.eps).elliptic[f"k{k}"]
        ok = True
        for m in members:
            fam = m.elliptic[f"k{k}"]
            for side in ("density", "potential"):
                bound = ELLIPTIC_FACTOR * ref[side]
                if not (fam[side] <= bound or (ref[side] == 0.0 and fam[side] == 0.0)):
                    ok = False
        verdicts[f"elliptic_k{k}"] = "PASS" if ok else "FAIL"

    spec_echo = {
        "eps_list": list(spec.eps_list),
        "n_points": spec.n_points,
        "t_end": spec.run.t_end,
        "dt": spec.run.dt,
        "record_every": spec.run.record_every,
        "s_list": list(spec.s_list),
        "seed": spec.seed,
        "bound_factor": spec.bound_factor,
        "init": asdict(spec.init),
    }
    return SweepReport(
        spec=spec_echo,
        dt=dt,
        limit_status=limit_status,
        rows=rows,
        fits=fits,
        verdicts=verdicts,
        wall_time_total=time.perf_counter() - t_begin,
        members=members,
        limit_traj=lim_traj,
    )


def write_report_json(report: SweepReport, path) -> None:
    atomic_write_text(path, json.dumps(report.as_dict(), indent=2) + "\n")


def write_report_csv(report: SweepReport, path) -> None:
    """Flat per-(eps, s) rows mirroring the JSON report."""
    rows = []
    for row in report.rows:
        for s in report.spec["s_list"]:
            sup = row["sup_norms"][f"s{s}"]
            ell = row["elliptic"][f"k{s}"]
            rows.append((
                row["eps"], row["status"], s,
                sup["n1_Hs"], sup["u1_triple"], sup["phi1_triple"],
                sup["combined"],
                row["errors"][f"n_H{s}"], row["errors"][f"u_H{s}"],
                row["errors"]["phi_l2"], row["errors"]["qn_gap"],
                ell["density"], ell["potential"],
                row["wall_time"],
            ))
    write_csv(
        path,
        "eps,status,s,sup_n1_Hs,sup_u1_triple,sup_phi1_triple,sup_combined,"
        "err_n_Hs,err_u_Hs,err_phi_l2,qn_gap,elliptic_density,"
        "elliptic_potential,wall_time",
        rows,
    )
