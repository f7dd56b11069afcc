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

from .energy import gronwall_monitor
from .flows import (
    EPState,
    LimitState,
    RunOptions,
    default_dt,
    _quasineutral_values,
    evolve,
)
from .grid import (
    MAX_SOBOLEV_ORDER,
    Grid,
    _derivative_values,
    _hs_norm_values,
    _l2_values,
    _stack_values,
)
from .initial import InitParams, make_initial
from .io_utils import atomic_write_text, write_csv
from .remainder import (
    MIN_REMAINDER_EPS,
    elliptic_ratio_pair,
    remainder_series,
    triple_norm,
)

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
        if any(not e >= MIN_REMAINDER_EPS for e in eps_list):
            raise ValueError("eps_list entries must be positive and at least "
                             f"{MIN_REMAINDER_EPS:.3g}")
        object.__setattr__(self, "eps_list", eps_list)
        s_list = tuple(int(s) for s in self.s_list)
        if not s_list or any(not 0 <= s <= MAX_SOBOLEV_ORDER for s in s_list):
            raise ValueError(
                f"s_list must hold integers in 0..{MAX_SOBOLEV_ORDER}")
        object.__setattr__(self, "s_list", s_list)
        if not (self.bound_factor > 0.0):
            raise ValueError("bound_factor must be positive")
        Grid(self.n_points)  # raises on a size the grid rejects

    def fit_ready(self) -> bool:
        e = self.eps_list
        return (
            len(e) >= 3
            and all(a > b for a, b in zip(e, e[1:]))
            and e[0] / e[-1] >= 100.0 * (1.0 - 1e-12)
        )


@dataclass
class MemberResult:
    """Everything retained for one eps of the sweep.

    ``remainders`` is the member's remainder stack and ``triple_norms``
    maps each Sobolev order to its triple norms.
    """

    eps: float
    status: str  # "OK" | "BLOWUP"
    wall_time: float
    ep_traj: object
    remainders: object
    triple_norms: dict
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


def _potential_stacks(traj):
    """Grid, density and potential stacks of the states with a potential."""
    if traj.phis is None:
        raise ValueError("trajectory has no recorded potentials")
    grid = traj.states[0].grid
    n = _stack_values(grid, (st.n for st in traj.states[:len(traj.phis)]))
    return grid, n, _stack_values(grid, traj.phis)


def quasineutrality_gap(traj) -> float:
    """sup over recorded times of ||exp(phi) - n||_L2 for a full-flow run."""
    return _sup(_quasineutral_values(*_potential_stacks(traj)))


def quasineutral_identity_defect(traj) -> float:
    """max over recorded times of | ||exp(phi)-n|| - eps*||phi_xx|| |.

    Up to the Poisson solve tolerance the two sides agree snapshot by
    snapshot, which pins the measured gap to the field equation rather
    than to an accident of the dynamics.
    """
    grid, n, phi = _potential_stacks(traj)
    gap = _quasineutral_values(grid, n, phi)
    lap_norm = _l2_values(grid, _derivative_values(grid, phi, 2))
    return _sup(np.abs(gap - traj.eps * lap_norm))


def _sup(values) -> float:
    """max of a (T,) series; NaN when a run recorded no potential at all."""
    return float(np.max(values)) if np.size(values) else float("nan")


def _member_diagnostics(spec: SweepSpec, eps: float, ep_traj, lim_traj) -> MemberResult:
    rems = remainder_series(ep_traj, lim_traj)
    grid, count = rems.grid, len(rems.t)
    # the full flow at the remainders' times, for the plain errors
    ep_n = _stack_values(grid, (st.n for st in ep_traj.states[:count]))
    ep_u = _stack_values(grid, (st.u for st in ep_traj.states[:count]))
    phi = _stack_values(grid, ep_traj.phis[:count])
    triple_norms: dict = {}
    sup_norms: dict = {}
    errors: dict = {}
    elliptic: dict = {}
    for s in spec.s_list:
        tn = triple_norms[s] = triple_norm(rems, s)
        sup_norms[f"s{s}"] = {
            "n1_Hs": _sup(tn.n1_hs),
            "u1_triple": _sup(tn.u1_triple),
            "phi1_triple": _sup(tn.phi1_triple),
            "combined": _sup(tn.combined),
        }
        errors[f"n_H{s}"] = _sup(_hs_norm_values(grid, ep_n - rems.n0, s))
        errors[f"u_H{s}"] = _sup(_hs_norm_values(grid, ep_u - rems.u0, s))
        density, potential = elliptic_ratio_pair(tn)
        elliptic[f"k{s}"] = {"density": _sup(density),
                             "potential": _sup(potential)}
    errors["phi_l2"] = _sup(_l2_values(grid, phi - np.log(ep_n)))
    errors["qn_gap"] = quasineutrality_gap(ep_traj)
    status = "OK" if ep_traj.blowup is None else "BLOWUP"
    blowup = None
    if ep_traj.blowup is not None:
        ev = ep_traj.blowup
        blowup = {"t": ev.t, "reason": ev.reason, "value": ev.value}
    return MemberResult(eps=eps, status=status, wall_time=ep_traj.wall_time,
                        ep_traj=ep_traj, remainders=rems,
                        triple_norms=triple_norms, sup_norms=sup_norms,
                        errors=errors, elliptic=elliptic, blowup=blowup)


def _run_member(spec: SweepSpec, eps: float, dt: float, lim_traj) -> MemberResult:
    grid = Grid(spec.n_points)
    n0, u0 = make_initial(spec.init, grid)
    opts = replace(spec.run, eps=eps, dt=dt)
    ep_traj = evolve(EPState(0.0, n0, u0), opts)
    return _member_diagnostics(spec, eps, ep_traj, lim_traj)


def _member_worker(args):
    return _run_member(*args)


def _fit_with_exclusion(pairs) -> dict | None:
    """Order fit, dropping the largest eps once on a poor r^2.

    None when an error is not positive (all are zero at t_end = 0):
    no rate can be read from such a sweep.
    """
    if not all(err > 0.0 for _, err in pairs):
        return None
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
    dt = spec.run.dt
    if dt is None:
        # like simulate, a run shorter than one auto step takes one short step
        dt = default_dt(initial)
        if spec.run.t_end > 0.0:
            dt = min(dt, spec.run.t_end)

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
    member_blowup = len(ok_members) < len(members)
    any_blowup = member_blowup or limit_status != "OK"

    if spec.fit_ready() and len(ok_members) >= 3:
        keys = [f"{v}_H{s}" for s in spec.s_list for v in ("n", "u")] + ["qn_gap"]
        for key in keys:
            fit = _fit_with_exclusion([(m.eps, m.errors[key]) for m in ok_members])
            if fit is not None:
                fits[key] = fit

        s_ref = max(spec.s_list)
        for name, key in (("order_n", f"n_H{s_ref}"), ("order_u", f"u_H{s_ref}"),
                          ("order_qn_gap", "qn_gap")):
            f = fits.get(key)
            if f is None:
                verdicts[name] = "INCONCLUSIVE"
                continue
            ok = (ORDER_BAND[0] <= f["slope"] <= ORDER_BAND[1]
                  and f["r_squared"] >= R_SQUARED_MIN)
            verdicts[name] = "PASS" if ok else "FAIL"

    for s in spec.s_list:
        sups = [(row["eps"], row["sup_norms"][f"s{s}"]["combined"]) for row in rows]
        report = gronwall_monitor(sups, s, spec.bound_factor, member_blowup)
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
