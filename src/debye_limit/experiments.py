"""Epsilon sweeps: paired runs, convergence orders and verdicts.

A sweep integrates the limit flow once and the full flow at every eps
in the list, from identical initial data on one shared grid with one
shared dt (so time-discretization error cancels in the differences).
Each member streams its full flow into its remainder rows (it keeps no
record stack) and reduces them on the spot to its report row and the
``(T,)`` series of its remainder CSV (triple norms and equation
residuals); the stack does not outlive that reduction, so a pool worker
sends back only series. The
sweep then fits convergence orders across eps and assembles PASS/FAIL
verdicts from the rows by the rules and constants defined here.

Reports serialize to a JSON document plus a flat CSV; identical specs
reproduce bit-identical numbers (timing fields aside).
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .flows import (
    EPState,
    RunOptions,
    _quasineutral_values,
    evolve,
)
from .grid import (
    MAX_SOBOLEV_ORDER,
    Grid,
    _l2_values,
)
from .initial import InitParams, make_initial
from .io_utils import atomic_write_text, write_csv
from .remainder import (
    MIN_REMAINDER_EPS,
    RemainderRows,
    elliptic_ratio_pair,
    remainder_residual,
    remainder_series,
    triple_norm,
)

ORDER_BAND = (0.85, 1.15)
R_SQUARED_MIN = 0.99
ELLIPTIC_FACTOR = 3.0
BOUND_FACTOR = 2.0


def fit_order(pairs) -> dict:
    """Least-squares slope of log(err) against log(eps).

    Needs at least three pairs with strictly positive entries; the
    slope is the observed convergence order. Returns the report's fit:
    ``slope``, ``intercept``, ``r_squared`` and ``eps_used``.
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
    return {"slope": slope, "intercept": intercept, "r_squared": r_squared,
            "eps_used": eps.tolist()}


def gronwall_monitor(families, bound_factor: float, blew_up: bool) -> str:
    """Uniform-boundedness verdict of one or more families of ``(eps,
    sup-in-time value)`` pairs, one pair per sweep member: PASS when in
    every family each sup stays within ``bound_factor`` times the family's
    value at the largest eps; INCONCLUSIVE when a run blew up before t_end.
    """
    refs = [max(sups, key=lambda pair: pair[0])[1] for sups in families]
    if blew_up:
        return "INCONCLUSIVE"
    ok = all(sup <= bound_factor * ref for sups, ref in zip(families, refs) for _, sup in sups)
    return "PASS" if ok else "FAIL"


@dataclass(frozen=True)
class SweepSpec:
    """Inputs of one sweep.

    ``eps_list`` may be any positive values (duplicates included, for
    determinism checks); convergence orders are only fitted when it has
    at least three strictly decreasing entries spanning two decades.
    ``seed`` is only echoed in the report: a sweep draws nothing, and
    the dynamics are deterministic.
    """

    eps_list: tuple
    n_points: int
    run: RunOptions
    init: InitParams
    s_list: tuple
    seed: int

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

    ``row`` is the member's report row. ``triple_norms`` maps each
    Sobolev order to the triple norms of its remainder stack and
    ``residuals`` is that stack's ``(res_n, res_u, res_phi)``, the
    series of its remainder CSV.
    """

    row: dict
    triple_norms: dict
    residuals: tuple


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
    blew_up: bool  # the limit run or a member ended before t_end; not serialized

    def as_dict(self, include_timings: bool = True) -> dict:
        rows = [{k: v for k, v in row.items() if include_timings or k != "wall_time"}
                for row in self.rows]
        out = {"spec": self.spec, "dt": self.dt, "limit_status": self.limit_status,
               "rows": rows, "fits": self.fits, "verdicts": self.verdicts}
        if include_timings:
            out["wall_time_total"] = self.wall_time_total
        return out


def _sup(values) -> float:
    """max of a (T,) series; NaN when a run recorded no potential at all."""
    return float(np.max(values)) if np.size(values) else float("nan")


def _run_member(spec: SweepSpec, initial, lim_traj, eps: float) -> MemberResult:
    """The full flow at ``eps`` from the limit run's initial state, at its dt,
    streamed into its remainder rows and its own errors, and reduced to the
    member's report row and remainder-CSV series."""
    opts = replace(spec.run, eps=eps, dt=lim_traj.dt)
    rows, grid = RemainderRows(lim_traj, opts), lim_traj.grid
    phi_l2, qn_gap = [], []  # of each record with a potential

    def take(t, n, u, phi, norms):
        rows(t, n, u, phi, norms)
        if phi is not None:
            phi_l2.append(_l2_values(grid, phi - np.log(n)))
            qn_gap.append(_quasineutral_values(grid, n, phi))

    traj = evolve(initial, opts, on_record=take)
    rems, ev = remainder_series(rows), traj.blowup
    residuals = remainder_residual(rems)
    triple_norms = triple_norm(rems, spec.s_list)
    sup_norms, errors, elliptic = {}, {}, {}
    for s, tn in triple_norms.items():
        sup_norms[f"s{s}"] = {
            "n1_Hs": _sup(tn.n1_hs),
            "u1_triple": _sup(tn.u1_triple),
            "phi1_triple": _sup(tn.phi1_triple),
            "combined": _sup(tn.combined),
        }
        # the plain errors: n_eps - n0 = eps n1, and likewise for u
        errors[f"n_H{s}"] = _sup(eps * tn.n1_hs)
        errors[f"u_H{s}"] = _sup(eps * tn.u1_hs)
        density, potential = elliptic_ratio_pair(tn)
        elliptic[f"k{s}"] = {"density": _sup(density),
                             "potential": _sup(potential)}
    row = {
        "eps": eps,
        "status": "OK" if ev is None else "BLOWUP",
        "sup_norms": sup_norms,
        # phi_l2 is read over the rows paired with the limit run, qn_gap over all
        "errors": {**errors, "phi_l2": _sup(phi_l2[:len(rems.t)]), "qn_gap": _sup(qn_gap)},
        "elliptic": elliptic,
        "wall_time": traj.wall_time,
    }
    if ev is not None:
        row["blowup"] = {"t": ev.t, "reason": ev.reason, "value": ev.value}
    return MemberResult(row=row, triple_norms=triple_norms, residuals=residuals)


def _fit_with_exclusion(pairs) -> dict | None:
    """Order fit, dropping the largest eps once on a poor r^2.

    None when an error is not positive (all are zero at t_end = 0):
    no rate can be read from such a sweep.
    """
    if not all(err > 0.0 for _, err in pairs):
        return None
    fit = fit_order(pairs)
    excluded = fit["r_squared"] < R_SQUARED_MIN and len(pairs) >= 4
    if excluded:
        # drop the largest eps once; pre-asymptotic head is the usual culprit
        fit = fit_order(sorted(pairs, key=lambda p: p[0])[:-1])
    fit["excluded_largest"] = excluded
    return fit


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepReport:
    """Run the paired flows across the eps list and assemble the report."""
    t_begin = time.perf_counter()
    initial = EPState(0.0, *make_initial(spec.init, Grid(spec.n_points)))
    lim_traj = evolve(initial, replace(spec.run, eps=0.0))
    limit_status = "OK" if lim_traj.blowup is None else "BLOWUP"

    member = functools.partial(_run_member, spec, initial, lim_traj)
    if jobs > 1 and len(spec.eps_list) > 1:
        import concurrent.futures  # not at the top: it would cost every command ~5 ms
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(jobs, len(spec.eps_list))) as pool:
            members = list(pool.map(member, spec.eps_list))
    else:
        members = [member(eps) for eps in spec.eps_list]

    rows = [m.row for m in members]
    fits, verdicts = {}, {}
    ok_rows = [row for row in rows if row["status"] == "OK"]
    blew_up = limit_status != "OK" or len(ok_rows) < len(rows)

    if spec.fit_ready() and len(ok_rows) >= 3:
        keys = [f"{v}_H{s}" for s in spec.s_list for v in ("n", "u")] + ["qn_gap"]
        for key in keys:
            fit = _fit_with_exclusion([(row["eps"], row["errors"][key])
                                       for row in ok_rows])
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
        verdicts[f"gronwall_s{s}"] = gronwall_monitor([sups], BOUND_FACTOR, blew_up)

    for k in spec.s_list:
        families = [[(row["eps"], row["elliptic"][f"k{k}"][side]) for row in rows]
                    for side in ("density", "potential")]
        verdicts[f"elliptic_k{k}"] = gronwall_monitor(families, ELLIPTIC_FACTOR, blew_up)

    spec_echo = {
        "eps_list": list(spec.eps_list),
        "n_points": spec.n_points,
        "t_end": spec.run.t_end,
        "dt": spec.run.dt,
        "record_every": spec.run.record_every,
        "s_list": list(spec.s_list),
        "seed": spec.seed,
        "bound_factor": BOUND_FACTOR,
        "init": asdict(spec.init),
    }
    return SweepReport(spec=spec_echo, dt=lim_traj.dt, limit_status=limit_status,
                       rows=rows, fits=fits, verdicts=verdicts, blew_up=blew_up,
                       wall_time_total=time.perf_counter() - t_begin, members=members)


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
