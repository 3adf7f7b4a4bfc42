"""End-to-end orchestration: dataset -> barrier -> solve -> audits -> mass.

A single deterministic entry point used by the positivity experiment and the
command-line driver.  Every stage's summary lands in one JSON-serializable
results dictionary; heavyweight arrays (solutions, profiles) are kept under
an "arrays" key for CSV emission and stripped before JSON serialization.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .barrier import (BarrierProfile, _search_r0, default_r0_candidates,
                      ode_residual_audit)
from .capillary import select_capillary_config
from .geometry import constraint_fields, make_dataset, validate_dataset
from .grids import RadialGrid, build_grid
from .jang_metric import (build_graph_geometry, build_shielding,
                          consequence_audit, neighborhood_audit,
                          schoen_yau_audit, shielding_audit, stability_audit,
                          xi_norm_sq)
from .jang_solver import estimate_audits, exhaustion_solve
from .mass import fit_alpha, fit_decay_exponent

DEFAULT_R_MAX = 512.0
DEFAULT_N_INTERVALS = 2048
SCHEDULE_FACTORS = (64.0, 128.0, 256.0)


def default_grid(r_max: float = DEFAULT_R_MAX,
                 n_intervals: int = DEFAULT_N_INTERVALS) -> RadialGrid:
    """Uniform solver grid.

    Uniform spacing keeps the origin stencil weight 1/h_1^2 moderate, so the
    discrete Newton residual can be driven below its 1e-10 tolerance without
    hitting roundoff amplification.
    """
    return build_grid(r_max, n_intervals, "uniform")


def exhaustion_schedule(r0: float, r_max: float,
                        factors=SCHEDULE_FACTORS) -> list:
    """Exhaustion radii f * r0 for the factors f, kept inside r_max.

    A schedule that r_max cuts to fewer than three radii leaves at most one
    Cauchy gap, which cannot show contraction.  It is refilled with the
    half-doublings r_max * 2^(-k/2), k = 3, 2, 1, 0, that exceed 32 r0 (for
    r0 = 4 and r_max = 512: 181, 256, 362, 512).  A schedule that r_max does
    not cut stays as given.
    """
    schedule = [f * r0 for f in factors if f * r0 <= r_max]
    if len(schedule) < len(factors) and len(schedule) < 3:
        schedule = [r_max * 2.0 ** (-k / 2.0) for k in (3, 2, 1, 0)]
        schedule = [r for r in schedule if r > 32.0 * r0]
    return schedule


def full_pipeline(family: str, n: int, params: dict, grid: RadialGrid,
                  seed: int) -> dict:
    """Run every stage on one generated dataset and collect all audits."""
    data = make_dataset(family, n, params, grid=grid, seed=seed)
    return run_pipeline_on(data, grid, seed=seed)


def run_pipeline_on(data, grid: RadialGrid, seed: int,
                    schedule_factors=SCHEDULE_FACTORS,
                    r0_candidates=None) -> dict:
    fields = constraint_fields(data, grid)
    min_margin = float(np.nanmin(fields.margin))
    validation = validate_dataset(data, grid)

    # the search's passing audit at r0 is the barrier report's
    r0, minus, plus = _search_r0(data, grid,
                                 r0_candidates or default_r0_candidates(grid))
    bp = BarrierProfile(r0=r0, n=data.n)
    ode_samples = np.geomspace(1.5 * r0, 64.0 * r0, 200)
    barrier_report = {
        "r0": r0,
        "ode_max_residual": ode_residual_audit(bp, ode_samples),
        "inequality_max_minus": float(np.max(minus)),
        "inequality_max_plus": float(np.max(plus)),
        "passed": bool(np.all(minus < 0.0) and np.all(plus < 0.0)),
    }

    config = select_capillary_config(data, r0, grid)
    schedule = exhaustion_schedule(r0, grid.r_max, schedule_factors)
    limit = exhaustion_solve(data, config, schedule, grid)
    geo = build_graph_geometry(data, config, limit, grid)

    estimates = estimate_audits(data, config, limit, bp)
    identity = schoen_yau_audit(data, config, geo)
    cons = consequence_audit(data, config, geo)
    cons_scale = max(1.0, float(np.nanmax(np.abs(cons))))
    cons_report = {"min_margin": float(np.nanmin(cons)),
                   "passed": bool(np.nanmin(cons) >= -1e-8 * cons_scale)}
    neighborhoods = neighborhood_audit(data, config, geo)
    shielding = shielding_audit(build_shielding(data, config, geo),
                                config, grid)
    stability = stability_audit(data, config, geo)

    alpha, alpha_fit = fit_alpha(data, grid)
    alpha_graph, _ = fit_alpha(geo, grid)
    window = (32.0 * r0, 0.5 * limit.outer_radius)
    decay = {}
    for name, values in (("u", limit.u), ("Xi", np.sqrt(xi_norm_sq(geo))),
                         ("R_check", geo.R_check)):
        try:
            decay[name] = asdict(fit_decay_exponent(values, grid, window))
        except Exception as exc:
            decay[name] = {"error": str(exc)}

    audits_passed = bool(barrier_report["passed"] and estimates["passed"]
                         and identity["max_rel_err"] < 1e-3
                         and cons_report["passed"]
                         and neighborhoods["passed"] and shielding["passed"]
                         and stability["passed"])
    return {
        "family": data.family, "n": data.n, "seed": seed,
        "params": data.params,
        "min_margin": min_margin,
        "validation": validation,
        "barrier": barrier_report,
        "config": {"r0": config.r0, "kappa0": config.kappa0,
                   "kappa1": config.kappa1, "s0": config.s0,
                   "s1": config.s1, "tau": config.tau},
        "exhaustion": {"schedule": schedule,
                       "trace": [_strip_steps(e) for e in limit.trace],
                       "outer_radius": limit.outer_radius},
        "estimates": _summarize_estimates(estimates),
        "identity": {"max_rel_err": identity["max_rel_err"],
                     "order": identity["order"]},
        "consequence": cons_report,
        "neighborhoods": neighborhoods,
        "shielding": {"six": shielding["six"],
                      "vacuous": [name for name, bullet
                                  in shielding["bullets"].items()
                                  if bullet.get("vacuous")],
                      "passed": shielding["passed"]},
        "stability": stability,
        "alpha": alpha,
        "alpha_graph": alpha_graph,
        "alpha_fit": asdict(alpha_fit),
        "decay": decay,
        "audits_passed": audits_passed,
        "arrays": {"u": limit.u, "grid": grid.nodes,
                   "consequence_margin": cons},
    }


def _strip_steps(entry: dict) -> dict:
    out = {k: v for k, v in entry.items() if k != "newton_steps"}
    out["newton_iterations"] = sum(s["iterations"]
                                   for s in entry.get("newton_steps", []))
    return out


def _summarize_estimates(report: dict) -> dict:
    out = {"passed": report["passed"], "entries": {}}
    for name, entry in report["entries"].items():
        out["entries"][name] = {
            k: v for k, v in entry.items()
            if k in ("passed", "sup", "bound", "slope_u", "slope_du",
                     "A", "C0", "sup_coarse", "max_excess", "note",
                     "first_violation")}
    return out
