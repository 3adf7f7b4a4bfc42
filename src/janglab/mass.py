"""Mass-parameter extraction, decay-exponent fits, and the positivity batch.

The asymptotic model is a(r) = 1 + alpha r^{2-n} + o(r^{2-n}); alpha is the
mass parameter whose positivity the whole pipeline certifies.  Decay exponents
of solution and curvature profiles are fitted by log-log regression, a
straight line in closed form (``geometry._line_fit``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitFailure, InsufficientData, InvalidArgument
from .geometry import RadialInitialData, _line_fit
from .grids import RadialGrid

RMS_ACCEPT = 0.1


@dataclass
class DecayFit:
    """Result of a power-law fit: value ~ amplitude * r^exponent."""

    exponent: float
    amplitude: float
    fit_window: tuple
    rms_residual: float
    n_points: int


def _default_window(grid: RadialGrid):
    return (grid.r_max / 4.0, grid.r_max / 2.0)


def _window_mask(grid: RadialGrid, window):
    lo, hi = float(window[0]), float(window[1])
    if not 0.0 < lo < hi <= grid.r_max * (1.0 + 1e-12):
        raise InvalidArgument(f"bad fit window {window}")
    return (grid.nodes >= lo) & (grid.nodes <= hi), (lo, hi)


def fit_alpha(obj, grid: RadialGrid):
    """Mass parameter from the radial metric coefficient.

    Least-squares fit of (a(r) - 1) against r^{2-n} on the window
    [r_max/4, r_max/2].  ``obj`` is a dataset (fits the base metric) or a
    graph geometry on ``grid`` (fits the graph coefficient a + u'^2 at the
    window nodes).  Returns
    (alpha, DecayFit); raises FitFailure when the relative rms residual
    exceeds 0.1, i.e. when the profile is not of the modeled form.
    """
    if isinstance(obj, RadialInitialData):
        return fit_alpha_profile(obj.a, obj.n, grid)
    if hasattr(obj, "g_check_rr"):  # graph geometry
        if not np.array_equal(obj.grid.nodes, grid.nodes):
            raise InvalidArgument("the graph geometry must live on the grid")
        return fit_alpha_profile(obj.g_check_rr, obj.n, grid)
    raise InvalidArgument("fit_alpha needs a dataset or a graph geometry")


def fit_alpha_profile(profile, n: int, grid: RadialGrid, window=None):
    """fit_alpha on an explicit radial coefficient: a profile, or its
    values at the grid nodes."""
    mask, win = _window_mask(grid, window or _default_window(grid))
    r = grid.nodes[mask]
    if r.size < 8:
        raise InsufficientData(f"only {r.size} nodes in fit window {win}")
    y = _window_values(profile, r, mask) - 1.0
    x = r ** (2.0 - n)
    if float(np.max(np.abs(y))) < 1e-13:
        fit = DecayFit(exponent=2.0 - n, amplitude=0.0, fit_window=win,
                       rms_residual=0.0, n_points=int(r.size))
        return 0.0, fit
    alpha = float(np.sum(x * y) / np.sum(x * x))
    model = alpha * x
    rms = float(np.sqrt(np.sum((y - model) ** 2))
                / max(np.sqrt(np.sum(model ** 2)), 1e-300))
    if rms >= RMS_ACCEPT:
        raise FitFailure(
            f"relative rms residual {rms:.3g} >= {RMS_ACCEPT}: profile does "
            f"not match 1 + alpha r^{2 - n}")
    fit = DecayFit(exponent=2.0 - n, amplitude=alpha, fit_window=win,
                   rms_residual=rms, n_points=int(r.size))
    return alpha, fit


def _window_values(profile, r, mask) -> np.ndarray:
    """A profile at the window radii r, or nodal values at the window."""
    if callable(profile):
        return np.asarray(profile(r), dtype=float)
    return np.asarray(profile, dtype=float)[mask]


def fit_decay_exponent(profile, grid: RadialGrid, window) -> DecayFit:
    """Log-log regression of |profile| on the window; zeros are masked.

    ``profile`` is a profile or its values at the grid nodes.
    """
    mask, win = _window_mask(grid, window)
    r = grid.nodes[mask]
    v = np.abs(_window_values(profile, r, mask))
    keep = v > 1e-280
    if np.count_nonzero(keep) < 8:
        raise InsufficientData(
            f"fewer than 8 usable nodes in window {win} "
            f"({np.count_nonzero(keep)} nonzero)")
    lx = np.log(r[keep])
    ly = np.log(v[keep])
    slope, intercept = _line_fit(lx, ly)
    resid = ly - (slope * lx + intercept)
    return DecayFit(exponent=slope, amplitude=float(np.exp(intercept)),
                    fit_window=win,
                    rms_residual=float(np.sqrt(np.mean(resid ** 2))),
                    n_points=int(np.count_nonzero(keep)))


def positivity_experiment(n: int, count: int, seed: int,
                          grid: RadialGrid) -> dict:
    """Generate strict-DEC datasets and verify the mass parameter is positive.

    Each dataset runs the full pipeline (inner-radius search, capillary
    configuration, exhaustion solve, all audits, mass fit).  Per-dataset
    failures are recorded without aborting the batch.  The experiment passes
    when every dataset with positive margin and green audits has alpha > 0.
    """
    from .pipeline import full_pipeline

    if count < 1:
        raise InvalidArgument("count must be >= 1")

    def run_one(k):
        sk = seed + k
        rng = np.random.default_rng(sk)
        params = {"m": float(rng.uniform(0.5, 2.0)),
                  "amplitude": float(rng.uniform(0.01, 0.08))}
        try:
            res = full_pipeline("perturbed-dec", n, params, grid, seed=sk)
            return {"seed": sk, "n": n,
                    "min_margin": res["min_margin"],
                    "alpha": res["alpha"],
                    "identity_err": res["identity"]["max_rel_err"],
                    "audits_passed": res["audits_passed"],
                    "error": None}
        except Exception as exc:  # aggregate, do not abort the batch
            return {"seed": sk, "n": n, "min_margin": None, "alpha": None,
                    "identity_err": None, "audits_passed": False,
                    "error": f"{type(exc).__name__}: {exc}"}

    rows = [run_one(k) for k in range(count)]
    eligible = [row for row in rows
                if row["error"] is None and row["min_margin"] is not None
                and row["min_margin"] > 0.0 and row["audits_passed"]]
    passed = (len(eligible) == len(rows)
              and all(row["alpha"] is not None and row["alpha"] > 0.0
                      for row in eligible))
    return {"passed": bool(passed), "n": n, "count": count, "seed": seed,
            "n_positive": sum(1 for row in eligible
                              if row["alpha"] and row["alpha"] > 0.0),
            "rows": rows}


def experiment_csv(report: dict) -> str:
    """CSV export 'seed,n,min_margin,alpha,identity_err,audits_passed'."""
    lines = ["seed,n,min_margin,alpha,identity_err,audits_passed"]
    for row in report["rows"]:
        vals = [str(row["seed"]), str(row["n"])]
        for key in ("min_margin", "alpha", "identity_err"):
            vals.append("" if row[key] is None else repr(float(row[key])))
        vals.append(str(bool(row["audits_passed"])).lower())
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"
