"""Acceptance gate: eight end-to-end checks with quantitative tolerances.

Each test exercises one externally promised property of the laboratory:
curvature oracles, the barrier suite, the nonlinear solver, the pointwise
curvature identity, the positivity/stability/shielding audits, decay
exponents, mass positivity over a randomized batch, and determinism of the
emitted artifacts.
"""

import copy
import json
import time

import numpy as np
import pytest

from janglab.barrier import (BarrierProfile, barrier_inequality_audit,
                             find_r0, ode_residual_audit)
from janglab.capillary import select_capillary_config
from janglab.geometry import RadialFrame, make_dataset, scalar_curvature
from janglab.grids import build_grid
from janglab.jang_metric import (build_graph_geometry, build_shielding,
                                 consequence_audit, schoen_yau_audit,
                                 shielding_audit, stability_audit, xi_norm_sq)
from janglab.jang_solver import (continuation_solve, estimate_audits,
                                 exhaustion_solve, newton_solve)
from janglab.mass import (fit_alpha, fit_alpha_profile, fit_decay_exponent,
                          positivity_experiment)
from janglab.pipeline import default_grid, run_pipeline_on
from janglab.report import emit_report

from test_geometry import sphere_dataset
from test_jang_metric import potential_well, synthetic_shielding

DEC_PARAMS = {"m": 1.0, "amplitude": 0.05}


@pytest.fixture(scope="module")
def fine_setup():
    """Full chain at 4096 intervals, with the solver wall time recorded."""
    grid = build_grid(512.0, 4096, "uniform")
    data = make_dataset("perturbed-dec", 4, DEC_PARAMS, grid=grid, seed=7)
    r0 = find_r0(data, grid, [1.0, 2.0, 4.0, 8.0])
    config = select_capillary_config(data, r0, grid)
    t0 = time.perf_counter()
    limit = exhaustion_solve(data, config,
                             [64.0 * r0, 128.0 * r0, 256.0 * r0], grid)
    solve_seconds = time.perf_counter() - t0
    geo = build_graph_geometry(data, config, limit, grid)
    return {"grid": grid, "data": data, "r0": r0, "config": config,
            "limit": limit, "geo": geo, "solve_seconds": solve_seconds}


# ---------------------------------------------------------------------------
# 1. curvature oracle
# ---------------------------------------------------------------------------

def test_curvature_oracle():
    t0 = time.perf_counter()
    grid = build_grid(512.0, 2048, "uniform")
    flat = make_dataset("flat", 4, {})
    assert np.max(np.abs(scalar_curvature(flat, grid))) < 1e-6

    for n in (4, 5):
        vac = make_dataset("schwarzschild", n, {"m": 1.0})
        R = scalar_curvature(vac, grid)
        assert np.max(np.abs(R[1:])) < 1e-6      # origin-singular family

    errs = []
    for N in (256, 512):
        data, sgrid = sphere_dataset(4, N)
        R = scalar_curvature(data, sgrid)
        sel = sgrid.nodes <= 2.8
        errs.append(np.max(np.abs(R - 12.0)[sel]))   # n(n-1) = 12 for n = 4
    assert np.log2(errs[0] / errs[1]) >= 1.9
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. barrier suite
# ---------------------------------------------------------------------------

def test_barrier_suite():
    t0 = time.perf_counter()
    grid = build_grid(512.0, 2048, "uniform")
    data = make_dataset("schwarzschild", 4, {"m": 1.0})
    r0 = find_r0(data, grid, [1.0, 2.0, 4.0, 8.0])
    bp = BarrierProfile(r0=r0, n=4)

    samples = np.geomspace(1.5 * r0, 64.0 * r0, 200)
    assert ode_residual_audit(bp, samples) < 1e-9

    s = np.geomspace(2.0 * r0 * (1 + 1e-9), 64.0 * r0, 200)
    margins = np.array([2.0 * r0 ** 2 * float(x) ** -1 - bp.b(float(x))
                        for x in s])
    assert np.min(margins) >= 0.0

    exterior = grid.nodes[grid.nodes > r0 * (1.0 + 1e-9)]
    minus, plus = barrier_inequality_audit(data, bp, exterior)
    assert np.max(minus) < 0.0 and np.max(plus) < 0.0
    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# 3. solver suite
# ---------------------------------------------------------------------------

def test_solver_suite(fine_setup):
    grid, data = fine_setup["grid"], fine_setup["data"]
    config, r0 = fine_setup["config"], fine_setup["r0"]
    limit = fine_setup["limit"]

    assert fine_setup["solve_seconds"] < 30.0

    # exactness: zero coupling and momentum-free data give the zero solution
    domain = grid.truncate(64.0 * r0)
    z = newton_solve(data, config, domain, 0.0,
                     np.zeros_like(domain.nodes))
    assert z.iterations == 0 and np.all(z.w == 0.0)
    free = copy.copy(data)
    from janglab.profiles import constant_profile
    free.q_rad = free.q_tan = constant_profile(0.0)
    zf = continuation_solve(free, config, domain)
    assert np.max(np.abs(zf.w)) < 1e-12

    # every converged residual on the exhaustion trace is below tolerance
    qscale = max(1.0, float(np.max(4.0 * RadialFrame(data, grid.nodes).q_norm)))
    for entry in limit.trace:
        assert entry["residual_norm"] < 1e-10 * qscale

    # a-priori envelope and gradient bounds within 1e-8 * scale
    bp = BarrierProfile(r0=r0, n=4)
    report = estimate_audits(data, config, limit, bp)
    assert report["passed"]
    for name in ("barrier_envelope", "decay_envelope"):
        assert report["entries"][name]["max_excess"] <= \
            1e-8 * max(1.0, report["entries"][name]["sup"])

    # sign symmetry: flipping the momentum sign flips the solution
    flipped = copy.copy(data)

    class Neg:
        def __init__(self, p):
            self.p = p

        def __call__(self, r):
            return -self.p(r)

        def deriv1(self, r):
            return -self.p.deriv1(r)

        def deriv2(self, r):
            return -self.p.deriv2(r)
    flipped.q_rad = Neg(data.q_rad)
    flipped.q_tan = Neg(data.q_tan)
    s_plus = continuation_solve(data, config, domain)
    s_minus = continuation_solve(flipped, config, domain)
    assert np.max(np.abs(s_plus.w + s_minus.w)) < 2e-10

    # grid convergence of the truncated solve across nested uniform grids
    sols = {}
    for N in (1024, 2048, 4096):
        g = build_grid(512.0, N, "uniform")
        d = g.truncate(64.0 * r0)
        sols[N] = continuation_solve(data, config, d).w
    e1 = np.max(np.abs(sols[1024] - sols[2048][::2]))
    e2 = np.max(np.abs(sols[2048] - sols[4096][::2]))
    assert np.log2(e1 / e2) >= 1.9


# ---------------------------------------------------------------------------
# 4. pointwise curvature identity
# ---------------------------------------------------------------------------

def test_pointwise_identity(fine_setup):
    report = schoen_yau_audit(fine_setup["data"], fine_setup["config"],
                              fine_setup["geo"])
    assert report["max_rel_err"] < 1e-3
    assert report["order"] >= 1.9

    # degenerate case u = 0, q = 0: both sides agree to roundoff
    grid = build_grid(512.0, 1024, "uniform")
    flat = make_dataset("flat", 4, {})
    from test_jang_solver import synthetic_config
    config = synthetic_config(grid=grid)
    degenerate = schoen_yau_audit(
        flat, config,
        build_graph_geometry(flat, config, np.zeros_like(grid.nodes), grid))
    assert degenerate["max_rel_err"] < 1e-12


# ---------------------------------------------------------------------------
# 5. consequence, stability, shielding
# ---------------------------------------------------------------------------

def test_positivity_audits(fine_setup):
    data, config = fine_setup["data"], fine_setup["config"]
    geo, grid = fine_setup["geo"], fine_setup["grid"]

    margin = consequence_audit(data, config, geo)
    scale = max(1.0, float(np.nanmax(np.abs(margin))))
    assert float(np.nanmin(margin)) >= -1e-8 * scale

    stability = stability_audit(data, config, geo)
    assert stability["passed"]
    assert stability["lambda_min"] >= stability["bound"]
    assert stability["cross_check_gap"] <= stability["cross_check_bound"]

    sd = build_shielding(data, config, geo)
    report = shielding_audit(sd, config, grid)
    assert report["six"] == [True] * 6

    # constructed violations land on the predicted bullet and node
    _, s_config, _, s_grid, s_sd = synthetic_shielding()
    zeroed = copy.copy(s_sd)
    zeroed.Phi = np.zeros_like(s_grid.nodes)
    bad = shielding_audit(zeroed, s_config, s_grid)
    assert not bad["bullets"]["pole_at_boundary"]["passed"]
    loc = bad["bullets"]["reduced_density_bound"]["first_violation"]
    assert abs(loc["node_radius"] - (6.0 + 1e-9)) < 1e-6
    shrunk = copy.copy(s_sd)
    shrunk.E_outer_radius = 17.0
    assert not shielding_audit(shrunk, s_config,
                               s_grid)["bullets"]["contains_exterior"]["passed"]

    # corrupting the density by 1e4 breaks the consequence bound
    bad_cfg = copy.copy(config)
    bad_cfg.Q = 1e4 * config.Q
    corrupted = consequence_audit(data, bad_cfg, geo)
    assert float(np.nanmin(corrupted)) < -1.0

    # a potential well of depth 0.01 on (5, 40) is an instability
    unstable = stability_audit(data, potential_well(config, geo, 0.01), geo)
    assert not unstable["passed"]
    assert unstable["lambda_min"] < -4e-3


# ---------------------------------------------------------------------------
# 6. decay exponents
# ---------------------------------------------------------------------------

def test_decay_exponents(fine_setup):
    grid, geo, limit = fine_setup["grid"], fine_setup["geo"], \
        fine_setup["limit"]
    n, delta = 4, fine_setup["data"].delta
    r0 = fine_setup["r0"]
    window = (32.0 * r0, 0.5 * limit.outer_radius)

    slope_u = fit_decay_exponent(limit.profile(), grid, window).exponent
    assert slope_u <= -0.8                      # r^{3-n} with 0.2 slack

    xi = np.sqrt(xi_norm_sq(geo))
    slope_xi = fit_decay_exponent(xi, grid, window).exponent
    assert slope_xi <= -(2 * n - 3) + 0.3

    slope_R = fit_decay_exponent(geo.R_check, grid, window).exponent
    assert slope_R <= -(n + 2 * delta) + 0.3


# ---------------------------------------------------------------------------
# 7. mass extraction and positivity batch
# ---------------------------------------------------------------------------

def test_mass_positivity_batch():
    t0 = time.perf_counter()
    grid = build_grid(512.0, 1024, "uniform")
    alpha, _ = fit_alpha_profile(
        lambda r: 1.0 + 0.3 * r ** -2.0, 4, grid)
    assert abs(alpha - 0.3) < 1e-10

    vac = make_dataset("schwarzschild", 4, {"m": 1.0})
    alpha_vac, _ = fit_alpha(vac, grid)
    assert abs(alpha_vac - 1.0) < 0.01          # 2m/(n-2) = 1

    report = positivity_experiment(4, 20, seed=1, grid=default_grid())
    assert report["passed"]
    assert report["n_positive"] == 20
    assert all(row["alpha"] > 0.0 for row in report["rows"])
    assert time.perf_counter() - t0 < 20 * 60


# ---------------------------------------------------------------------------
# 8. determinism
# ---------------------------------------------------------------------------

def test_deterministic_artifacts(tmp_path):
    grid = build_grid(512.0, 1024, "uniform")
    shared = make_dataset("perturbed-dec", 4, DEC_PARAMS, grid=grid, seed=7)
    other = make_dataset("perturbed-dec", 4, DEC_PARAMS, grid=grid, seed=8)
    # a new dataset object, then one dataset object certified twice on the
    # grid with another dataset certified in between (unnamed: not compared),
    # then once more right after, on the frame the grid kept
    runs = [("one", make_dataset("perturbed-dec", 4, DEC_PARAMS, grid=grid,
                                 seed=7)),
            ("two", shared), (None, other), ("three", shared),
            ("four", shared)]
    names = []
    for name, data in runs:
        results = run_pipeline_on(data, grid, seed=7)
        if name is None:
            continue
        results["config_echo"] = {"seed": 7}
        emit_report(results, str(tmp_path / name))
        names.append(name)
    manifest = (tmp_path / "one" / "manifest.json").read_bytes()
    for name in names[1:]:
        assert (tmp_path / name / "manifest.json").read_bytes() == manifest
        for entry in json.loads(manifest)["files"]:
            assert ((tmp_path / name / entry["file"]).read_bytes()
                    == (tmp_path / "one" / entry["file"]).read_bytes())
