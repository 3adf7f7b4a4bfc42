import copy
import dataclasses

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import eigh_tridiagonal

import janglab.jang_metric
from janglab.barrier import default_r0_candidates, find_r0
from janglab.capillary import CapillaryConfig, select_capillary_config
from janglab.geometry import RadialFrame, make_dataset, scalar_curvature
from janglab.grids import RadialGrid, build_grid
from janglab.jang_metric import (PHI_POLE_THRESHOLD, build_graph_geometry,
                                 build_shielding, consequence_audit,
                                 neighborhood_audit, schoen_yau_audit,
                                 shielding_audit, sphere_volume,
                                 stability_audit, xi_norm_sq)
from janglab.jang_solver import exhaustion_solve, jang_operator
from janglab.pipeline import exhaustion_schedule
from janglab.profiles import SampledProfile


def _flat_setup(grid, q_const=1000.0, r0=2.0, s0=1.0, s1=8.0):
    data = make_dataset("flat", 4, {})
    q = np.full_like(grid.nodes, q_const)
    config = CapillaryConfig(r0=r0, kappa0=1.0, kappa1=1.0, Q=q, s0=s0,
                             s1=s1, tau=1e-8, n=4, delta=0.5)
    return data, config


# ---------------------------------------------------------------------------
# graph geometry
# ---------------------------------------------------------------------------

def test_zero_solution_reproduces_base_geometry(dec_data, cap_config,
                                                base_grid):
    u = np.zeros_like(base_grid.nodes)
    geo = build_graph_geometry(dec_data, cap_config, u, base_grid)
    assert np.array_equal(geo.g_check_rr, dec_data.a(base_grid.nodes))
    assert np.max(np.abs(geo.Xi_rad)) == 0.0
    R_base = scalar_curvature(dec_data, base_grid)
    assert np.array_equal(geo.R_check, R_base)
    assert np.max(np.abs(xi_norm_sq(geo))) == 0.0


def test_graph_metric_coefficient_and_theta(dec_data, cap_config, jang_limit,
                                            graph_geo, base_grid):
    r = base_grid.nodes
    a = dec_data.a(r)
    assert np.all(graph_geo.g_check_rr >= a)   # a + u'^2 >= a
    assert np.allclose(graph_geo.g_check_rr,
                       a + graph_geo.du ** 2)
    theta = cap_config.tau ** 2 * cap_config.zeta(r) ** 2 * jang_limit.u
    assert np.array_equal(graph_geo.Theta, theta)
    assert graph_geo.du[0] == 0.0     # even origin closure


def test_sphere_volume_known_values():
    assert abs(sphere_volume(4) - 2.0 * np.pi ** 2) < 1e-14
    assert abs(sphere_volume(3) - 4.0 * np.pi) < 1e-14


# ---------------------------------------------------------------------------
# pointwise identity
# ---------------------------------------------------------------------------

def test_identity_degenerate_case_exact():
    grid = build_grid(512.0, 1024, "uniform")
    data, config = _flat_setup(grid, q_const=1.0, r0=1.0, s0=0.25, s1=1.0)
    u = np.zeros_like(grid.nodes)
    geo = build_graph_geometry(data, config, u, grid)
    report = schoen_yau_audit(data, config, geo)
    assert report["max_rel_err"] < 1e-12


def test_identity_on_converged_solution(dec_data, cap_config, jang_limit,
                                        graph_geo, base_grid):
    report = schoen_yau_audit(dec_data, cap_config, graph_geo)
    assert report["max_rel_err"] < 1e-3
    assert report["max_rel_err"] < report["max_rel_err_coarse"]


def test_identity_audit_reads_the_given_geometry(dec_data, cap_config,
                                                graph_geo):
    # a copy whose graph curvature is scaled by 1.01, with its effective
    # curvature R_check/2 - |Xi|^2 + div Xi following, no longer satisfies
    # the identity on the working grid
    R = graph_geo.R_check
    scaled = dataclasses.replace(
        graph_geo, R_check=1.01 * R,
        effective=graph_geo.effective + 0.005 * R)
    base = schoen_yau_audit(dec_data, cap_config, graph_geo)
    report = schoen_yau_audit(dec_data, cap_config, scaled)
    assert report["max_rel_err"] > 10.0 * base["max_rel_err"]
    assert report["max_rel_err_coarse"] == base["max_rel_err_coarse"]


def test_identity_for_arbitrary_graph_with_matching_source():
    # the identity holds for any graph provided the source term equals the
    # operator value at that graph; feeding the operator value back in as
    # the source must reproduce it to truncation error
    errs = []
    for N in (1024, 2048):
        grid = build_grid(64.0, N, "uniform")
        data, config = _flat_setup(grid, q_const=1.0, r0=1.0, s0=0.25,
                                   s1=1.0)
        r = grid.nodes
        u = 0.5 * np.exp(-(r / 6.0) ** 2)
        theta = SampledProfile(grid, jang_operator(data, u, 1.0, grid))
        geo = build_graph_geometry(data, config, u, grid)
        report = schoen_yau_audit(data, config, geo, theta_override=theta)
        errs.append(report["max_rel_err"])
    assert errs[-1] < 1e-3
    assert np.log2(errs[0] / errs[1]) > 1.5


def test_identity_detects_wrong_source():
    grid = build_grid(64.0, 1024, "uniform")
    data, config = _flat_setup(grid, q_const=1.0, r0=1.0, s0=0.25, s1=1.0)
    r = grid.nodes
    u = 0.5 * np.exp(-(r / 6.0) ** 2)
    wrong = SampledProfile(grid, np.full_like(r, 0.1))
    geo = build_graph_geometry(data, config, u, grid)
    report = schoen_yau_audit(data, config, geo, theta_override=wrong)
    assert report["max_rel_err"] > 1e-2


# ---------------------------------------------------------------------------
# consequence and neighborhood audits
# ---------------------------------------------------------------------------

def test_consequence_margin_nonnegative(dec_data, cap_config, jang_limit,
                                        graph_geo, base_grid):
    margin = consequence_audit(dec_data, cap_config, graph_geo)
    scale = max(1.0, float(np.nanmax(np.abs(margin))))
    assert float(np.nanmin(margin)) >= -1e-8 * scale


def test_consequence_fails_for_corrupted_density(dec_data, cap_config,
                                                 jang_limit, graph_geo,
                                                 base_grid):
    # the identity's quadratic slack absorbs moderate corruption of Q, so
    # the constructed violation scales it by 1e4, which provably overshoots
    bad = copy.copy(cap_config)
    bad.Q = 1e4 * cap_config.Q
    margin = consequence_audit(dec_data, bad, graph_geo)
    assert float(np.nanmin(margin)) < -1.0


def test_neighborhood_audit_passes(dec_data, cap_config, jang_limit,
                                   base_grid, graph_geo):
    report = neighborhood_audit(dec_data, cap_config, graph_geo)
    assert report["passed"]
    assert report["solution_bound"]["sup"] <= report["solution_bound"]["bound"]
    assert report["collar_containment"]["passed"]
    assert report["collar_density"]["min_Q"] > report["collar_density"]["bound"]


def test_neighborhood_audit_flags_thin_collar(dec_data, cap_config,
                                              jang_limit, base_grid,
                                              graph_geo):
    bad = copy.copy(cap_config)
    bad.s1 = bad.s0     # collapses the density bound 128/(s1 s0)
    report = neighborhood_audit(dec_data, bad, graph_geo)
    assert not report["collar_density"]["passed"]


# ---------------------------------------------------------------------------
# shielding
# ---------------------------------------------------------------------------

def test_shielding_on_converged_solution(dec_data, cap_config, graph_geo,
                                         base_grid):
    sd = build_shielding(dec_data, cap_config, graph_geo)
    report = shielding_audit(sd, cap_config, base_grid)
    assert report["passed"]
    assert report["six"] == [True] * 6
    # the collar width exceeds the grid: no pole is reached and the weight
    # is finite everywhere
    assert sd.boundary_empty
    assert report["bullets"]["pole_at_boundary"]["vacuous"]
    r = base_grid.nodes
    on_E0 = r > cap_config.E0_threshold
    assert np.all(sd.Phi[on_E0] == 0.0)
    assert np.allclose(sd.Q_hat[on_E0], 0.5 * cap_config.Q[on_E0])


def synthetic_shielding_grid():
    nodes = np.linspace(0.0, 32.0, 65)
    nodes = np.sort(np.append(nodes, 6.0 + 1e-9))
    return RadialGrid(nodes, policy="synthetic")


def synthetic_shielding():
    grid = synthetic_shielding_grid()
    data, config = _flat_setup(grid)          # r0=2 -> E0 = {r > 16}, L = 10
    geo = build_graph_geometry(data, config, np.zeros_like(grid.nodes), grid)
    sd = build_shielding(data, config, geo, width=10.0)
    return data, config, geo, grid, sd


def test_synthetic_shielding_pole_in_grid():
    _, config, _, grid, sd = synthetic_shielding()
    report = shielding_audit(sd, config, grid)
    assert report["passed"]
    assert not sd.boundary_empty
    assert sd.E_outer_radius == 6.0
    # the node at depth width - 1e-9 sits against the pole
    i = int(np.argmin(np.abs(grid.nodes - (6.0 + 1e-9))))
    assert sd.Phi[i] < PHI_POLE_THRESHOLD
    assert not report["bullets"]["pole_at_boundary"]["vacuous"]


def test_synthetic_shielding_zeroed_weight_is_caught():
    _, config, _, grid, sd = synthetic_shielding()
    bad = copy.copy(sd)
    bad.Phi = np.zeros_like(grid.nodes)
    report = shielding_audit(bad, config, grid)
    assert not report["passed"]
    assert not report["bullets"]["pole_at_boundary"]["passed"]
    assert not report["bullets"]["reduced_density_bound"]["passed"]
    loc = report["bullets"]["reduced_density_bound"]["first_violation"]
    assert abs(loc["node_radius"] - (6.0 + 1e-9)) < 1e-6


def test_synthetic_shielding_shrunken_region_is_caught():
    _, config, _, grid, sd = synthetic_shielding()
    bad = copy.copy(sd)
    bad.E_outer_radius = 17.0        # "E" no longer contains E0 = {r > 16}
    report = shielding_audit(bad, config, grid)
    assert not report["bullets"]["contains_exterior"]["passed"]


def test_shielding_reports_a_nonpositive_reduced_density():
    # Q at one interior node makes Q + Phi^2/2 - 2|dPhi| = -1e-9: bullet 6
    # fails through its positivity alone, since Q_hat follows the new Q
    data, config, geo, grid, sd = synthetic_shielding()
    i = int(np.argmax((sd.d_profile > 0.0) & (sd.d_profile < sd.width)))
    dphi = abs(float(sd.dphi_of_d(sd.d_profile[i])))
    bad = copy.copy(config)
    bad.Q = config.Q.copy()
    bad.Q[i] = 2.0 * dphi - 0.5 * sd.Phi[i] ** 2 - 1e-9
    report = shielding_audit(build_shielding(data, bad, geo, width=10.0),
                             bad, grid)
    bullet = report["bullets"]["reduced_density_bound"]
    assert not bullet["passed"] and not report["six"][5]
    loc = bullet["first_violation"]
    assert loc["node_radius"] == grid.nodes[i]
    assert loc["x"] <= 0.0 and loc["x"] >= 2.0 * loc["q_hat"] - 1e-6


def test_undersized_collar_fails_the_shielding_audit(dec_data, cap_config,
                                                     graph_geo, base_grid):
    # forcing the pole into the grid where Q has already decayed makes the
    # reduced-density bullet fail; the construction itself does not judge
    sd = build_shielding(dec_data, cap_config, graph_geo, width=5.0)
    report = shielding_audit(sd, cap_config, base_grid)
    assert not report["passed"]
    assert not report["bullets"]["reduced_density_bound"]["passed"]


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

def potential_well(config, geo, depth, lo=5.0, hi=40.0):
    """A copy of config with Q = R_check/2 + depth on (lo, hi).

    The stability potential R_check/2 - Q is then -depth on the well.
    """
    r = geo.grid.nodes
    well = copy.copy(config)
    well.Q = np.where((r > lo) & (r < hi), 0.5 * geo.R_check + depth, config.Q)
    return well


def test_stability_quadratic_form_nonnegative(dec_data, cap_config,
                                              graph_geo):
    report = stability_audit(dec_data, cap_config, graph_geo)
    assert report["passed"]
    # the potential is positive at every node: nothing can fail
    assert report["vacuous"]
    assert report["lambda_min"] >= report["bound"]
    assert report["cross_check_gap"] <= report["cross_check_bound"]


@pytest.mark.parametrize("depth, below", [(0.01, -4e-3), (1.0, -0.9)])
def test_stability_fails_on_a_potential_well(dec_data, cap_config,
                                             graph_geo, depth, below):
    well = potential_well(cap_config, graph_geo, depth)
    report = stability_audit(dec_data, well, graph_geo)
    assert not report["passed"]
    assert not report["vacuous"]
    assert -depth < report["lambda_min"] < below
    # the eigenvector lives around the well, and the second opinion agrees
    assert report["support"][0] < 5.0 and report["support"][1] < 128.0
    assert report["cross_check_gap"] <= report["cross_check_bound"]


def test_stability_constant_function(dec_data, cap_config, graph_geo):
    # constants are admissible, so their Rayleigh quotient bounds lambda_min
    # from above, with or without a well
    r = graph_geo.grid.nodes
    vol = (np.sqrt(graph_geo.g_check_rr)
           * RadialFrame.on(dec_data, graph_geo.grid).f ** 3)
    for config in (cap_config, potential_well(cap_config, graph_geo, 0.01)):
        pot = 0.5 * graph_geo.R_check - config.Q
        quotient = simpson(pot * vol, x=r) / simpson(vol, x=r)
        report = stability_audit(dec_data, config, graph_geo)
        assert report["lambda_min"] <= quotient + 1e-12


def test_stability_rejects_nonconstant_tail(dec_data, cap_config, graph_geo):
    # admissible f are constant on r >= 0.9 r_max: a unit well on (470, 480)
    # is felt only through that constant, which spreads over the whole
    # plateau, while the same well at (270, 280) holds a localized mode
    tail = potential_well(cap_config, graph_geo, 1.0, 470.0, 480.0)
    inner = potential_well(cap_config, graph_geo, 1.0, 270.0, 280.0)
    lam_tail = stability_audit(dec_data, tail, graph_geo)["lambda_min"]
    lam_inner = stability_audit(dec_data, inner, graph_geo)["lambda_min"]
    assert -0.25 < lam_tail < -0.1
    assert lam_inner < -0.8


def test_stability_forces_zero_where_u_exceeds_the_budget(dec_data,
                                                          cap_config,
                                                          graph_geo):
    # the same well where |u| is at twice the smallness budget: admissible
    # functions vanish there, so the well cannot be felt
    r = graph_geo.grid.nodes
    u = graph_geo.u.values.copy()
    u[(r > 4.0) & (r < 41.0)] = 2.0 * cap_config.smallness_budget
    pushed = dataclasses.replace(
        graph_geo, u=SampledProfile(graph_geo.grid, u))
    well = potential_well(cap_config, graph_geo, 0.01)
    report = stability_audit(dec_data, well, pushed)
    assert report["passed"]
    assert report["vacuous"]
    assert report["support"][0] >= 41.0


def test_stability_cross_check_catches_a_wrong_eigenvalue(dec_data,
                                                          cap_config,
                                                          graph_geo,
                                                          monkeypatch):
    lowest = janglab.jang_metric._lowest_pair

    def shifted(*args):
        lam, vec, residual, certified = lowest(*args)
        return lam + 0.5 * abs(lam), vec, residual, certified
    monkeypatch.setattr(janglab.jang_metric, "_lowest_pair", shifted)
    well = potential_well(cap_config, graph_geo, 0.01)
    for config in (well, cap_config):
        report = stability_audit(dec_data, config, graph_geo)
        assert report["cross_check_gap"] > report["cross_check_bound"]
        assert not report["passed"]
    # on default data the shifted eigenvalue still clears the verdict bound:
    # the cross-check alone fails the audit
    assert report["lambda_min"] >= report["bound"]


def default_chain(n, n_intervals):
    """Data, capillary config and graph geometry of a default dataset."""
    grid = build_grid(512.0, n_intervals, "uniform")
    data = make_dataset("perturbed-dec", n, {"m": 1.0, "amplitude": 0.05},
                        grid=grid, seed=7)
    r0 = find_r0(data, grid, default_r0_candidates(grid))
    config = select_capillary_config(data, r0, grid)
    limit = exhaustion_solve(data, config,
                             exhaustion_schedule(r0, grid.r_max), grid)
    return data, config, build_graph_geometry(data, config, limit, grid)


def audit_counting_bisections(data, config, geo, monkeypatch):
    """stability_audit, and how many times it called eigh_tridiagonal."""
    calls = []
    eigh = janglab.jang_metric.eigh_tridiagonal

    def counted(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(janglab.jang_metric, "eigh_tridiagonal", counted)
        report = stability_audit(data, config, geo)
    return report, len(calls)


def audit_by_bisection(data, config, geo, monkeypatch):
    """stability_audit with its lowest pair from eigh_tridiagonal alone.

    This is the reference: LAPACK bisection and inverse iteration (stebz,
    stein) with the verdict lambda_min >= bound.  Also returns 8 u ||T||.
    """
    roundoffs = []

    def bisection(d, off, roundoff):
        roundoffs.append(roundoff)
        lam, vec = eigh_tridiagonal(d, off, select="i", select_range=(0, 0))
        return float(lam[0]), vec[:, 0], 0.0, False
    with monkeypatch.context() as m:
        m.setattr(janglab.jang_metric, "_lowest_pair", bisection)
        report = stability_audit(data, config, geo)
    return report, roundoffs[0]


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("n_intervals", [2048, 8192])
def test_lowest_pair_matches_bisection_on_default_data(n, n_intervals,
                                                       monkeypatch):
    data, config, geo = default_chain(n, n_intervals)
    report, bisections = audit_counting_bisections(data, config, geo,
                                                   monkeypatch)
    reference, roundoff = audit_by_bisection(data, config, geo, monkeypatch)
    # the factorisation certifies the pencil, so bisection never runs
    assert bisections == 0
    assert report["passed"] and reference["passed"]
    assert abs(report["lambda_min"] - reference["lambda_min"]) <= roundoff
    assert report["lambda_residual"] <= roundoff
    assert report["support"] == reference["support"]


@pytest.mark.parametrize("depth, lo, hi", [(0.01, 5.0, 40.0),
                                           (1.0, 5.0, 40.0),
                                           (1.0, 270.0, 280.0),
                                           (1.0, 470.0, 480.0)])
def test_lowest_pair_falls_back_to_bisection_on_wells(dec_data, cap_config,
                                                      graph_geo, depth, lo,
                                                      hi, monkeypatch):
    well = potential_well(cap_config, graph_geo, depth, lo, hi)
    report, bisections = audit_counting_bisections(dec_data, well, graph_geo,
                                                   monkeypatch)
    reference, _ = audit_by_bisection(dec_data, well, graph_geo, monkeypatch)
    assert bisections == 1
    for key in ("lambda_min", "support", "cross_check_gap", "passed"):
        assert report[key] == reference[key]
    assert not report["passed"]
    assert report["lambda_residual"] < 1e-12


def divergence_balance(data, geo, f_values):
    """Integral of div(f^2 Xi) over the grid in the graph metric.

    For admissible test functions (constant near the outer end) this must be
    small, because the divergence theorem reduces it to the outer boundary
    flux f^2 Xi^r sqrt(a_check) area(r_max), which decays like r^{2-n}.
    """
    grid = geo.grid
    a_check = geo.g_check_rr
    area = RadialFrame.on(data, grid).f ** (data.n - 1) * sphere_volume(data.n)
    flux = f_values ** 2 * geo.Xi_rad / np.sqrt(a_check) * area
    return float(simpson(grid.deriv1(flux), x=grid.nodes))


def test_divergence_balance_small(dec_data, graph_geo, base_grid):
    f = np.ones_like(base_grid.nodes)
    total = divergence_balance(dec_data, graph_geo, f)
    xi_sup = float(np.max(np.abs(graph_geo.Xi_rad)))
    assert abs(total) < 0.1 * max(xi_sup, 1e-300)
