import copy
import dataclasses

import numpy as np
import pytest
from scipy.integrate import simpson

from janglab.capillary import CapillaryConfig, smoothstep
from janglab.errors import InadmissibleTestFunction, ShieldingFailure
from janglab.geometry import RadialFrame, make_dataset, scalar_curvature
from janglab.grids import RadialGrid, build_grid
from janglab.jang_metric import (PHI_POLE_THRESHOLD, build_graph_geometry,
                                 build_shielding, compact_bump,
                                 consequence_audit, neighborhood_audit,
                                 random_test_functions, schoen_yau_audit,
                                 shielding_audit, sphere_volume,
                                 stability_audit, xi_norm_sq)
from janglab.jang_solver import jang_operator
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


def test_build_shielding_rejects_undersized_collar(dec_data, cap_config,
                                                   graph_geo, base_grid):
    # forcing the pole into the grid where Q has already decayed makes the
    # reduced-density bullet fail, and the constructor refuses the result
    with pytest.raises(ShieldingFailure):
        build_shielding(dec_data, cap_config, graph_geo, width=5.0)


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

def test_stability_quadratic_form_nonnegative(dec_data, cap_config,
                                              jang_limit, graph_geo,
                                              base_grid):
    fns = random_test_functions(base_grid, 20, seed=7,
                                plateau_radius=0.6 * base_grid.r_max)
    report = stability_audit(dec_data, cap_config, graph_geo, fns)
    assert report["passed"]
    assert report["n_tested"] == 20
    assert report["min_relative"] >= -1e-8


def test_stability_constant_function(dec_data, cap_config, jang_limit,
                                     graph_geo, base_grid):
    report = stability_audit(dec_data, cap_config, graph_geo,
                             [lambda r: np.ones_like(r)])
    assert report["passed"]
    assert report["values"][0]["value"] > 0.0


def test_stability_rejects_nonconstant_tail(dec_data, cap_config, jang_limit,
                                            graph_geo, base_grid):
    with pytest.raises(InadmissibleTestFunction):
        stability_audit(dec_data, cap_config, graph_geo, [lambda r: r])


def test_random_test_functions_deterministic(base_grid):
    f1 = random_test_functions(base_grid, 3, seed=5, plateau_radius=100.0)
    f2 = random_test_functions(base_grid, 3, seed=5, plateau_radius=100.0)
    r = base_grid.nodes
    for a, b in zip(f1, f2):
        assert np.array_equal(a(r), b(r))
        assert np.max(np.abs(a(r)[r >= 100.0] - a(np.array([100.0])))) == 0.0


def test_compact_bump_support():
    bump = compact_bump(2.0, 5.0)
    r = np.linspace(0, 10, 1001)
    v = bump(r)
    assert np.all(v[(r <= 2.0) | (r >= 5.0)] == 0.0)
    assert np.max(v) > 0.99


def test_compact_bump_equals_the_full_grid_product():
    # the bump evaluates its smoothsteps on (lo, hi) only; every input,
    # sorted or not, array or scalar, gets the bits of the full product
    rng = np.random.default_rng(13)
    for _ in range(50):
        lo = float(rng.uniform(0.0, 50.0))
        hi = lo + float(rng.uniform(1e-3, 50.0))
        mid = 0.5 * (lo + hi)
        r = np.concatenate([rng.uniform(-5.0, 120.0, rng.integers(1, 400)),
                            [lo, hi, mid, np.nextafter(lo, hi),
                             np.nextafter(hi, lo)]])
        rng.shuffle(r)
        bump = compact_bump(lo, hi)
        for x in (r, np.sort(r), np.stack([r, r[::-1]]), r[0], float(r[1])):
            full = (smoothstep((np.asarray(x) - lo) / (mid - lo))
                    * smoothstep((hi - np.asarray(x)) / (hi - mid)))
            got = bump(x)
            assert type(got) is type(full)
            assert np.shape(got) == np.shape(full)
            assert np.asarray(got).tobytes() == np.asarray(full).tobytes()


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
