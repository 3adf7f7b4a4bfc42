"""The in-place kernels write the bits of the expressions they replaced.

Each reference below is the expression the kernel had before it was written
in place (the stencils, the graph terms and their combination, the Newton
Jacobian) or restricted to the collar (the shielding construction), copied
here as it was.  Results are compared as bit patterns, so that a signed
zero or a NaN payload that differs counts.
"""

import numpy as np
import pytest

import janglab.jang_metric
from janglab.barrier import find_r0
from janglab.capillary import select_capillary_config
from janglab.geometry import (RadialFrame, graph_combination, graph_terms,
                              make_dataset)
from janglab.grids import _simpson, _simpson_weights, build_grid
from janglab.jang_metric import (ShieldingData, build_graph_geometry,
                                 build_shielding, shielding_audit)
from janglab.jang_solver import _System, exhaustion_solve


def same_bits(x, y):
    x, y = np.ascontiguousarray(x, float), np.ascontiguousarray(y, float)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64),
                                                 y.view(np.uint64))


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------

def reference_apply(grid, values, which):
    weights = grid._weights()
    w, (first, last) = weights[which], weights[2][which]
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[1:-1] = w[0] * v[:-2] + w[1] * v[1:-1] + w[2] * v[2:]
    out[0] = first @ v[:3]
    out[-1] = last @ v[-3:]
    return out


GRIDS = {
    "uniform": lambda: build_grid(512.0, 2048),
    "geometric": lambda: build_grid(512.0, 2048, "geometric", 1.001),
    "odd-N": lambda: build_grid(512.0, 2047, "geometric", 1.002),
    "truncated-at-node": lambda: build_grid(512.0, 2048).truncate(128.0),
    "truncated-between-nodes": lambda: build_grid(512.0, 2048).truncate(
        100.1),
}


def stencil_inputs(r):
    """Smooth values, values with signed zeros, NaN and infinities, and a
    vector of negative zeros."""
    rng = np.random.default_rng(3)
    smooth = np.exp(-r / 40.0) * np.cos(r) + 1e-3 * rng.standard_normal(r.size)
    special = rng.standard_normal(r.size) * 10.0 ** rng.integers(
        -300, 300, r.size)
    special[::7] = 0.0
    special[3::7] = -0.0
    special[[5, 50, -2]] = np.nan, np.inf, -np.inf
    return smooth, special, np.full(r.size, -0.0)


@pytest.mark.parametrize("which", [0, 1], ids=["deriv1", "deriv2"])
@pytest.mark.parametrize("make", GRIDS.values(), ids=GRIDS.keys())
def test_stencils_write_the_bits_of_the_summed_products(make, which):
    grid = make()
    for values in stencil_inputs(grid.nodes):
        with np.errstate(all="ignore"):
            got = (grid.deriv1, grid.deriv2)[which](values)
            want = reference_apply(grid, values, which)
        assert same_bits(got, want)


@pytest.mark.parametrize("make", GRIDS.values(), ids=GRIDS.keys())
def test_kept_simpson_weights_integrate_as_the_nodes_do(make):
    grid = make()
    r = grid.nodes
    for y in stencil_inputs(r)[:1] + (np.sqrt(1.0 + r),):
        assert same_bits(_simpson(y, r, _simpson_weights(r)), _simpson(y, r))


# ---------------------------------------------------------------------------
# graph terms, their combination and the Newton Jacobian
# ---------------------------------------------------------------------------

def reference_graph_terms(frame, p, s):
    a = frame.a
    P = 1.0 + p ** 2 / a
    return P, P ** -1.5, P ** -0.5, s - frame.da / (2.0 * a) * p


def reference_graph_combination(frame, t, lam):
    return (t.P_m32 * t.hess / frame.a - lam * frame.q_rad / t.P
            + (frame.n - 1) * (t.P_m12 * frame.warp_a * t.p
                               - lam * frame.q_tan))


def reference_tridiagonal(system, t, lam):
    frame, grid = system.frame, system.grid
    n = frame.n
    a, da, warp, qr = frame.a, frame.da, frame.warp_a, frame.q_rad
    d1, d2, _ = grid._weights()
    p, P, hess = t.p, t.P, t.hess
    a1 = da / (2.0 * a)

    dF_ds = t.P_m32 / a
    dF_dp = ((-3.0 * (p / a) * P ** -2.5 * hess - t.P_m32 * a1) / a
             + lam * qr * P ** -2.0 * (2.0 * p / a)
             + (n - 1) * warp * (t.P_m12 - p ** 2 * t.P_m32 / a))

    ds, dp = dF_ds[1:-1], dF_dp[1:-1]
    m = p.size
    sub, diag, sup = np.empty(m - 1), np.empty(m), np.empty(m - 1)
    sub[:-1] = ds * d2[0] + dp * d1[0]
    diag[1:-1] = ds * d2[1] + dp * d1[1] - system.cap[1:-1]
    sup[1:] = ds * d2[2] + dp * d1[2]
    k = 2.0 * n / (grid.nodes[1] ** 2 * a[0])
    diag[0] = -k - system.cap[0]
    sup[0] = k
    diag[-1] = 1.0
    sub[-1] = 0.0
    return sub, diag, sup


@pytest.fixture(scope="module")
def iterate(dec_data, cap_config, base_grid):
    """The system at the first exhaustion radius and the iterate after one
    Newton step from zero at lambda = 1."""
    grid = base_grid.truncate(64.0 * cap_config.r0)
    system = _System(RadialFrame.on(dec_data, grid), cap_config, grid)
    w = np.zeros_like(grid.nodes)
    t = system.terms(w)
    w = w + system.newton_step(t, 1.0, system.residual(w, t, 1.0))
    assert np.max(np.abs(w)) > 0.0
    return system, w


def test_graph_terms_write_the_bits_of_their_expressions(iterate):
    system, w = iterate
    p, s = system.grid.deriv1(w), system.grid.deriv2(w)
    t = graph_terms(system.frame, p, s)
    want = reference_graph_terms(system.frame, p, s)
    for got, ref in zip((t.P, t.P_m32, t.P_m12, t.hess), want):
        assert same_bits(got, ref)
    assert t.p is p


@pytest.mark.parametrize("lam", [1.0, 0.3, 0.0, -1.0])
def test_combination_and_jacobian_write_the_bits_of_their_expressions(
        iterate, lam):
    system, w = iterate
    t = system.terms(w)
    want = reference_graph_combination(system.frame, t, lam)
    assert same_bits(graph_combination(system.frame, t, lam), want)
    assert same_bits(graph_combination(system.frame, t, lam,
                                       system.lam_q(lam)), want)
    for got, ref in zip(system.tridiagonal(t, lam),
                        reference_tridiagonal(system, t, lam)):
        assert same_bits(got, ref)


def test_the_coupling_is_formed_again_for_a_zero_of_the_other_sign(iterate):
    system, _ = iterate
    plus, minus = system.lam_q(0.0), system.lam_q(-0.0)
    assert same_bits(minus[0], -0.0 * system.frame.q_rad)
    assert not same_bits(plus[0], minus[0])


# ---------------------------------------------------------------------------
# the shielding construction on the collar
# ---------------------------------------------------------------------------

def reference_shielding(data, config, geo, width=None):
    grid = geo.grid
    r = grid.nodes
    L = config.collar_width_total if width is None else float(width)
    t = min(2.0 * config.s0, 0.5 * L)
    d = janglab.jang_metric._distance_to_exterior(data, geo,
                                                  config.E0_threshold, "check")
    sd = ShieldingData(
        E_outer_radius=0.0, Phi=None, Q_hat=None, d_profile=d, width=L,
        transition=t, boundary_empty=bool(d[0] < L))
    in_E = d < L
    phi = np.where(in_E, sd.phi_of_d(np.minimum(d, L * (1.0 - 1e-15))), -np.inf)
    dphi = np.where(in_E, sd.dphi_of_d(np.minimum(d, L * (1.0 - 1e-15))), 0.0)
    q = config.Q
    x = q + 0.5 * phi ** 2 - 2.0 * np.abs(dphi)
    sd.Phi = np.where(in_E, phi, 0.0)
    sd.Q_hat = np.where(d > 0.0, 0.5 * x, 0.5 * q)
    if not sd.boundary_empty:
        outside = r[~in_E]
        sd.E_outer_radius = float(np.max(outside)) if outside.size else 0.0
    return sd


@pytest.fixture(scope="module", params=[4, 5, 6], ids=["n4", "n5", "n6"])
def default_run(request):
    """Data, config and graph geometry of the default run in dimension n
    (seed 7, N = 2048 on [0, 512])."""
    n = request.param
    grid = build_grid(512.0, 2048)
    data = make_dataset("perturbed-dec", n, {"m": 1.0, "amplitude": 0.05},
                        grid=grid, seed=7)
    r0 = find_r0(data, grid, [1.0, 2.0, 4.0, 8.0])
    config = select_capillary_config(data, r0, grid)
    limit = exhaustion_solve(data, config, [64.0 * r0, 128.0 * r0,
                                            256.0 * r0], grid)
    return data, config, build_graph_geometry(data, config, limit, grid)


def assert_same_shielding(got, want):
    assert same_bits(got.Phi, want.Phi)
    assert same_bits(got.Q_hat, want.Q_hat)
    assert same_bits(got.d_profile, want.d_profile)
    assert (got.E_outer_radius, got.width, got.transition,
            got.boundary_empty) == (want.E_outer_radius, want.width,
                                    want.transition, want.boundary_empty)


def pole_inside(data, config, geo):
    """A width that puts the pole at half the depth of the origin."""
    d = janglab.jang_metric._distance_to_exterior(data, geo,
                                                  config.E0_threshold, "check")
    return 0.5 * float(d[0])


def test_shielding_on_the_collar_is_the_full_grid_construction(default_run):
    data, config, geo = default_run
    got = build_shielding(data, config, geo)
    assert got.boundary_empty
    assert_same_shielding(got, reference_shielding(data, config, geo))


def test_shielding_with_its_pole_inside_the_grid(default_run):
    data, config, geo = default_run
    width = pole_inside(data, config, geo)
    got = build_shielding(data, config, geo, width=width)
    want = reference_shielding(data, config, geo, width=width)
    assert not got.boundary_empty and got.E_outer_radius > 0.0
    assert np.isinf(want.Q_hat[0]) and got.Phi[0] == 0.0
    assert_same_shielding(got, want)
    assert shielding_audit(got, config, geo.grid) == shielding_audit(
        want, config, geo.grid)


@pytest.mark.parametrize("pole", [False, True], ids=["E-covers-grid",
                                                     "pole-inside"])
def test_shielding_with_a_depth_that_is_not_a_number(default_run,
                                                     monkeypatch, pole):
    data, config, geo = default_run
    width = pole_inside(data, config, geo) if pole else None
    depth = janglab.jang_metric._distance_to_exterior

    def holed(*args):
        d = depth(*args).copy()
        # the origin, a node in the collar 0 < d < L and one on E0 (d = 0)
        collar = np.flatnonzero(d > 0.0)
        d[[0, collar[-1], collar[-1] + 5]] = np.nan
        return d
    monkeypatch.setattr(janglab.jang_metric, "_distance_to_exterior", holed)
    got = build_shielding(data, config, geo, width=width)
    assert np.isnan(got.d_profile).sum() == 3
    assert_same_shielding(got, reference_shielding(data, config, geo,
                                                   width=width))
