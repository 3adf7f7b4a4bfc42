import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from hypothesis import given, settings
from hypothesis import strategies as st

import janglab.geometry
from janglab.barrier import BarrierProfile, barrier_inequality_audit, find_r0
from janglab.errors import (DecViolation, GenerationFailure, InvalidArgument,
                            NumericalDegeneracy)
from janglab.geometry import (RadialFrame, RadialInitialData, _conformal_power,
                              _even_gaussian, _tail_sum_profile,
                              constraint_fields,
                              dataset_from_json, dataset_from_samples,
                              dq_frame_norm, evaluate_constraint_fields,
                              geodesic_distance, make_dataset,
                              radius_at_distance, ricci_eigenvalues,
                              scalar_curvature, validate_dataset)
from janglab.grids import build_grid
from janglab.profiles import AnalyticProfile, constant_profile


def closed_forms(f, d1, d2):
    """The analytic profile whose jet reads three separate closed forms."""
    return AnalyticProfile(lambda r, order: tuple(
        fn(r) for fn in (f, d1, d2)[:order + 1]))


def sphere_dataset(n, n_intervals=512):
    """Round unit sphere: a = 1, c = (sin r / r)^2, closed-form derivatives."""
    def c(r):
        s = np.sinc(r / np.pi)          # sin r / r, regular at 0
        return s ** 2

    def dc(r):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = 2.0 * np.sin(r) * (r * np.cos(r) - np.sin(r)) / r ** 3
        return np.where(r == 0.0, 0.0, out)

    def d2c(r):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = 2.0 * ((r * np.cos(r) - np.sin(r)) ** 2
                         + np.sin(r) * (2.0 * np.sin(r) - 2.0 * r * np.cos(r)
                                        - r ** 2 * np.sin(r))) / r ** 4
        return np.where(r == 0.0, -2.0 / 3.0, out)

    grid = build_grid(3.0, n_intervals, "uniform")
    prof = closed_forms(c, dc, d2c)
    data = dataset_from_samples(grid, np.ones_like(grid.nodes),
                                prof(grid.nodes),
                                np.zeros_like(grid.nodes),
                                np.zeros_like(grid.nodes), n=n)
    return data, grid


# ---------------------------------------------------------------------------
# scalar curvature
# ---------------------------------------------------------------------------

def test_flat_scalar_curvature_vanishes(flat_data, base_grid):
    R = scalar_curvature(flat_data, base_grid)
    assert np.max(np.abs(R)) < 1e-12


@pytest.mark.parametrize("n", [4, 5])
def test_exact_vacuum_family_is_scalar_flat(n):
    # a = c = (1 + (m/2) r^{2-n})^{4/(n-2)} is scalar-flat away from r = 0
    grid = build_grid(512.0, 2048, "uniform")
    data = make_dataset("schwarzschild", n, {"m": 1.0})
    R = scalar_curvature(data, grid)
    assert np.isnan(R[0])               # origin-singular family
    assert np.max(np.abs(R[1:])) < 1e-10


def _conformal_laplacian_oracle(m, n, r):
    """Independent curvature formula for a = c = phi^{4/(n-2)} over flat space:

        R = -(4(n-1)/(n-2)) phi^{-(n+2)/(n-2)} (phi'' + (n-1) phi'/r)

    derived from the conformal transformation law of scalar curvature, a
    route that shares nothing with the warped-product implementation.
    """
    w = 1.0 + r ** 2
    k = -(n - 2) / 2.0
    phi = 1.0 + 0.5 * m * w ** k
    dphi = m * k * r * w ** (k - 1.0)
    d2phi = m * k * (w ** (k - 1.0) + 2.0 * (k - 1.0) * r ** 2 * w ** (k - 2.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        lap = d2phi + (n - 1) * dphi / r
    lap = np.where(r == 0.0, n * m * k, lap)   # even limit: n phi''(0)
    cn = 4.0 * (n - 1) / (n - 2)
    return -cn * phi ** (-(n + 2.0) / (n - 2.0)) * lap


@pytest.mark.parametrize("n", [4, 5, 6])
def test_curvature_matches_conformal_laplacian_oracle(n):
    grid = build_grid(64.0, 512, "uniform")
    data = make_dataset("perturbed-dec", n, {"m": 1.3, "amplitude": 0.0},
                        grid=grid, seed=3)
    R = scalar_curvature(data, grid)
    oracle = _conformal_laplacian_oracle(1.3, n, grid.nodes)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(R - oracle)) < 1e-9 * scale


def test_sphere_curvature_constant_with_second_order_convergence():
    errs = []
    for N in (256, 512):
        data, grid = sphere_dataset(4, N)
        R = scalar_curvature(data, grid)
        sel = grid.nodes <= 2.8   # fixed region away from the boundary, where
        errs.append(np.max(np.abs(R - 12.0)[sel]))  # spline derivs degrade
    assert errs[1] < 1e-3
    assert np.log2(errs[0] / errs[1]) > 1.9


# ---------------------------------------------------------------------------
# constraint fields
# ---------------------------------------------------------------------------

def test_momentum_pure_trace_oracle():
    # For q = lambda(r) g the momentum one-form is exactly (1-n) d(lambda):
    # J = div(q - (tr q) g) = div((1-n) lambda g) = (1-n) d(lambda),
    # so the radial frame component is (1-n) lambda'(r)/sqrt(a).
    grid = build_grid(64.0, 512, "uniform")
    n = 5
    lam = closed_forms(lambda r: np.exp(-(r / 3.0) ** 2),
                       lambda r: -2.0 * r / 9.0 * np.exp(-(r / 3.0) ** 2),
                       lambda r: (4.0 * r ** 2 / 81.0 - 2.0 / 9.0)
                       * np.exp(-(r / 3.0) ** 2))
    base = make_dataset("perturbed-dec", n, {"m": 1.0, "amplitude": 0.0},
                        grid=grid, seed=0)
    data = dataset_from_samples(grid, base.a(grid.nodes), base.c(grid.nodes),
                                lam(grid.nodes), lam(grid.nodes), n=n)
    data.q_rad = lam
    data.q_tan = lam
    fields = constraint_fields(data, grid)
    r = grid.nodes
    oracle = (1 - n) * lam.deriv1(r) / np.sqrt(base.a(r))
    assert np.max(np.abs(fields.J_rad - oracle)) < 1e-12


def test_momentum_flat_metric_oracle():
    # On flat space with frame eigenvalues (q_r, q_t) a direct divergence
    # computation in polar coordinates gives
    #   J_rad = (n-1) [ (q_r - q_t)/r - q_t' ].
    grid = build_grid(32.0, 512, "uniform")
    n = 4
    qr = closed_forms(lambda r: np.exp(-r ** 2),
                      lambda r: -2.0 * r * np.exp(-r ** 2),
                      lambda r: (4.0 * r ** 2 - 2.0) * np.exp(-r ** 2))
    qt = closed_forms(lambda r: (1.0 + r ** 2) * np.exp(-r ** 2),
                      lambda r: -2.0 * r ** 3 * np.exp(-r ** 2),
                      lambda r: (4.0 * r ** 4 - 6.0 * r ** 2)
                      * np.exp(-r ** 2))
    data = make_dataset("flat", n, {})
    data.q_rad, data.q_tan = qr, qt
    fields = constraint_fields(data, grid)
    r = grid.nodes[1:]
    oracle = (n - 1) * ((qr(r) - qt(r)) / r - qt.deriv1(r))
    assert np.max(np.abs(fields.J_rad[1:] - oracle)) < 1e-12
    assert fields.J_rad[0] == 0.0


def test_energy_density_definition():
    # mu = (R - |q|^2 + (tr q)^2)/2 with the frame reductions of the norms
    grid = build_grid(32.0, 256, "uniform")
    data = make_dataset("perturbed-dec", 4, {"m": 1.0, "amplitude": 0.05},
                        grid=grid, seed=11)
    fields = constraint_fields(data, grid)
    r = grid.nodes
    q2 = data.q_rad(r) ** 2 + 3.0 * data.q_tan(r) ** 2
    tr = data.q_rad(r) + 3.0 * data.q_tan(r)
    assert np.allclose(fields.mu,
                       0.5 * (fields.R_g - q2 + tr ** 2), atol=1e-14)
    assert np.allclose(fields.margin, fields.mu - np.abs(fields.J_rad))


def test_frame_norm_and_trace():
    grid = build_grid(32.0, 64, "uniform")
    data = make_dataset("perturbed-dec", 5, {"m": 1.0, "amplitude": 0.05},
                        grid=grid, seed=2)
    r = grid.nodes
    qr, qt = data.q_rad(r), data.q_tan(r)
    assert np.allclose(RadialFrame(data, r).q_norm,
                       np.sqrt(qr ** 2 + 4.0 * qt ** 2))


def test_dq_norm_pure_trace_oracle():
    # q = lambda g on flat space: |Dq|^2 = n |d lambda|^2 = n lambda'^2
    grid = build_grid(32.0, 512, "uniform")
    n = 4
    lam = closed_forms(lambda r: np.exp(-r ** 2),
                       lambda r: -2.0 * r * np.exp(-r ** 2),
                       lambda r: (4.0 * r ** 2 - 2.0) * np.exp(-r ** 2))
    data = make_dataset("flat", n, {})
    data.q_rad = data.q_tan = lam
    got = dq_frame_norm(data, grid)
    oracle = np.sqrt(n) * np.abs(lam.deriv1(grid.nodes))
    assert np.max(np.abs(got - oracle)) < 1e-12


def test_ricci_eigenvalues_sum_to_scalar_curvature():
    grid = build_grid(64.0, 512, "uniform")
    data = make_dataset("perturbed-dec", 4, {"m": 1.2, "amplitude": 0.03},
                        grid=grid, seed=5)
    ric_rad, ric_tan = ricci_eigenvalues(data, grid)
    R = scalar_curvature(data, grid)
    assert np.allclose(ric_rad + 3.0 * ric_tan, R, rtol=1e-10, atol=1e-12)
    # smooth center: all eigenvalues equal R/n
    assert abs(ric_rad[0] - R[0] / 4.0) < 1e-12
    assert abs(ric_tan[0] - R[0] / 4.0) < 1e-12


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_flat_geodesic_distance_is_euclidean(flat_data):
    assert abs(geodesic_distance(flat_data, 1.0, 5.0) - 4.0) < 1e-12


@given(r1=st.floats(0.0, 10.0), r2=st.floats(0.0, 10.0), r3=st.floats(0.0, 10.0))
@settings(max_examples=25, deadline=None)
def test_geodesic_distance_additivity(r1, r2, r3):
    a, b, c = sorted([r1, r2, r3])
    data2 = make_dataset("conformal", 4, {"alpha": 0.4})
    d_ab = geodesic_distance(data2, a, b)
    d_bc = geodesic_distance(data2, b, c)
    d_ac = geodesic_distance(data2, a, c)
    assert abs(d_ab + d_bc - d_ac) < 1e-8 * max(1.0, d_ac)


def test_radius_at_distance_inverts_distance():
    data = make_dataset("conformal", 4, {"alpha": 0.4})
    r_in = radius_at_distance(data, 10.0, 3.0)
    assert 0.0 < r_in < 10.0
    assert abs(geodesic_distance(data, r_in, 10.0) - 3.0) < 1e-8


def _bisected_radius(data, r_start, dist):
    """Radius at distance `dist` inward of r_start, by plain bisection."""
    def dist_to(r):
        return quad(lambda s: math.sqrt(float(data.a(s))), r, r_start,
                    epsrel=1e-10, epsabs=1e-14, limit=200)[0]

    lo, hi = 0.0, r_start
    while hi - lo >= 1e-12 * max(1.0, r_start):
        mid = 0.5 * (lo + hi)
        if dist_to(mid) > dist:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("r_start,dist", [(8.0, 0.5), (8.0, 4.0), (2.0, 0.3),
                                          (4.0, 1.0)])
def test_radius_at_distance_matches_bisection(dec_data, r_start, dist):
    # both stop within 1e-12 max(1, r_start) of the root of the same quad
    # distance, which at these collar radii leaves them 2e-11 apart at most
    got = radius_at_distance(dec_data, r_start, dist)
    assert abs(got - _bisected_radius(dec_data, r_start, dist)) <= 2e-11


def test_collar_search_is_cheap(dec_data, r0):
    # the shielding collar's inner edge, r0/2 inward of 8 r0: a few Newton
    # steps, each one short quadrature
    calls = []

    class Counted:
        def __call__(self, r):
            calls.append(r)
            return dec_data.a(r)

    data = copy.copy(dec_data)
    data.a = Counted()
    got = radius_at_distance(data, 8.0 * r0, 0.5 * r0)
    assert len(calls) <= 120
    assert abs(got - _bisected_radius(dec_data, 8.0 * r0, 0.5 * r0)) <= 2e-11


@pytest.mark.parametrize("fraction", [0.5, 0.999, 1.001])
def test_radius_at_distance_near_the_origin(fraction):
    # a decreasing a makes the first Newton step from r_start overshoot the
    # origin when dist is close to L(0); the search then brackets from 0
    data = make_dataset("conformal", 4, {"alpha": 0.4})
    dist = fraction * geodesic_distance(data, 0.0, 2.0)
    got = radius_at_distance(data, 2.0, dist)
    if fraction > 1.0:
        assert got == 0.0
    else:
        assert abs(got - _bisected_radius(data, 2.0, dist)) <= 2e-11


def test_radius_at_distance_clips_at_origin():
    data = make_dataset("flat", 4, {})
    assert radius_at_distance(data, 2.0, 100.0) == 0.0


@pytest.mark.parametrize("family,n,params", [
    ("perturbed-dec", 4, {"m": 1.0, "amplitude": 0.05}),
    ("perturbed-dec", 5, {"m": 1.0, "amplitude": 0.05}),
    ("perturbed-dec", 6, {"m": 1.0, "amplitude": 0.05}),
    ("conformal", 4, {"alpha": 0.4, "beta": 0.2}),
    ("schwarzschild", 5, {"m": 2.0}),
])
def test_length_quadrature_matches_scipy_quad(base_grid, family, n, params):
    # the adaptive Gauss-Kronrod lengths agree with QUADPACK's to 1e-12
    # relative, on short collar-sized segments and across the whole grid
    data = make_dataset(family, n, params, grid=base_grid, seed=3)
    for lo, hi in ((0.25, 2.0), (3.0, 3.5), (7.5, 8.0), (0.5, 512.0),
                   (8.0, 8.0 + 1e-9)):
        want = quad(lambda s: math.sqrt(float(data.a(s))), lo, hi,
                    epsrel=1e-11, epsabs=0.0, limit=200)[0]
        got = geodesic_distance(data, lo, hi)
        assert abs(got - want) <= 1e-12 * want, (lo, hi)


def test_length_quadrature_meets_its_tolerance_on_sampled_data():
    # a spline's third derivative jumps at every node, where QUADPACK's
    # length over the whole grid is off by 3e-11 relative; the reference is
    # 20-point Gauss-Legendre on each spline interval, where sqrt(a) is smooth
    grid = build_grid(64.0, 256, "geometric", stretch=1.01)
    r = grid.nodes
    a = 1.0 + 0.3 * np.exp(-r ** 2 / 8.0) + 0.5 / (1.0 + r) ** 2
    zero = np.zeros_like(r)
    data = dataset_from_samples(grid, a, a, zero, zero, n=4)
    x, w = np.polynomial.legendre.leggauss(20)
    for lo, hi in ((0.25, 2.0), (7.5, 8.0), (0.0, 10.0), (0.0, 64.0)):
        edges = np.concatenate(([lo], r[(r > lo) & (r < hi)], [hi]))
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        f = np.sqrt(data.a(mid[:, None] + half[:, None] * x))
        want = float(np.sum(half * (f @ w)))
        assert abs(geodesic_distance(data, lo, hi) - want) <= 1e-11 * want


def test_length_quadrature_raises_past_its_panel_budget():
    # sqrt(a) = |r - 4/3|^-0.9 is integrable, but bisection cannot reach
    # 1e-11 relative within 200 panels; QUADPACK only warns there
    data = copy.copy(make_dataset("flat", 4, {}))
    data.a = lambda r: np.abs(np.asarray(r) - 4.0 / 3.0) ** -1.8
    with pytest.raises(NumericalDegeneracy, match="200 quadrature panels"):
        geodesic_distance(data, 0.5, 2.5)


def test_length_quadrature_rejects_a_non_finite_metric():
    data = copy.copy(make_dataset("flat", 4, {}))
    data.a = lambda r: 1.0 - np.asarray(r)        # negative beyond r = 1
    with pytest.raises(NumericalDegeneracy, match="not finite"):
        geodesic_distance(data, 0.5, 2.0)


# ---------------------------------------------------------------------------
# families, validation, serialization
# ---------------------------------------------------------------------------

def test_perturbed_dec_has_positive_margin(dec_data, base_grid):
    fields = constraint_fields(dec_data, base_grid)
    assert np.min(fields.margin) > 0.0
    assert np.all(np.isfinite(fields.margin))


def halving_reference(n, params, grid, seed):
    """The perturbed-dec rescale loop with a fresh frame per trial: every
    coefficient, the metric's and q's, evaluated from the trial's profiles.
    Returns the accepted dataset and its constraint fields."""
    m, amplitude = params["m"], params["amplitude"]
    rng = np.random.default_rng(seed)
    base = _conformal_power(m, n, regularized=True)
    width = float(rng.uniform(1.5, 3.5))
    a0 = float(rng.uniform(-1.0, 1.0))
    a2r = float(rng.uniform(-1.0, 1.0))
    a2t = float(rng.uniform(-1.0, 1.0))
    eps = amplitude
    for _ in range(40):
        data = RadialInitialData(
            n=n, a=base, c=base,
            q_rad=_even_gaussian(eps * a0, eps * a2r, width),
            q_tan=_even_gaussian(eps * a0, eps * a2t, width),
            alpha_decl=2.0 * m / (n - 2), family="perturbed-dec",
            params={"m": m, "amplitude": amplitude}, seed=seed)
        fields = evaluate_constraint_fields(RadialFrame(data, grid.nodes))
        if np.min(fields.margin) > 0.0:
            return data, fields
        eps *= 0.5
    raise GenerationFailure("no positive DEC margin in 40 rescales")


# (n, N, seed): 3, 0, 4, 8 and 11 rescales
@pytest.mark.parametrize("n,N,seed", [(4, 2048, 7), (5, 8192, 3),
                                      (5, 2048, 11), (6, 2048, 7),
                                      (6, 8192, 98)])
def test_generation_matches_the_halving_reference(n, N, seed):
    grid = build_grid(512.0, N, "uniform")
    params = {"m": 1.0, "amplitude": 0.05}
    want, want_fields = halving_reference(n, params, grid, seed)
    data = make_dataset("perturbed-dec", n, params, grid=grid, seed=seed)
    got = constraint_fields(data, grid)
    r = grid.nodes
    # the same accepted eps, and the same bits in every constraint field
    for name in ("q_rad", "q_tan"):
        assert (getattr(data, name)(r).tobytes()
                == getattr(want, name)(r).tobytes())
    for name in ("R_g", "mu", "J_rad", "margin"):
        assert (getattr(got, name).tobytes()
                == getattr(want_fields, name).tobytes())


def test_generation_evaluates_the_metric_once(monkeypatch):
    grid = build_grid(512.0, 8192, "uniform")
    calls, curvatures = [], []
    for name in ("__call__", "deriv1", "deriv2", "jet"):
        def counted(self, r, *order, fn=getattr(AnalyticProfile, name),
                    name=name):
            calls.append((self, name, order, np.size(r)))
            return fn(self, r, *order)
        monkeypatch.setattr(AnalyticProfile, name, counted)
    warped = janglab.geometry.warped_scalar_curvature

    def counted_curvature(frame, *args):
        curvatures.append(frame)
        return warped(frame, *args)
    monkeypatch.setattr(janglab.geometry, "warped_scalar_curvature",
                        counted_curvature)
    # seed 98 takes 11 rescales
    data = make_dataset("perturbed-dec", 6, {"m": 1.0, "amplitude": 0.05},
                        grid=grid, seed=98)
    # one jet of a gives a, a' and c'' = a''; the curvature is evaluated
    # once, and every rescale reads it
    metric = [(name, order) for prof, name, order, size in calls
              if prof is data.a and size == grid.nodes.size]
    assert metric == [("jet", (2,))]
    assert len(curvatures) == 1
    frame = RadialFrame.on(data, grid)
    assert frame.c is frame.a and frame.dc is frame.da
    # the dataset returned evaluates its own q, one jet each, on the
    # metric kept
    calls.clear()
    assert np.min(constraint_fields(data, grid).margin) > 0.0
    assert len(calls) == 2
    assert {(prof, name, order) for prof, name, order, _ in calls} == {
        (data.q_rad, "jet", (1,)), (data.q_tan, "jet", (1,))}
    assert len(curvatures) == 1 and frame.R is constraint_fields(
        data, grid).R_g
    # the barrier stage reads the grid's frame and evaluates no profile
    calls.clear()
    r0 = find_r0(data, grid, [1.0, 2.0, 4.0, 8.0])
    barrier_inequality_audit(data, BarrierProfile(r0=r0, n=6), grid)
    assert calls == []


def test_generation_fails_fast_where_q_vanishes():
    # n = 7: beyond r ~ 75 q is exactly 0, and R/2 rounds below 0 at 222.06
    grid = build_grid(512.0, 8192, "uniform")
    with pytest.raises(GenerationFailure,
                       match=r"at r = 222\.06, where q vanishes"):
        make_dataset("perturbed-dec", 7, {"m": 1.0, "amplitude": 0.05},
                     grid=grid, seed=7)


def test_generation_failure_names_the_smallest_margin(monkeypatch):
    fresh = janglab.geometry.evaluate_constraint_fields

    def lowered(frame):
        fields = fresh(frame)
        margin = fields.margin.copy()
        margin[40] = -1.0       # r = 10, where q does not vanish
        return dataclasses.replace(fields, margin=margin)
    monkeypatch.setattr(janglab.geometry, "evaluate_constraint_fields", lowered)
    with pytest.raises(GenerationFailure,
                       match=r"margin -1 at r = 10\.00 after 40 rescales"):
        make_dataset("perturbed-dec", 4, {"m": 1.0, "amplitude": 0.05},
                     grid=build_grid(512.0, 2048, "uniform"), seed=7)


def test_make_dataset_rejects_bad_inputs(base_grid):
    with pytest.raises(InvalidArgument):
        make_dataset("no-such-family", 4, {})
    with pytest.raises(InvalidArgument):
        make_dataset("flat", 3, {})
    with pytest.raises(InvalidArgument):
        make_dataset("schwarzschild", 4, {"m": -1.0})
    with pytest.raises(InvalidArgument):
        make_dataset("perturbed-dec", 4, {})   # grid required


def test_validate_dataset_reports_decay(dec_data, base_grid):
    report = validate_dataset(dec_data, base_grid)
    assert report["origin_regular"]
    assert report["alpha"] is not None and report["alpha"] > 0.0
    # metric remainder after subtracting the mass term decays one power of
    # r^{2 delta} faster
    assert report["slope_a"] is None or report["slope_a"] <= -(4 - 2 + 1) + 0.5


def test_validate_dataset_rejects_origin_slope(base_grid):
    r = base_grid.nodes
    a = 1.0 + 0.1 * np.exp(-r)          # a'(0) != 0: no smooth center
    data = dataset_from_samples(base_grid, a, a, np.zeros_like(r),
                                np.zeros_like(r), n=4)
    with pytest.raises(InvalidArgument):
        validate_dataset(data, base_grid)


def _power_profile(power):
    """(1 + r^2)^(power/2), even, with its closed-form slopes."""
    def jet(r, order):
        w = 1.0 + r ** 2
        out = [w ** (0.5 * power), power * r * w ** (0.5 * power - 1.0)]
        out.append(power * (w ** (0.5 * power - 1.0) + (power - 2.0) * r ** 2
                            * w ** (0.5 * power - 2.0)))
        return tuple(out[:order + 1])
    return AnalyticProfile(jet)


def test_validate_dataset_fits_alpha_beside_the_next_order_term():
    # trapped n = 5 data: a = c = (1 + 8 (1 + r^2)^{-3/2})^{4/3}, whose
    # expansion 1 + (32/3) r^{-3} + O(r^{-5}) a one-term fit cannot separate
    a = _conformal_power(16, 5, regularized=True)
    q = _power_profile(-7.0)
    data = RadialInitialData(n=5, a=a, c=a, q_rad=q, q_tan=q)
    grid = build_grid(512.0, 4096, "uniform")
    report = validate_dataset(data, grid)
    assert abs(report["alpha"] - 32.0 / 3.0) < 1e-6
    assert abs(report["slope_a"] + 5.0) < 0.01
    assert report["slope_c"] == report["slope_a"]


def test_validate_dataset_rejects_slow_decay_without_declared_alpha():
    # a - 1 ~ 0.3 r^{-1/2}: no mass term and next-order term fit that
    a = _tail_sum_profile([(0.3, -0.5)])
    slow = RadialInitialData(n=4, a=a, c=a, q_rad=constant_profile(0.0),
                             q_tan=constant_profile(0.0))
    with pytest.raises(InvalidArgument, match="profile a decays at rate"):
        validate_dataset(slow, build_grid(512.0, 2048, "uniform"))


def test_dataset_json_roundtrip_is_deterministic(dec_data, base_grid):
    spec = dec_data.spec_dict(base_grid)
    rebuilt, grid2 = dataset_from_json(spec)
    assert np.array_equal(grid2.nodes, base_grid.nodes)
    r = base_grid.nodes
    assert np.array_equal(rebuilt.a(r), dec_data.a(r))
    assert np.array_equal(rebuilt.q_rad(r), dec_data.q_rad(r))


def test_dataset_json_missing_keys():
    with pytest.raises(InvalidArgument):
        dataset_from_json({"family": "flat", "n": 4})


def test_profiles_csv_schema(dec_data, base_grid):
    csv_text = dec_data.profiles_csv(base_grid)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "r,a,c,q_rad,q_tan"
    assert len(lines) == base_grid.nodes.size + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0


def test_shared_frame_follows_reassigned_profiles(dec_data):
    grid = build_grid(512.0, 1024, "uniform")
    data = copy.copy(dec_data)
    before = constraint_fields(data, grid)
    frame = RadialFrame.on(data, grid)
    assert frame is RadialFrame.on(data, grid)
    data.q_rad = constant_profile(0.01)
    after = constraint_fields(data, grid)
    # the replacement keeps the metric, whose a and c are unchanged
    kept = RadialFrame.on(data, grid)
    assert kept is not frame and kept.a is frame.a and kept.f2 is frame.f2
    assert kept.q_tan is not frame.q_tan
    # the same fields as a new dataset object on a grid that has no frame yet
    fresh = constraint_fields(dataclasses.replace(data),
                              build_grid(512.0, 1024, "uniform"))
    for name in ("R_g", "mu", "J_rad", "margin"):
        assert np.array_equal(getattr(after, name), getattr(fresh, name))
    assert not np.array_equal(after.mu, before.mu)


@pytest.mark.parametrize("n_intervals, policy", [
    (2048, "uniform"), (2048, "geometric"), (2047, "uniform")])
def test_coarse_frame_matches_a_fresh_frame(dec_data, n_intervals, policy):
    base = build_grid(512.0, n_intervals, policy, 1.001)
    coarse = base.coarsen()
    frame = RadialFrame.on(dec_data, coarse)
    fresh = RadialFrame(dec_data, coarse.nodes)
    for name in ("a", "da", "c", "dc", "d2c", "q_rad", "q_tan", "dq_rad",
                 "dq_tan", "f", "f1", "f2", "warp", "warp_a", "q_norm"):
        values = getattr(frame, name)
        assert np.array_equal(values.view(np.uint64),
                              getattr(fresh, name).view(np.uint64))
        assert not values.flags.writeable
    for name in ("R_g", "mu", "J_rad", "margin"):
        assert np.array_equal(getattr(frame.constraints, name).view(np.uint64),
                              getattr(fresh.constraints, name).view(np.uint64))
    # every other value of the base frame for even N; odd N evaluates
    whole = RadialFrame.on(dec_data, base)
    assert np.shares_memory(frame.a, whole.a) == (n_intervals % 2 == 0)
    assert RadialFrame.on(dec_data, coarse) is frame
    # a new frame on the base grid drops the coarse frame that read the old
    other = make_dataset("perturbed-dec", 4, {"m": 1.0, "amplitude": 0.05},
                         grid=base, seed=11)
    RadialFrame.on(other, base)
    assert (coarse._frame is None) == (n_intervals % 2 == 0)
    assert np.array_equal(RadialFrame.on(other, coarse).q_rad,
                          RadialFrame(other, coarse.nodes).q_rad)


def _separate_conformal_power(m, n, regularized):
    """f, f', f'' of (1 + (m/2) rho^{2-n})^{4/(n-2)}, each on its own."""
    p, k = 4.0 / (n - 2), -(n - 2) / 2.0

    def parts(r):
        w = 1.0 + r ** 2 if regularized else r ** 2
        wk = w ** k
        return (1.0 + 0.5 * m * wk, 0.5 * m * k * wk / w * 2.0 * r,
                0.5 * m * (2.0 * k * wk / w
                           + 4.0 * k * (k - 1.0) * r ** 2 * wk / w ** 2))

    def d2(r):
        phi, dphi, d2phi = parts(r)
        return (p * (p - 1.0) * phi ** (p - 2.0) * dphi ** 2
                + p * phi ** (p - 1.0) * d2phi)
    return (lambda r: parts(r)[0] ** p,
            lambda r: p * parts(r)[0] ** (p - 1.0) * parts(r)[1], d2)


def _separate_tail_sum(terms):
    """f, f', f'' of 1 + sum_i amp_i (1+r^2)^{e_i/2}, each on its own."""
    def f(r):
        return sum((amp * (1.0 + r ** 2) ** (0.5 * e) for amp, e in terms),
                   np.ones_like(r))

    def d1(r):
        return sum((amp * e * r * (1.0 + r ** 2) ** (0.5 * e - 1.0)
                    for amp, e in terms), np.zeros_like(r))

    def d2(r):
        w = 1.0 + r ** 2
        return sum((amp * e * (w ** (0.5 * e - 1.0)
                               + (e - 2.0) * r ** 2 * w ** (0.5 * e - 2.0))
                    for amp, e in terms), np.zeros_like(r))
    return f, d1, d2


def _separate_even_gaussian(amp0, amp2, width):
    """f, f', f'' of (amp0 + amp2 u) e^{-u}, u = (r/width)^2, each on its
    own."""
    def u(r):
        return (r / width) ** 2

    def fu(r):
        return (amp2 - amp0 - amp2 * u(r)) * np.exp(-u(r))
    return (lambda r: (amp0 + amp2 * u(r)) * np.exp(-u(r)),
            lambda r: fu(r) * 2.0 * r / width ** 2,
            lambda r: ((amp0 - 2.0 * amp2 + amp2 * u(r)) * np.exp(-u(r))
                       * (2.0 * r / width ** 2) ** 2
                       + fu(r) * 2.0 / width ** 2))


@pytest.mark.parametrize("n", [4, 5, 7])
def test_jets_equal_separate_closed_forms_bit_for_bit(n):
    tail = [(0.3, 2 - n), (-0.2, 2 - n - 1.0)]
    profiles = [
        (constant_profile(1.5), (lambda r: np.full_like(r, 1.5),
                                 np.zeros_like, np.zeros_like)),
        (_conformal_power(1.5, n, regularized=False),        # schwarzschild
         _separate_conformal_power(1.5, n, False)),
        (_conformal_power(0.7, n, regularized=True),         # perturbed-dec
         _separate_conformal_power(0.7, n, True)),
        (_tail_sum_profile(tail), _separate_tail_sum(tail)),  # conformal
        (_even_gaussian(0.03, -0.02, 2.5),                   # perturbed-dec q
         _separate_even_gaussian(0.03, -0.02, 2.5)),
    ]
    points = (build_grid(512.0, 2048, "geometric", 1.001).nodes,
              np.array([0.0, 1e-300, 3.0]), np.asarray(2.5))
    with np.errstate(all="ignore"):
        for prof, separate in profiles:
            for r in points:
                want = [fn(r) for fn in separate]
                reads = [prof(r), prof.deriv1(r), prof.deriv2(r)]
                for order in (0, 1, 2):
                    jet = prof.jet(r, order)
                    assert len(jet) == order + 1
                    for k, got in enumerate(jet):
                        assert np.shape(got) == np.shape(want[k])
                        assert (np.asarray(got).tobytes()
                                == np.asarray(want[k]).tobytes()
                                == np.asarray(reads[k]).tobytes())


@pytest.mark.parametrize("family", ["flat", "schwarzschild", "conformal",
                                    "perturbed-dec"])
def test_each_family_reads_its_jets_as_its_separate_derivatives(family):
    grid = build_grid(512.0, 2048, "uniform")
    params = {"beta": 0.1} if family == "conformal" else {}
    data = make_dataset(family, 5, params, grid=grid, seed=3)
    r = grid.nodes
    with np.errstate(all="ignore"):
        for name in ("a", "c", "q_rad", "q_tan"):
            prof = getattr(data, name)
            want = (prof(r), prof.deriv1(r), prof.deriv2(r))
            assert [v.tobytes() for v in prof.jet(r)] == \
                [v.tobytes() for v in want]
    # and the frame reads them
    frame = RadialFrame(data, r)
    for name, (prof, k) in {"a": ("a", 0), "da": ("a", 1), "c": ("c", 0),
                            "dc": ("c", 1), "d2c": ("c", 2),
                            "q_rad": ("q_rad", 0), "dq_rad": ("q_rad", 1),
                            "q_tan": ("q_tan", 0),
                            "dq_tan": ("q_tan", 1)}.items():
        assert (getattr(frame, name).tobytes()
                == getattr(data, prof).jet(r)[k].tobytes())


def test_frame_keeps_no_arrays_beyond_its_coefficients():
    # profiles keep nothing they evaluate, and a jet's intermediates are
    # dropped once the frame holds its arrays
    data = make_dataset("perturbed-dec", 4, {"m": 1.0, "amplitude": 0.05},
                        grid=build_grid(512.0, 2048, "uniform"), seed=7)
    names = ("a", "da", "c", "dc", "d2c", "q_rad", "q_tan", "dq_rad",
             "dq_tan", "_sc", "f", "f1", "f2", "warp", "warp_a", "R",
             "q_norm")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        grid = build_grid(512.0, 32768, "uniform")
        frame = RadialFrame.on(data, grid)
        arrays = [grid.nodes] + [getattr(frame, name) for name in names]
        arrays += list(vars(frame.constraints).values())
        held = tracemalloc.get_traced_memory()[0] - start
        owners = {}
        for values in arrays:
            while isinstance(values.base, np.ndarray):
                values = values.base
            owners[id(values)] = values.nbytes
        del frame, arrays, values
        grid._keep_frame(None)
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    own = sum(owners.values())
    assert len(owners) == 19         # c, c' and R_g are a, a' and R
    assert own <= held <= own + (64 << 10)
    assert left <= grid.nodes.nbytes + (64 << 10)


def test_frame_arrays_are_read_only(dec_data, base_grid):
    frame = RadialFrame.on(dec_data, base_grid)
    for name in ("a", "dc", "q_rad", "f2", "warp_a", "q_norm"):
        with pytest.raises(ValueError):
            getattr(frame, name)[1] = 1.0


@pytest.mark.parametrize("policy", ["uniform", "geometric"])
@pytest.mark.parametrize("at_node", [True, False])
def test_truncated_frame_reads_its_base_frame(dec_data, policy, at_node):
    base = build_grid(512.0, 2048, policy, 1.001)
    r_out = base.nodes[1200] if at_node else 0.5 * (base.nodes[1200]
                                                    + base.nodes[1201])
    sub = base.truncate(r_out)
    frame = RadialFrame.on(dec_data, sub)
    fresh = RadialFrame(dec_data, sub.nodes)
    for name in ("a", "da", "c", "dc", "d2c", "q_rad", "q_tan", "dq_rad",
                 "dq_tan", "f", "f1", "f2", "warp", "warp_a", "q_norm"):
        values = getattr(frame, name)
        assert np.array_equal(values, getattr(fresh, name), equal_nan=True)
        assert not values.flags.writeable
    whole = RadialFrame.on(dec_data, base)
    # an appended r_out is evaluated; a node reads slices of the base frame
    assert np.shares_memory(frame.a, whole.a) == at_node
    assert frame is RadialFrame.on(dec_data, sub)
