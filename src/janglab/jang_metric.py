"""Geometry of the solution graph and the positivity audits built on it.

The graph of the limit solution u carries the metric
``g_check = g + du (x) du``; in the radial reduction its only new coefficient
is ``a_check = a + u'^2``.  This module builds that geometry together with its
one-form Xi and scalar curvature, verifies the pointwise integral identity
relating them to the constraint quantities, checks the lower bound that makes
the graph scalar curvature effectively positive, and constructs the shielding
weight that localizes positivity to a region containing the asymptotic end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid, simpson

from .capillary import CapillaryConfig, smoothstep, smoothstep_d1
from .errors import (InadmissibleTestFunction, InvalidArgument,
                     NumericalDegeneracy, ShieldingFailure)
from .geometry import (RadialFrame, RadialInitialData, constraint_fields,
                       warped_scalar_curvature)
from .grids import RadialGrid
from .jang_solver import JangLimit
from .profiles import SampledProfile

PHI_POLE_THRESHOLD = -1.0e6


# ---------------------------------------------------------------------------
# graph geometry
# ---------------------------------------------------------------------------

@dataclass
class JangGraphGeometry:
    """Radial profiles of the graph metric, its one-form, and its curvature.

    ``effective`` is the effective curvature R_check/2 - |Xi|^2 + div Xi,
    the left side of both the pointwise identity and the consequence bound.
    """

    grid: RadialGrid
    n: int
    g_check_rr: SampledProfile      # a + u'^2
    g_check_tan: SampledProfile     # c r^2 (unchanged by the graph)
    Xi_rad: SampledProfile
    R_check: SampledProfile
    Theta: SampledProfile
    u: SampledProfile
    du: np.ndarray = field(repr=False, default=None)
    d2u: np.ndarray = field(repr=False, default=None)
    effective: np.ndarray = field(repr=False, default=None)


def _u_profile(u, grid: RadialGrid) -> SampledProfile:
    """u on the grid: a JangLimit on it keeps its own spline."""
    if isinstance(u, JangLimit):
        if not np.array_equal(u.grid.nodes, grid.nodes):
            raise InvalidArgument("the limit must live on the grid")
        return u.profile()
    v = np.asarray(u, dtype=float)
    if v.shape != grid.nodes.shape:
        raise InvalidArgument("u must match the grid nodes")
    return SampledProfile(grid, v, label="u")


def _u_derivs(grid: RadialGrid, uv: np.ndarray):
    """u', u'' by grid stencils with the even-symmetry origin closure."""
    du = grid.deriv1(uv)
    d2u = grid.deriv2(uv)
    du[0] = 0.0
    d2u[0] = grid.even_deriv2_origin(uv)
    return du, d2u


def build_graph_geometry(data: RadialInitialData, config: CapillaryConfig,
                         u, grid: RadialGrid) -> JangGraphGeometry:
    """Assemble the graph metric, Xi, graph scalar curvature, and Theta.

    ``u`` is a JangLimit on ``grid`` or nodal values on it.  Metric
    coefficients and their derivatives are taken from the dataset's
    (possibly analytic) profiles; only u is differentiated by finite
    differences.  The audits read u, the grid and the effective curvature
    from the returned geometry.
    """
    n = data.n
    r = grid.nodes
    uprof = _u_profile(u, grid)
    uv = uprof.values
    du, d2u = _u_derivs(grid, uv)
    frame = RadialFrame.on(data, grid)
    a, da = frame.a, frame.da

    a_check = a + du ** 2
    da_check = da + 2.0 * du * d2u
    P = a_check / a                      # 1 + |du|_g^2
    if not (np.all(np.isfinite(a_check)) and np.all(np.isfinite(da_check))):
        raise NumericalDegeneracy("non-finite graph-metric derivatives")

    dlogP = (2.0 * du * d2u / a - du ** 2 * da / a ** 2) / P
    xi = 0.5 * dlogP - P ** -0.5 * frame.q_rad * du

    # the graph only changes the radial coefficient: a_check dr^2 + c r^2 sigma
    R = warped_scalar_curvature(frame, a_check, da_check,
                                frame.origin_d2[0] + 2.0 * d2u[0] ** 2)

    theta = config.tau ** 2 * config.zeta(r) ** 2 * uv
    mk = lambda vals, lab: SampledProfile(grid, vals, label=lab)
    geo = JangGraphGeometry(
        grid=grid, n=n,
        g_check_rr=mk(a_check, "a_check"),
        g_check_tan=mk(frame.c * r ** 2, "B"),
        Xi_rad=mk(xi, "Xi_rad"),
        R_check=mk(R, "R_check"),
        Theta=mk(theta, "Theta"),
        u=uprof, du=du, d2u=d2u)
    geo.effective = 0.5 * R - xi_norm_sq(geo) + div_xi(data, geo)
    return geo


def xi_norm_sq(geo: JangGraphGeometry) -> np.ndarray:
    """|Xi|^2 in the graph metric: Xi_r^2 / a_check."""
    return geo.Xi_rad.values ** 2 / geo.g_check_rr.values


def div_xi(data: RadialInitialData, geo: JangGraphGeometry) -> np.ndarray:
    """Divergence of Xi in the graph metric, with the smooth-origin limit."""
    grid = geo.grid
    r = grid.nodes
    n = data.n
    frame = RadialFrame.on(data, grid)
    a_check = geo.g_check_rr.values
    da_check = frame.da + 2.0 * geo.du * geo.d2u
    up = geo.Xi_rad.values / a_check          # raised radial component
    dup = grid.deriv1(up)
    with np.errstate(invalid="ignore"):
        out = dup + up * (da_check / (2.0 * a_check) + (n - 1) * frame.warp)
    out[0] = n * dup[0]                       # Xi_r(0) = 0, Xi_r/a_check odd
    return out


# ---------------------------------------------------------------------------
# pointwise identity audit
# ---------------------------------------------------------------------------

def _identity_sides(data: RadialInitialData, config: CapillaryConfig,
                    geo: JangGraphGeometry,
                    theta_override: SampledProfile | None = None):
    """Left and right sides of the pointwise curvature identity, nodewise."""
    grid = geo.grid
    n = data.n
    r = grid.nodes
    uv = geo.u.values
    frame = RadialFrame.on(data, grid)
    a, da, c, dc = frame.a, frame.da, frame.c, frame.dc
    du, d2u = geo.du, geo.d2u
    a_check = geo.g_check_rr.values
    P = a_check / a
    fields = constraint_fields(data, grid)

    if theta_override is not None:
        theta = theta_override(r)
        dtheta = theta_override.deriv1(r)
    else:
        theta = geo.Theta.values
        zeta = config.zeta(r)
        dzeta = config.zeta_d1(r)
        dtheta = config.tau ** 2 * (2.0 * zeta * dzeta * uv + zeta ** 2 * du)

    qr, qt = frame.q_rad, frame.q_tan
    B = c * r ** 2
    dB = dc * r ** 2 + 2.0 * c * r
    h_rr = P ** -0.5 * (d2u - da / (2.0 * a) * du) - a * qr
    with np.errstate(divide="ignore", invalid="ignore"):
        Ht_over_B = P ** -0.5 * (dB / (2.0 * a * B)) * du - qt
    # origin: du/r -> d2u(0), dB/(2B) -> 1/r
    Ht_over_B[0] = d2u[0] / a[0] - qt[0]
    hess_sq = 0.5 * ((h_rr / a_check) ** 2 + (n - 1) * Ht_over_B ** 2)
    tr_q_check = a * qr / a_check + (n - 1) * qt

    rhs = (hess_sq + fields.mu
           - P ** -0.5 * du * fields.J_rad / np.sqrt(a)
           + P ** -0.5 * du * dtheta / a
           + 0.5 * theta ** 2 + theta * tr_q_check)
    return geo.effective, rhs


def schoen_yau_audit(data: RadialInitialData, config: CapillaryConfig,
                     geo: JangGraphGeometry,
                     theta_override: SampledProfile | None = None) -> dict:
    """Max relative identity error on the geometry's grid plus its order.

    The error is the max-norm of (LHS - RHS) divided by the max-norm of the
    sides; the order compares the working grid against its two-fold
    coarsening (the finite-difference truncation scales with h^2), on which
    the geometry is rebuilt from u's spline.
    """
    grid = geo.grid
    lhs, rhs = _identity_sides(data, config, geo, theta_override)
    err_fine = _rel_err(lhs, rhs)

    coarse_nodes = grid.nodes[::2]
    if coarse_nodes[-1] != grid.nodes[-1]:
        coarse_nodes = np.append(coarse_nodes, grid.nodes[-1])
    cgrid = RadialGrid(coarse_nodes, policy="coarsened", stretch=grid.stretch)
    cgeo = build_graph_geometry(data, config, geo.u(cgrid.nodes), cgrid)
    lhs_c, rhs_c = _identity_sides(data, config, cgeo, theta_override)
    err_coarse = _rel_err(lhs_c, rhs_c)
    if err_fine <= 1e-15:
        order = None  # both sides agree to roundoff; order fit meaningless
    else:
        order = float(np.log2(max(err_coarse, 1e-300) / err_fine))
    return {"max_rel_err": err_fine, "order": order,
            "max_rel_err_coarse": err_coarse,
            "lhs": lhs, "rhs": rhs}


def _rel_err(lhs, rhs):
    lo = 1 if not np.all(np.isfinite(lhs[:1])) else 0
    scale = max(float(np.max(np.abs(lhs[lo:]))), float(np.max(np.abs(rhs[lo:]))),
                1e-300)
    return float(np.max(np.abs(lhs[lo:] - rhs[lo:]))) / scale


# ---------------------------------------------------------------------------
# consequence and neighborhood audits
# ---------------------------------------------------------------------------

def consequence_audit(data: RadialInitialData, config: CapillaryConfig,
                      geo: JangGraphGeometry) -> np.ndarray:
    """Nodewise margin of the effective-positivity lower bound.

    Returns LHS - RHS where LHS = R_check/2 - |Xi|^2 + div Xi and
    RHS = Q + (kappa0^2 - tau^2 u^2)|d zeta|^2 + (kappa1 - tau^2 |u|)
    zeta^2 n |q|.  Nonnegative (within tolerance) margins certify the bound.
    """
    r = geo.grid.nodes
    uv = geo.u.values
    frame = RadialFrame.on(data, geo.grid)
    dz2 = config.dzeta_norm_sq(frame)
    zeta = config.zeta(r)
    rhs = (config.Q(r)
           + (config.kappa0 ** 2 - config.tau ** 2 * uv ** 2) * dz2
           + (config.kappa1 - config.tau ** 2 * np.abs(uv)) * zeta ** 2
           * data.n * frame.q_norm)
    return geo.effective - rhs


def _distance_to_exterior(data, geo: JangGraphGeometry, threshold: float,
                          metric: str = "check") -> np.ndarray:
    """Arc-length distance from each node to the region {r > threshold}.

    Zero on the region itself; measured in the graph metric ("check") or the
    base metric ("base").
    """
    grid = geo.grid
    r = grid.nodes
    coeff = (geo.g_check_rr.values if metric == "check"
             else RadialFrame.on(data, grid).a)
    cum = np.concatenate(([0.0], cumulative_trapezoid(np.sqrt(coeff), r)))
    c_thr = float(np.interp(threshold, r, cum))
    return np.maximum(0.0, c_thr - cum)


def neighborhood_audit(data: RadialInitialData, config: CapillaryConfig,
                       geo: JangGraphGeometry) -> dict:
    """Collar checks around the exterior region E0 = {r > 8 r0}.

    (i) the solution stays below half the smallness budget on the graph-metric
    collar of width s1 + 2 s0; (ii) the graph-metric 2 s0 collar is contained
    in the base-metric one and Q exceeds 128/(s1 s0) there.
    """
    r = geo.grid.nodes
    d_check = _distance_to_exterior(data, geo, config.E0_threshold, "check")
    d_base = _distance_to_exterior(data, geo, config.E0_threshold, "base")
    width = config.collar_width_total

    mask_i = d_check < width
    bound_i = config.smallness_budget
    sup_u = float(np.max(np.abs(geo.u.values[mask_i])))
    ok_i = sup_u <= bound_i

    inner = (d_check > 0.0) & (d_check < 2.0 * config.s0)
    # containment: graph distance dominates base distance node by node
    ok_contain = bool(np.all(d_check >= d_base * (1.0 - 1e-12)))
    qmin = float(np.min(config.Q(r)[inner])) if np.any(inner) else math.inf
    ok_q = qmin > 128.0 / (config.s1 * config.s0)

    return {"passed": bool(ok_i and ok_contain and ok_q),
            "solution_bound": {"passed": bool(ok_i), "sup": sup_u,
                               "bound": bound_i},
            "collar_containment": {"passed": ok_contain},
            "collar_density": {"passed": bool(ok_q), "min_Q": qmin,
                               "bound": 128.0 / (config.s1 * config.s0)}}


# ---------------------------------------------------------------------------
# shielding
# ---------------------------------------------------------------------------

@dataclass
class ShieldingData:
    """Shielding weight Phi and reduced density Q_hat on the region E.

    E is the graph-metric collar of the exterior region of total width
    ``width``; ``E_outer_radius`` is the radius where E ends (0 when E covers
    the whole grid, in which case ``boundary_empty`` is set and the weight
    never reaches its pole).
    """

    E_outer_radius: float
    Phi: SampledProfile
    Q_hat: SampledProfile
    d_profile: SampledProfile
    width: float
    transition: float
    boundary_empty: bool
    E0_threshold: float

    def phi_of_d(self, d):
        """The weight as a function of collar depth d (pole at d = width)."""
        d = np.asarray(d, dtype=float)
        L, t = self.width, self.transition
        S = smoothstep(d / t)
        with np.errstate(divide="ignore"):
            return S * (16.0 / L - 16.0 / (L - d))

    def dphi_of_d(self, d):
        d = np.asarray(d, dtype=float)
        L, t = self.width, self.transition
        S = smoothstep(d / t)
        dS = smoothstep_d1(d / t) / t
        with np.errstate(divide="ignore"):
            return dS * (16.0 / L - 16.0 / (L - d)) - S * 16.0 / (L - d) ** 2


def build_shielding(data: RadialInitialData, config: CapillaryConfig,
                    geo: JangGraphGeometry,
                    width: float | None = None) -> ShieldingData:
    """Construct the shielding weight on the collar region E.

    The weight is a smoothstep-flattened simple pole in the graph-metric
    depth d: Phi = S(d) (16/L - 16/(L - d)), flat to second order at d = 0 so
    it vanishes with its gradient on the exterior region.  The reduced
    density is Q_hat = (Q + Phi^2/2 - 2|dPhi|)/2 off the exterior region and
    Q/2 on it.  ``width`` defaults to s1 + 2 s0 and exists for synthetic
    small-collar constructions in tests.
    """
    grid = geo.grid
    r = grid.nodes
    L = config.collar_width_total if width is None else float(width)
    t = min(2.0 * config.s0, 0.5 * L)
    d = _distance_to_exterior(data, geo, config.E0_threshold, "check")
    sd = ShieldingData(
        E_outer_radius=0.0, Phi=None, Q_hat=None,
        d_profile=SampledProfile(grid, d, label="d"),
        width=L, transition=t, boundary_empty=bool(d[0] < L),
        E0_threshold=config.E0_threshold)
    in_E = d < L
    phi = np.where(in_E, sd.phi_of_d(np.minimum(d, L * (1.0 - 1e-15))), -np.inf)
    dphi = np.where(in_E, sd.dphi_of_d(np.minimum(d, L * (1.0 - 1e-15))), 0.0)
    q = config.Q(r)
    x = q + 0.5 * phi ** 2 - 2.0 * np.abs(dphi)
    q_hat = np.where(d > 0.0, 0.5 * x, 0.5 * q)
    sd.Phi = SampledProfile(grid, np.where(in_E, phi, 0.0), label="Phi")
    sd.Q_hat = SampledProfile(grid, q_hat, label="Q_hat")
    if not sd.boundary_empty:
        outside = r[~in_E]
        sd.E_outer_radius = float(np.max(outside)) if outside.size else 0.0
    report = shielding_audit(sd, config, grid)
    if not report["passed"]:
        failed = [k for k, v in report["bullets"].items() if not v["passed"]]
        raise ShieldingFailure(f"shielding audit failed: {failed}")
    return sd


def shielding_audit(sd: ShieldingData, config: CapillaryConfig,
                    grid: RadialGrid) -> dict:
    """Re-check the six defining properties of the shielding construction.

    Works from the stored nodal profiles (so tampered inputs are caught):
    1. E contains the closure of the exterior region E0;
    2. E lies inside the graph-metric collar of width s1 + 2 s0 (or the
       construction width for synthetic data);
    3. Phi = 0 and Q_hat = Q/2 on E0;
    4. Phi <= 0 and Q_hat > 0 on E;
    5. Phi diverges to -infinity at the boundary of E (vacuous when the
       boundary is empty, i.e. the pole depth exceeds the grid);
    6. Q + Phi^2/2 - 2|dPhi| >= 2 Q_hat everywhere on E, strictly positive.
    """
    r = grid.nodes
    d = sd.d_profile.values
    phi = sd.Phi.values
    q_hat = sd.Q_hat.values
    q = config.Q(r)
    in_E = r > sd.E_outer_radius
    on_E0 = r > sd.E0_threshold
    bullets = {}

    bullets["contains_exterior"] = {
        "passed": bool(sd.E_outer_radius < sd.E0_threshold
                       and np.all(in_E[on_E0]))}
    bullets["inside_collar"] = {
        "passed": bool(np.all(d[in_E] <= sd.width * (1.0 + 1e-12)))}
    tol3 = 1e-14 * max(1.0, float(np.max(np.abs(q))))
    bullets["trivial_on_exterior"] = {
        "passed": bool(np.all(np.abs(phi[on_E0]) == 0.0)
                       and np.all(np.abs(q_hat[on_E0] - 0.5 * q[on_E0]) <= tol3))}
    bullets["signs_on_E"] = {
        "passed": bool(np.all(phi[in_E] <= 0.0) and np.all(q_hat[in_E] > 0.0))}
    if sd.boundary_empty:
        bullets["pole_at_boundary"] = {"passed": True, "vacuous": True,
                                       "note": "E covers the whole grid"}
    else:
        edge = in_E & (d < sd.width)
        last_phi = float(np.min(phi[edge])) if np.any(edge) else 0.0
        bullets["pole_at_boundary"] = {
            "passed": bool(last_phi < PHI_POLE_THRESHOLD),
            "vacuous": False, "last_interior_phi": last_phi}

    # |dPhi| from the ansatz at the stored nodal depths (a finite-difference
    # recomputation is ill-posed near the pole, where Phi spans many orders
    # of magnitude between adjacent nodes); tampering with the nodal Phi or
    # Q_hat profiles is still caught by the comparison below
    dphi_dd = np.abs(sd.dphi_of_d(np.minimum(d, sd.width * (1.0 - 1e-15))))
    interior = in_E & (d > 0.0) & (d < sd.width)
    x = q + 0.5 * phi ** 2 - 2.0 * dphi_dd
    scale = max(1.0, float(np.max(np.abs(q_hat[np.isfinite(q_hat)]))))
    ok6 = bool(np.all(x[interior] >= 2.0 * q_hat[interior]
                      - 1e-6 * np.maximum(scale, np.abs(x[interior])))
               and np.all(x[interior] > 0.0))
    first6 = None
    bad = np.zeros_like(x, dtype=bool)
    bad[interior] = x[interior] < 2.0 * q_hat[interior] \
        - 1e-6 * np.maximum(scale, np.abs(x[interior]))
    if np.any(bad):
        i = int(np.argmax(bad))
        first6 = {"node_radius": float(r[i]), "x": float(x[i]),
                  "q_hat": float(q_hat[i])}
    bullets["reduced_density_bound"] = {"passed": ok6,
                                        "first_violation": first6}

    return {"passed": all(b["passed"] for b in bullets.values()),
            "bullets": bullets,
            "six": [bullets[k]["passed"] for k in
                    ("contains_exterior", "inside_collar",
                     "trivial_on_exterior", "signs_on_E",
                     "pole_at_boundary", "reduced_density_bound")]}


# ---------------------------------------------------------------------------
# stability audit
# ---------------------------------------------------------------------------

def sphere_volume(n: int) -> float:
    """Volume of the unit (n-1)-sphere."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def compact_bump(lo: float, hi: float):
    """C^2 bump supported exactly on [lo, hi] (product of smoothsteps)."""
    if hi <= lo:
        raise InvalidArgument("bump needs lo < hi")
    mid = 0.5 * (lo + hi)

    def f(r):
        r = np.asarray(r, dtype=float)
        up = smoothstep((r - lo) / (mid - lo))
        down = smoothstep((hi - r) / (hi - mid))
        return up * down
    return f

def random_test_functions(grid: RadialGrid, count: int, seed: int,
                          plateau_radius: float):
    """Random admissible test functions: constant + compact random bumps.

    Each function is exactly constant for r >= plateau_radius.
    """
    rng = np.random.default_rng(seed)
    funcs = []
    for _ in range(count):
        const = float(rng.uniform(-1.0, 1.0))
        n_bumps = int(rng.integers(1, 4))
        parts = []
        for _ in range(n_bumps):
            lo = float(rng.uniform(0.0, 0.7 * plateau_radius))
            hi = float(rng.uniform(lo + 0.1 * plateau_radius, plateau_radius))
            amp = float(rng.uniform(-1.0, 1.0))
            parts.append((amp, compact_bump(lo, hi)))

        def f(r, const=const, parts=parts):
            r = np.asarray(r, dtype=float)
            out = np.full_like(r, const)
            for amp, bump in parts:
                out = out + amp * bump(r)
            return out
        funcs.append(f)
    return funcs


def stability_audit(data: RadialInitialData, config: CapillaryConfig,
                    geo: JangGraphGeometry, test_functions) -> dict:
    """Quadratic-form audit: the stability integral is nonnegative.

    For each admissible radial test function f (smooth, constant near the
    outer end, supported in the sublevel region where |u| is below the
    smallness budget) computes

        Int [ |df|^2_check + (R_check/2 - Q) f^2 ] dvol_check

    by composite Simpson with the graph-metric volume element.
    """
    grid = geo.grid
    r = grid.nodes
    uv = geo.u.values
    a_check = geo.g_check_rr.values
    f = RadialFrame.on(data, grid).f
    vol = np.sqrt(a_check) * f ** (data.n - 1) * sphere_volume(data.n)
    half_R = 0.5 * geo.R_check.values
    q = config.Q(r)
    budget = 2.0 * config.smallness_budget   # min(kappa0/tau, kappa1/tau^2)

    admissible_region = np.abs(uv) < budget
    values = []
    for f in test_functions:
        fv = np.asarray(f(r), dtype=float)
        fprof = SampledProfile(grid, fv)
        dfv = fprof.deriv1(r)
        # admissibility: constant on the outer tenth, supported where |u|
        # is small
        outer = r >= 0.9 * grid.r_max
        if np.max(np.abs(dfv[outer])) > 1e-10 * max(1.0, np.max(np.abs(fv))):
            raise InadmissibleTestFunction(
                "test function is not constant near the outer boundary")
        if np.any((np.abs(fv) > 1e-300) & ~admissible_region):
            raise InadmissibleTestFunction(
                "test function support leaves the admissible sublevel region")
        integrand = (dfv ** 2 / a_check + (half_R - q) * fv ** 2) * vol
        value = float(simpson(integrand, x=r))
        scale = float(simpson((dfv ** 2 / a_check
                               + (np.abs(half_R) + q) * fv ** 2) * vol, x=r))
        values.append({"value": value, "scale": max(scale, 1e-300)})
    min_ratio = min((v["value"] / v["scale"] for v in values), default=0.0)
    passed = all(v["value"] >= -1e-8 * v["scale"] for v in values)
    return {"passed": bool(passed), "n_tested": len(values),
            "min_value": min((v["value"] for v in values), default=0.0),
            "min_relative": min_ratio, "values": values}


def divergence_balance(data: RadialInitialData, geo: JangGraphGeometry,
                       f_values: np.ndarray) -> float:
    """Integral of div(f^2 Xi) over the grid in the graph metric.

    For admissible test functions (constant near the outer end) this must be
    small, because the divergence theorem reduces it to the outer boundary
    flux f^2 Xi^r sqrt(a_check) area(r_max), which decays like r^{2-n}.
    """
    grid = geo.grid
    r = grid.nodes
    a_check = geo.g_check_rr.values
    area = RadialFrame.on(data, grid).f ** (data.n - 1) * sphere_volume(data.n)
    flux = f_values ** 2 * geo.Xi_rad.values / np.sqrt(a_check) * area
    dflux = grid.deriv1(flux)
    return float(simpson(dflux, x=r))
