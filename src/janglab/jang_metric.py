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
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal, get_lapack_funcs

from .capillary import CapillaryConfig, smoothstep, smoothstep_d1
from .errors import InvalidArgument, NumericalDegeneracy
from .geometry import (RadialFrame, RadialInitialData, constraint_fields,
                       warped_scalar_curvature)
from .grids import (RadialGrid, _cumulative_trapezoid, _simpson,
                    _simpson_weights)
from .jang_solver import JangLimit
from .profiles import SampledProfile
from .verdicts import nodewise

PHI_POLE_THRESHOLD = -1.0e6
IDENTITY_TOL = 1e-3         # on the max relative identity error
CONSEQUENCE_TOL = 1e-8      # on the margin, relative to max(1, max |margin|)

_pttrf, _pttrs = get_lapack_funcs(("pttrf", "pttrs"), dtype=np.float64)


# ---------------------------------------------------------------------------
# graph geometry
# ---------------------------------------------------------------------------

@dataclass
class JangGraphGeometry:
    """The graph metric, its one-form, and its curvature at the grid nodes.

    Only u is a spline profile: the audits interpolate it.  ``effective`` is
    the effective curvature R_check/2 - |Xi|^2 + div Xi, the left side of
    both the pointwise identity and the consequence bound.
    """

    grid: RadialGrid
    n: int
    g_check_rr: np.ndarray          # a + u'^2
    Xi_rad: np.ndarray
    R_check: np.ndarray
    Theta: np.ndarray
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
    return SampledProfile(grid, v)


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
    uprof = _u_profile(u, grid)
    uv = uprof.values
    du, d2u = _u_derivs(grid, uv)
    frame = RadialFrame.on(data, grid)
    a, da = frame.a, frame.da

    du2, d_du2 = du ** 2, 2.0 * du * d2u   # (u'^2, (u'^2)')
    a_check = a + du2
    da_check = da + d_du2
    P = a_check / a                      # 1 + |du|_g^2
    if not (np.all(np.isfinite(a_check)) and np.all(np.isfinite(da_check))):
        raise NumericalDegeneracy("non-finite graph-metric derivatives")

    dlogP = (d_du2 / a - du2 * da / a ** 2) / P
    xi = 0.5 * dlogP - P ** -0.5 * frame.q_rad * du

    # the graph only changes the radial coefficient: a_check dr^2 + c r^2 sigma
    R = warped_scalar_curvature(frame, a_check, da_check,
                                frame.origin_d2[0] + 2.0 * d2u[0] ** 2)

    theta = config.tau ** 2 * config.cutoff(grid)[0] ** 2 * uv
    geo = JangGraphGeometry(grid=grid, n=n, g_check_rr=a_check, Xi_rad=xi,
                            R_check=R, Theta=theta, u=uprof, du=du, d2u=d2u)
    geo.effective = 0.5 * R - xi_norm_sq(geo) + div_xi(data, geo)
    return geo


def xi_norm_sq(geo: JangGraphGeometry) -> np.ndarray:
    """|Xi|^2 in the graph metric: Xi_r^2 / a_check."""
    return geo.Xi_rad ** 2 / geo.g_check_rr


def div_xi(data: RadialInitialData, geo: JangGraphGeometry) -> np.ndarray:
    """Divergence of Xi in the graph metric, with the smooth-origin limit."""
    grid = geo.grid
    r = grid.nodes
    n = data.n
    frame = RadialFrame.on(data, grid)
    a_check = geo.g_check_rr
    da_check = frame.da + 2.0 * geo.du * geo.d2u
    up = geo.Xi_rad / a_check                 # raised radial component
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
    a, c, dc = frame.a, frame.c, frame.dc
    du, d2u = geo.du, geo.d2u
    a_check = geo.g_check_rr
    P = a_check / a
    fields = constraint_fields(data, grid)

    if theta_override is not None:
        theta = theta_override(r)
        dtheta = theta_override.deriv1(r)
    else:
        theta = geo.Theta
        zeta, dzeta = config.cutoff(grid)
        dtheta = config.tau ** 2 * (2.0 * zeta * dzeta * uv + zeta ** 2 * du)

    qr, qt = frame.q_rad, frame.q_tan
    r2 = r ** 2
    B = c * r2
    dB = dc * r2 + 2.0 * c * r
    P_m12 = P ** -0.5
    h_rr = P_m12 * (d2u - frame.half_dlog_a * du) - a * qr
    with np.errstate(divide="ignore", invalid="ignore"):
        Ht_over_B = P_m12 * (dB / (2.0 * a * B)) * du - qt
    # origin: du/r -> d2u(0), dB/(2B) -> 1/r
    Ht_over_B[0] = d2u[0] / a[0] - qt[0]
    hess_sq = 0.5 * ((h_rr / a_check) ** 2 + (n - 1) * Ht_over_B ** 2)
    tr_q_check = a * qr / a_check + (n - 1) * qt

    slope = P_m12 * du
    rhs = (hess_sq + fields.mu
           - slope * fields.J_rad / frame.sqrt_a
           + slope * dtheta / a
           + 0.5 * theta ** 2 + theta * tr_q_check)
    return geo.effective, rhs


def schoen_yau_audit(data: RadialInitialData, config: CapillaryConfig,
                     geo: JangGraphGeometry,
                     theta_override: SampledProfile | None = None) -> dict:
    """Max relative identity error on the geometry's grid plus its order.

    The error is the max-norm of (LHS - RHS) divided by the max-norm of the
    sides, and the audit passes when it is below ``IDENTITY_TOL``; the
    order compares the working grid against its two-fold
    coarsening (the finite-difference truncation scales with h^2), on which
    the geometry is rebuilt from u's spline at the coarse nodes: u's nodal
    values there, and r_max's from the last interval's cubic.
    """
    grid = geo.grid
    lhs, rhs = _identity_sides(data, config, geo, theta_override)
    err_fine = _rel_err(lhs, rhs)

    cgrid = grid.coarsen()
    cgeo = build_graph_geometry(data, config, geo.u(cgrid.nodes), cgrid)
    lhs_c, rhs_c = _identity_sides(data, config, cgeo, theta_override)
    err_coarse = _rel_err(lhs_c, rhs_c)
    if err_fine <= 1e-15:
        order = None  # both sides agree to roundoff; order fit meaningless
    else:
        order = float(np.log2(max(err_coarse, 1e-300) / err_fine))
    return {"max_rel_err": err_fine, "order": order,
            "passed": bool(err_fine < IDENTITY_TOL),
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
    uv = geo.u.values
    frame = RadialFrame.on(data, geo.grid)
    dz2 = config.dzeta_norm_sq(data, geo.grid)
    zeta = config.cutoff(geo.grid)[0]
    rhs = (config.Q
           + (config.kappa0 ** 2 - config.tau ** 2 * uv ** 2) * dz2
           + (config.kappa1 - config.tau ** 2 * np.abs(uv)) * zeta ** 2
           * data.n * frame.q_norm)
    return geo.effective - rhs


def _consequence_verdict(margin: np.ndarray, grid: RadialGrid):
    """margin >= -CONSEQUENCE_TOL max(1, max |margin|) at every node."""
    tol = CONSEQUENCE_TOL * max(1.0, float(np.max(np.abs(margin))))
    return nodewise(margin, grid.nodes, tol, show={"margin": margin})


def _distance_to_exterior(data, geo: JangGraphGeometry, threshold: float,
                          metric: str = "check") -> np.ndarray:
    """Arc-length distance from each node to the region {r > threshold}.

    Zero on the region itself; measured in the graph metric ("check") or the
    base metric ("base").
    """
    r = geo.grid.nodes
    cum = (_cumulative_trapezoid(np.sqrt(geo.g_check_rr), r)
           if metric == "check" else RadialFrame.on(data, geo.grid).length)
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
    abs_u = np.abs(geo.u.values[mask_i])
    sup_u = float(np.max(abs_u))
    ok_i = nodewise(bound_i - abs_u, r[mask_i]).passed

    inner = (d_check > 0.0) & (d_check < 2.0 * config.s0)
    # containment: graph distance dominates base distance node by node
    ok_contain = nodewise(d_check - d_base * (1.0 - 1e-12), r).passed
    qmin = float(np.min(config.Q[inner])) if np.any(inner) else math.inf
    ok_q = nodewise(config.Q[inner] - 128.0 / (config.s1 * config.s0),
                    r[inner], strict=True).passed

    return {"passed": ok_i and ok_contain and ok_q,
            "solution_bound": {"passed": ok_i, "sup": sup_u,
                               "bound": bound_i},
            "collar_containment": {"passed": ok_contain},
            "collar_density": {"passed": ok_q, "min_Q": qmin,
                               "bound": 128.0 / (config.s1 * config.s0)}}


# ---------------------------------------------------------------------------
# shielding
# ---------------------------------------------------------------------------

@dataclass
class ShieldingData:
    """Shielding weight Phi, reduced density Q_hat and collar depth d.

    All three are nodal values on the grid of the construction.  E is the
    graph-metric collar of the exterior region of total width
    ``width``; ``E_outer_radius`` is the radius where E ends (0 when E covers
    the whole grid, in which case ``boundary_empty`` is set and the weight
    never reaches its pole).
    """

    E_outer_radius: float
    Phi: np.ndarray
    Q_hat: np.ndarray
    d_profile: np.ndarray
    width: float
    transition: float
    boundary_empty: bool

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
    small-collar constructions in tests.  It only constructs: the verdict
    is ``shielding_audit``'s.
    """
    grid = geo.grid
    r = grid.nodes
    L = config.collar_width_total if width is None else float(width)
    t = min(2.0 * config.s0, 0.5 * L)
    d = _distance_to_exterior(data, geo, config.E0_threshold, "check")
    sd = ShieldingData(
        E_outer_radius=0.0, Phi=None, Q_hat=None, d_profile=d, width=L,
        transition=t, boundary_empty=bool(d[0] < L))
    in_E, off_E0 = d < L, d > 0.0
    # Phi is a function of d alone, evaluated node by node only in the
    # collar 0 < d < L.  E0 (d = +0.0) takes its value at 0; off E, Phi is
    # 0 and Q_hat is (Q + inf)/2 where d >= L, Q/2 where d is NaN.
    collar = np.flatnonzero(in_E & off_E0)
    depth = np.minimum(d[collar], L * (1.0 - 1e-15))
    phi, dphi = sd.phi_of_d(depth), sd.dphi_of_d(depth)
    q = config.Q
    sd.Phi = np.zeros(d.size)
    sd.Phi[in_E] = sd.phi_of_d(np.zeros(1))[0]
    sd.Phi[collar] = phi
    sd.Q_hat = 0.5 * q
    beyond_E = np.flatnonzero(off_E0 & ~in_E)
    sd.Q_hat[beyond_E] = 0.5 * (q[beyond_E] + np.inf)
    sd.Q_hat[collar] = 0.5 * (q[collar] + 0.5 * phi ** 2 - 2.0 * np.abs(dphi))
    if not sd.boundary_empty:
        outside = r[~in_E]
        sd.E_outer_radius = float(np.max(outside)) if outside.size else 0.0
    return sd


def shielding_audit(sd: ShieldingData, config: CapillaryConfig,
                    grid: RadialGrid) -> dict:
    """Re-check the six defining properties of the shielding construction.

    Works from the stored nodal values (so tampered inputs are caught);
    bullets 2, 3, 4 and 6 name their first failing node:
    1. E contains the closure of the exterior region E0;
    2. E lies inside the graph-metric collar of width s1 + 2 s0 (or the
       construction width for synthetic data);
    3. Phi = 0 and Q_hat = Q/2 on the closure of E0, r >= 8 r0 (the node
       at 8 r0 has depth 0, so no other bullet decides it);
    4. Phi <= 0 and Q_hat > 0 on E;
    5. Phi diverges to -infinity at the boundary of E (vacuous when the
       boundary is empty, i.e. the pole depth exceeds the grid);
    6. Q + Phi^2/2 - 2|dPhi| >= 2 Q_hat everywhere on E, strictly positive.
    """
    r = grid.nodes
    d = sd.d_profile
    phi = sd.Phi
    q_hat = sd.Q_hat
    q = config.Q
    in_E = (r > sd.E_outer_radius) | sd.boundary_empty   # E holds r = 0 then
    on_E0 = r >= config.E0_threshold          # the closure of E0
    bullets = {}

    bullets["contains_exterior"] = {
        "passed": bool(sd.E_outer_radius < config.E0_threshold)}
    r_E, r_E0 = r[in_E], r[on_E0]
    bullets["inside_collar"] = asdict(
        nodewise(sd.width * (1.0 + 1e-12) - d[in_E], r_E))
    tol3 = 1e-14 * max(1.0, float(np.max(np.abs(q))))
    bullets["trivial_on_exterior"] = asdict(
        nodewise(-np.abs(phi[on_E0]), r_E0)
        & nodewise(-np.abs(q_hat[on_E0] - 0.5 * q[on_E0]), r_E0, tol3))
    bullets["signs_on_E"] = asdict(nodewise(-phi[in_E], r_E)
                                   & nodewise(q_hat[in_E], r_E, strict=True))
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
    interior = np.flatnonzero(in_E & (d > 0.0) & (d < sd.width))
    dphi_dd = np.abs(sd.dphi_of_d(np.minimum(d[interior],
                                             sd.width * (1.0 - 1e-15))))
    x = q[interior] + 0.5 * phi[interior] ** 2 - 2.0 * dphi_dd
    scale = max(1.0, float(np.max(np.abs(q_hat[np.isfinite(q_hat)]))))
    shown = {"x": x, "q_hat": q_hat[interior]}
    r_in = r[interior]
    bullets["reduced_density_bound"] = asdict(
        nodewise(x - 2.0 * shown["q_hat"], r_in,
                 1e-6 * np.maximum(scale, np.abs(x)), show=shown)
        & nodewise(x, r_in, strict=True, show=shown))

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


def stability_audit(data: RadialInitialData, config: CapillaryConfig,
                    geo: JangGraphGeometry) -> dict:
    """Lowest eigenvalue of the stability form on admissible functions.

    The form  Int [ |df|^2_check + (R_check/2 - Q) f^2 ] dvol_check  is
    discretised by P1 elements on the geometry's grid: stiffness k_i with the
    weight dvol/a_check averaged to cell midpoints, the potential
    V = R_check/2 - Q times a lumped mass M_i, and M_i as the mass.  M_i is
    the nodal volume element times half the adjacent cells; at r = 0, where
    dvol vanishes, it integrates the linear interpolant over the half cell,
    so M_0 > 0.  Admissible f vanish where |u| >= 2 smallness_budget (Dirichlet nodes)
    and are constant on r >= 0.9 r_max, whose nodes merge into one unknown
    (fixed at 0 as a whole if it holds a Dirichlet node).  With T the
    mass-scaled tridiagonal, lambda_min its lowest eigenvalue and phi its
    eigenvector (see ``_lowest_pair``), the audit passes when

        lambda_min >= -(1e-8 sigma + 8 u ||T||)

    where u = 2^-53, ||T|| is the largest Gershgorin row sum and
    sigma = (sum k_i (phi_i - phi_{i+1})^2 + sum |V_i| M_i phi_i^2)
            / sum M_i phi_i^2
    is summed from nonnegative terms; a positive definite LDL^T factor of
    T + 8 u ||T|| I proves the inequality on its own.  The Simpson quadratic
    form on phi, with a spline phi' and the graph volume element, is a
    second opinion: its Rayleigh quotient must lie within
    0.1 sigma_Simpson + 8 u ||T|| of lambda_min.  ``lambda_residual`` is
    ||T phi - lambda_min phi|| / ||phi||: an eigenvalue of T lies that close
    to lambda_min.  ``vacuous`` means V >= 0 on every admissible node, so
    the form is nonnegative pointwise; ``support`` is the first and last
    radius where |phi| >= 1e-3 max |phi|.
    """
    grid = geo.grid
    r = grid.nodes
    h = np.diff(r)
    a_check = geo.g_check_rr
    vol = (np.sqrt(a_check) * RadialFrame.on(data, grid).f ** (data.n - 1)
           * sphere_volume(data.n))
    pot = 0.5 * geo.R_check - config.Q
    weight = vol / a_check
    k = 0.5 * (weight[:-1] + weight[1:]) / h
    mass = 0.5 * vol * (np.append(h, 0.0) + np.insert(h, 0, 0.0))
    mass[0] = h[0] * (3.0 * vol[0] + vol[1]) / 8.0

    # unknown index of each node, -1 where f = 0 is forced
    free = np.abs(geo.u.values) < 2.0 * config.smallness_budget
    plateau = r >= 0.9 * grid.r_max
    if not np.all(free[plateau]):
        free[plateau] = False
    owner = np.cumsum(free & ~plateau) - 1
    owner[plateau] = owner[~plateau][-1] + 1
    owner[~free] = -1
    m = int(owner.max()) + 1

    M = np.bincount(owner[free], mass[free], m)
    d = np.bincount(owner[free], (pot * mass)[free], m)
    left, right = owner[:-1], owner[1:]
    cells = left != right                 # cells whose f may change
    for ends in (left, right):
        on = cells & (ends >= 0)
        d += np.bincount(ends[on], k[on], m)
    coupled = cells & (left >= 0) & (right >= 0)
    off = np.zeros(m - 1)
    off[left[coupled]] = -k[coupled]
    scale = np.sqrt(M)
    d /= M
    off /= scale[:-1] * scale[1:]
    rows = np.abs(d)                      # Gershgorin row sums of T
    rows[:-1] += np.abs(off)
    rows[1:] += np.abs(off)
    roundoff = 8.0 * 2.0 ** -53 * float(np.max(rows))

    lam, vec, residual, certified = _lowest_pair(d, off, roundoff)
    phi = np.where(free, vec[owner] / scale[owner], 0.0)
    norm = float(np.sum(mass * phi ** 2))
    sigma = float(np.sum(k * np.diff(phi) ** 2)
                  + np.sum(np.abs(pot) * mass * phi ** 2)) / norm
    bound = -(1e-8 * sigma + roundoff)

    # second opinion: the Simpson quadratic form on phi, with the grid's
    # kept Simpson weights
    dphi = SampledProfile(grid, phi).deriv1(r)
    kinetic = dphi ** 2 / a_check
    weights = grid.kept("simpson", lambda: _simpson_weights(r))
    norm_s = _simpson(phi ** 2 * vol, r, weights)
    form_s = _simpson((kinetic + pot * phi ** 2) * vol, r, weights) / norm_s
    sigma_s = _simpson((kinetic + np.abs(pot) * phi ** 2) * vol, r,
                       weights) / norm_s
    gap = abs(form_s - lam)
    gap_bound = 0.1 * sigma_s + roundoff

    big = r[np.abs(phi) >= 1e-3 * np.max(np.abs(phi))]
    return {"lambda_min": lam, "bound": bound, "lambda_residual": residual,
            "cross_check_gap": gap, "cross_check_bound": gap_bound,
            "support": [float(big[0]), float(big[-1])],
            "vacuous": bool(np.all(pot[free] >= 0.0)),
            "passed": bool((certified or lam >= bound)
                           and gap <= gap_bound)}


def _lowest_pair(d: np.ndarray, off: np.ndarray, roundoff: float):
    """Lowest eigenpair of the symmetric tridiagonal T = tridiag(off, d, off).

    Returns (lambda, phi, residual, certified).  T - s I with s = -roundoff
    is factored as L D L^T; by Sylvester's law of inertia, all pivots positive
    (``certified``) means lambda_min(T) > s.  Inverse iteration on that
    factor from the all-ones vector then finds the ground state, which is
    nonnegative because off <= 0 (Perron-Frobenius), and lambda is its
    Rayleigh quotient.  A nonpositive pivot, or no convergence in 30 solves,
    falls back to LAPACK bisection (stebz) and inverse iteration (stein).
    residual = ||T phi - lambda phi|| / ||phi|| in both cases.  Reductions use
    np.sum/np.max, not BLAS, so the result does not depend on its threads.
    """
    factor_d, factor_e, info = _pttrf(d + roundoff, off)
    certified = info == 0
    converged = False
    phi = np.ones((d.size, 1))
    if certified:
        for _ in range(30):
            x = _pttrs(factor_d, factor_e, phi)[0]
            x /= np.max(np.abs(x))
            converged = float(np.max(np.abs(x - phi))) <= 1e-13
            phi = x
            if converged:
                break
    if converged:
        phi = phi[:, 0]
    else:
        lam, vec = eigh_tridiagonal(d, off, select="i", select_range=(0, 0))
        lam, phi = float(lam[0]), vec[:, 0]
    t_phi = d * phi
    t_phi[:-1] += off * phi[1:]
    t_phi[1:] += off * phi[:-1]
    norm = float(np.sum(phi * phi))
    if converged:
        lam = float(np.sum(phi * t_phi)) / norm
    residual = math.sqrt(float(np.sum((t_phi - lam * phi) ** 2)) / norm)
    return lam, phi, residual, certified
