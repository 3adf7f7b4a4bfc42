"""Damped-Newton solver for the capillary-regularized radial Jang problems.

The unknown w lives on the base grid cut at an outer radius r_j
(``RadialGrid.kept_truncation``), with a Dirichlet condition w(r_j) = 0 and
an even-symmetry (Neumann) closure at the origin.  The discrete residual is the
warped-product reduction of the graph mean-curvature operator minus lambda
times the contracted momentum profile, minus the capillary term
tau^2 zeta^2 w.  The Jacobian is tridiagonal, is
assembled analytically and is solved with LAPACK's gtsv; the lambda-free
graph terms of each Newton iterate are evaluated once and shared by its
residual and its Jacobian.  lambda-continuation from 0 to 1 starts each
lambda step from the previous step's solution.  An exhaustion over
increasing outer radii produces the entire-space limit.  Each radius is one
damped Newton solve at lambda = 1, the first started from zero and each
later one from the previous radius's nodal solution; a radius falls back to
the continuation from the same start only when that solve fails.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

from .barrier import BarrierProfile
from .capillary import CapillaryConfig
from .errors import (AuditInapplicable, ContinuationFailure,
                     ExhaustionNonconvergence, InvalidArgument,
                     NewtonDivergence, NumericalDegeneracy, SingularJacobian)
from .geometry import (GraphTerms, RadialFrame, RadialInitialData,
                       dq_frame_norm, graph_combination, graph_operator,
                       graph_terms, loglog_slope, ricci_eigenvalues)
from .grids import MIN_NODES, RadialGrid
from .profiles import SampledProfile
from .verdicts import nodewise

NEWTON_MAX_ITER = 60
NEWTON_MAX_DAMPING_FAILURES = 30
ARMIJO_C = 1e-4
TOL_NEWTON = 1e-10
CONTINUATION_STEP = 0.1
CONTINUATION_MIN_STEP = 1.0 / 256.0
EXHAUSTION_TOL = 1e-8

_gtsv = get_lapack_funcs("gtsv", dtype=np.float64)
# what a solve at one exhaustion radius can raise
_SOLVER_ERRORS = (ContinuationFailure, NewtonDivergence, NumericalDegeneracy,
                  SingularJacobian)


# ---------------------------------------------------------------------------
# state types
# ---------------------------------------------------------------------------

def _spline(cached, grid: RadialGrid, values) -> SampledProfile:
    """``cached`` while it still interpolates ``values`` on ``grid``."""
    if cached is None or cached.values is not values or cached.grid is not grid:
        return SampledProfile(grid, values)
    return cached


@dataclass
class JangState:
    """Converged nodal solution on a truncated grid at a fixed lambda.

    The outer radius r_j of the problem is ``grid.r_max``.
    """

    w: np.ndarray
    lam: float
    residual_norm: float
    grid: RadialGrid
    iterations: int = 0
    damping_count: int = 0
    _profile: SampledProfile | None = field(default=None, init=False,
                                            repr=False, compare=False)

    def profile(self) -> SampledProfile:
        """w as a spline profile, built once per w array."""
        self._profile = _spline(self._profile, self.grid, self.w)
        return self._profile


@dataclass
class JangLimit:
    """Exhaustion limit: nodal u on the base grid plus the per-radius trace."""

    u: np.ndarray
    grid: RadialGrid
    trace: list = field(default_factory=list)
    outer_radius: float = 0.0
    _profile: SampledProfile | None = field(default=None, init=False,
                                            repr=False, compare=False)

    def profile(self) -> SampledProfile:
        """u as a spline profile, built once per u array."""
        self._profile = _spline(self._profile, self.grid, self.u)
        return self._profile


# ---------------------------------------------------------------------------
# residual and Jacobian
# ---------------------------------------------------------------------------

def jang_operator(data: RadialInitialData, w: np.ndarray, lam: float,
                  grid: RadialGrid) -> np.ndarray:
    """Graph mean-curvature contraction minus lambda times contracted q.

    Interior nodes use the grid's three-point stencils; the origin uses the
    even-symmetry closure w'(0) = 0, w''(0) = 2 (w_1 - w_0)/r_1^2.
    """
    frame = RadialFrame.on(data, grid)
    w = np.asarray(w, dtype=float)
    out = graph_operator(frame, grid.deriv1(w), grid.deriv2(w), lam)
    _origin_row(out, frame, w, lam, grid)
    return out


def _origin_row(out, frame, w, lam, grid):
    # origin closure: isotropic Hessian, w'(0) = 0
    n = frame.n
    out[0] = (n * grid.even_deriv2_origin(w) / frame.a[0]
              - lam * (frame.q_rad[0] + (n - 1) * frame.q_tan[0]))


class _System:
    """The discrete problem on one grid, with its lambda-free data fixed.

    The frame and the cutoff are the grid's; tau^2 zeta^2, max |q| and
    (n - 1) warp_a are evaluated once, and lam q_rad, lam q_tan once per
    lambda.  ``terms`` evaluates the graph terms of one iterate, which its
    residual and its Jacobian then share at any lambda.
    """

    def __init__(self, frame: RadialFrame, config: CapillaryConfig,
                 grid: RadialGrid):
        self.frame = frame
        self.grid = grid
        self.tau2 = config.tau ** 2
        self.cap = self.tau2 * config.cutoff(grid)[0] ** 2
        self.q_max = float(np.max(np.abs(frame.q_norm)))
        self.tan_weight = (frame.n - 1) * frame.warp_a
        self._lam_q = (None, None)

    def terms(self, w) -> GraphTerms:
        return graph_terms(self.frame, self.grid.deriv1(w), self.grid.deriv2(w))

    def lam_q(self, lam):
        """(lam q_rad, lam q_tan), formed once per lambda."""
        key = (lam, math.copysign(1.0, lam))
        if self._lam_q[0] != key:
            frame = self.frame
            self._lam_q = key, (lam * frame.q_rad, lam * frame.q_tan)
        return self._lam_q[1]

    def residual(self, w, t: GraphTerms, lam):
        res = graph_combination(self.frame, t, lam, self.lam_q(lam))
        _origin_row(res, self.frame, w, lam, self.grid)
        res -= self.cap * w
        res[-1] = w[-1]  # Dirichlet row
        return res

    def tolerance(self, w) -> float:
        """Residual tolerance scaled by w, the iterate Newton starts from."""
        scale = self.tau2 * float(np.max(np.abs(w))) + self.q_max
        return TOL_NEWTON * max(1.0, scale)

    def tridiagonal(self, t: GraphTerms, lam):
        """(sub, diagonal, super) of the residual's Jacobian at the iterate t.

        With F the graph combination, dF/ds = P^{-3/2}/a and

            dF/dp = (-3 (p/a) P^{-5/2} hess - P^{-3/2} a'/(2a)) / a
                    + lam q_rad P^{-2} (2 p/a)
                    + (n - 1) warp_a (P^{-1/2} - p^2 P^{-3/2}/a),

        each accumulated in place in that order.
        """
        frame, grid = self.frame, self.grid
        a = frame.a
        d1, d2, _ = grid._weights()
        p, P = t.p, t.P

        dF_ds = np.divide(t.P_m32, a)
        dF_dp = np.divide(p, a)
        dF_dp *= -3.0
        term = np.power(P, -2.5)
        dF_dp *= term
        dF_dp *= t.hess
        dF_dp -= np.multiply(t.P_m32, frame.half_dlog_a, out=term)
        dF_dp /= a
        np.power(P, -2.0, out=term)
        term *= self.lam_q(lam)[0]
        slope = np.multiply(2.0, p)
        slope /= a
        term *= slope
        dF_dp += term
        np.square(p, out=term)
        term *= t.P_m32
        term /= a
        np.subtract(t.P_m12, term, out=term)
        term *= self.tan_weight
        dF_dp += term

        # interior rows couple (i-1, i, i+1) through the stencils:
        # ds d2[k] + dp d1[k], in place
        ds, dp, scratch = dF_ds[1:-1], dF_dp[1:-1], term[1:-1]
        m = p.size
        sub, diag, sup = np.empty(m - 1), np.empty(m), np.empty(m - 1)
        for k, row in enumerate((sub[:-1], diag[1:-1], sup[1:])):
            np.multiply(ds, d2[k], out=row)
            row += np.multiply(dp, d1[k], out=scratch)
        diag[1:-1] -= self.cap[1:-1]
        # origin row: F_0 = 2 n (w_1 - w_0)/(r_1^2 a_0) - lam tr q(0) - cap_0 w_0
        k = 2.0 * frame.n / (grid.nodes[1] ** 2 * a[0])
        diag[0] = -k - self.cap[0]
        sup[0] = k
        # Dirichlet row
        diag[-1] = 1.0
        sub[-1] = 0.0
        return sub, diag, sup

    def newton_step(self, t: GraphTerms, lam, res):
        """Solve J step = -res with LAPACK's tridiagonal solver gtsv."""
        sub, diag, sup = self.tridiagonal(t, lam)
        *_, step, info = _gtsv(sub, diag, sup, -res, True, True, True, True)
        if info > 0:
            raise SingularJacobian("singular matrix")
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("non-finite Newton step")
        return step


# ---------------------------------------------------------------------------
# Newton / continuation / exhaustion
# ---------------------------------------------------------------------------

def _initial_iterate(config, grid, w_init) -> np.ndarray:
    if grid.r_max <= 32.0 * config.r0:
        raise InvalidArgument(
            f"outer radius {grid.r_max} must exceed 32 r0 = {32.0 * config.r0}")
    w = np.asarray(w_init, dtype=float).copy()
    if w.shape != grid.nodes.shape:
        raise InvalidArgument("w_init must match the truncated grid")
    w[-1] = 0.0
    return w


def newton_solve(data: RadialInitialData, config: CapillaryConfig,
                 grid: RadialGrid, lam: float,
                 w_init: np.ndarray) -> JangState:
    """Damped Newton with Armijo backtracking on the residual max-norm.

    ``grid`` is a truncated grid (``base.truncate(r_j)``); w vanishes at its
    outer node.
    """
    w = _initial_iterate(config, grid, w_init)
    system = _System(RadialFrame.on(data, grid), config, grid)
    return _newton(system, lam, w)[0]


def _newton(system: _System, lam: float, w: np.ndarray,
            terms: GraphTerms | None = None, min_steps: int = 0):
    """Newton from w; ``terms`` are w's graph terms when already evaluated.

    Each trial iterate is evaluated once, and the accepted trial's terms
    serve the next Jacobian.  The tolerance is fixed by the start, so an
    iterate that runs off cannot raise it.  Convergence is tested only after
    ``min_steps`` accepted steps.  Returns the state and its solution's
    terms.
    """
    if terms is None:
        terms = system.terms(w)
    res = system.residual(w, terms, lam)
    norm = float(np.max(np.abs(res)))
    tol = system.tolerance(w)
    damping_total = 0
    for it in range(NEWTON_MAX_ITER):
        if norm < tol and it >= min_steps:
            return JangState(w=w, lam=lam, residual_norm=norm,
                             grid=system.grid, iterations=it,
                             damping_count=damping_total), terms
        step = system.newton_step(terms, lam, res)
        t = 1.0
        accepted = False
        for _ in range(NEWTON_MAX_DAMPING_FAILURES):
            trial = np.multiply(t, step)
            trial += w
            trial_terms = system.terms(trial)
            trial_res = system.residual(trial, trial_terms, lam)
            trial_norm = float(np.max(np.abs(trial_res)))
            if trial_norm <= (1.0 - ARMIJO_C * t) * norm:
                accepted = True
                break
            t *= 0.5
            damping_total += 1
        if not accepted:
            raise NewtonDivergence(
                f"{NEWTON_MAX_DAMPING_FAILURES} consecutive damping failures "
                f"at lambda={lam}, residual {norm:.3e}")
        w, terms, res, norm = trial, trial_terms, trial_res, trial_norm
    if norm < tol:
        return JangState(w=w, lam=lam, residual_norm=norm, grid=system.grid,
                         iterations=NEWTON_MAX_ITER,
                         damping_count=damping_total), terms
    raise NewtonDivergence(
        f"no convergence in {NEWTON_MAX_ITER} iterations (residual {norm:.3e})")


def continuation_solve(data: RadialInitialData, config: CapillaryConfig,
                       grid: RadialGrid,
                       w_init: np.ndarray | None = None,
                       trace: list | None = None) -> JangState:
    """Path-follow lambda from 0 to 1 with warm-started Newton.

    ``grid`` is a truncated grid, as for ``newton_solve``.  ``w_init`` (zero
    by default) is the start of the lambda = 0 solve.  Each lambda step
    starts from the previous step's solution and reuses its graph terms;
    they are dropped when the continuation returns.
    """
    if w_init is None:
        w_init = np.zeros_like(grid.nodes)
    w = _initial_iterate(config, grid, w_init)
    system = _System(RadialFrame.on(data, grid), config, grid)
    return _continuation(system, w, trace)


def _continuation(system: _System, w: np.ndarray, trace) -> JangState:
    lam = 0.0
    state, terms = _newton(system, lam, w)
    _record(trace, state)
    step = CONTINUATION_STEP
    while abs(lam - 1.0) > 1e-15:
        step = min(step, abs(1.0 - lam))
        lam_next = lam + step
        if abs(1.0 - lam_next) < 1e-12:
            lam_next = 1.0   # avoid accumulated rounding in lambda
        try:
            nxt, nxt_terms = _newton(system, lam_next, state.w.copy(), terms)
        except NewtonDivergence:
            step *= 0.5
            if step < CONTINUATION_MIN_STEP:
                raise ContinuationFailure(
                    f"continuation stalled at lambda={lam} with step below "
                    f"{CONTINUATION_MIN_STEP}")
            continue
        lam = lam_next
        state, terms = nxt, nxt_terms
        _record(trace, state)
        step = min(2.0 * step, CONTINUATION_STEP)
    return state


def _warm_solve(data, config, grid: RadialGrid, w_init: np.ndarray,
                trace: list) -> JangState:
    """One damped Newton solve at lambda = 1 from ``w_init``.

    The solve takes at least one Newton step, so a start that already meets
    the tolerance still moves and its Cauchy gap is evidence.  If it
    diverges or meets a singular Jacobian, the lambda-continuation from
    ``w_init`` solves the radius instead, exactly as ``continuation_solve``
    does, and ``trace`` holds its steps.
    """
    w = _initial_iterate(config, grid, w_init)
    system = _System(RadialFrame.on(data, grid), config, grid)
    try:
        state, _ = _newton(system, 1.0, w, min_steps=1)
    except (NewtonDivergence, SingularJacobian):
        return _continuation(system, w, trace)
    _record(trace, state)
    return state


def _record(trace, state: JangState):
    if trace is not None:
        trace.append({"lambda": state.lam,
                      "iterations": state.iterations,
                      "residual_norm": state.residual_norm,
                      "damping_count": state.damping_count})


def exhaustion_solve(data: RadialInitialData, config: CapillaryConfig,
                     r_j_schedule, base_grid: RadialGrid) -> JangLimit:
    """Solve at lambda = 1 over increasing outer radii and extract the limit.

    Convergence on the compact region [0, R_c] (R_c = first schedule entry)
    is declared when either a successive-difference gap drops below
    ``EXHAUSTION_TOL`` or the gap sequence contracts geometrically (ratio
    <= 0.75, at least two gaps); in the latter case the Richardson-
    extrapolated remaining error is recorded in the trace.  The
    outer-boundary influence decays like r_j^{2-n}, so for low dimensions
    only the contraction route is reachable at practical radii.  Each radius
    r_j is solved on ``base_grid.kept_truncation(r_j)``, built once per
    base grid and radius: a view of the base grid when r_j is a node, and
    the base grid itself when r_j lies within a relative
    ``TRUNCATION_TOL`` of r_max; a schedule reaching beyond that
    raises InvalidArgument before any solve (``RadialGrid.radius_within``).
    The returned nodal u is the last iterate at the base nodes it shares,
    and zero beyond them; when the last radius is the base grid's r_max, it
    is that iterate itself, with its spline.

    Every radius is one damped Newton solve at lambda = 1 (``_warm_solve``).
    The first starts from zero; for perturbed-dec data at n = 4 it takes 1-2
    Newton iterations, against 20 for the lambda-continuation.  Each later
    radius differs from the previous one only near its new outer boundary,
    so it starts from the previous nodal solution (``_transfer``) and takes
    1 iteration.  Every solve takes at least one step.  If it fails, the
    radius falls back to the continuation from the same start, which from
    zero is ``continuation_solve``.  Each trace entry's ``newton_steps``
    holds the one lambda = 1 solve, or the continuation's steps.  A solver
    error at a radius is raised again, of its class, with r_j and the
    smallest and largest spacing of that radius's grid added to its message.
    """
    schedule = sorted(float(r) for r in r_j_schedule)
    if not schedule:
        raise InvalidArgument("empty exhaustion schedule")
    if schedule[0] <= 32.0 * config.r0:
        raise InvalidArgument("every schedule radius must exceed 32 r0")
    base_grid.radius_within(schedule[-1])
    R_c = schedule[0]
    compact = base_grid.nodes[base_grid.nodes <= R_c]

    trace = []
    prev_on_compact = None
    prev_state = None
    converged = False
    for r_j in schedule:
        grid = base_grid.kept_truncation(r_j)
        start = (np.zeros_like(grid.nodes) if prev_state is None
                 else _transfer(prev_state, grid))
        steps = []
        try:
            state = _warm_solve(data, config, grid, start, steps)
        except _SOLVER_ERRORS as exc:
            h = grid.spacings
            raise type(exc)(
                f"{exc} (at r_j = {r_j!r}, on a grid whose spacings run "
                f"from {h.min():.3g} to {h.max():.3g})") from exc
        on_compact = state.w[:compact.size]
        dw = state.profile().deriv1(grid.nodes)
        entry = {
            "r_j": r_j,
            "residual_norm": state.residual_norm,
            "sup_w": float(np.max(np.abs(state.w))),
            "sup_dw_g": float(np.max(np.abs(dw)
                                     / RadialFrame.on(data, grid).sqrt_a)),
            "newton_steps": steps,
            "cauchy_gap": None,
        }
        if prev_on_compact is not None:
            gap = float(np.max(np.abs(on_compact - prev_on_compact)))
            entry["cauchy_gap"] = gap
            if gap < EXHAUSTION_TOL:
                converged = True
        trace.append(entry)
        prev_on_compact = on_compact
        prev_state = state
    gaps = [e["cauchy_gap"] for e in trace if e["cauchy_gap"] is not None]
    extrapolated = None
    if not converged and len(gaps) >= 2:
        ratios = [gaps[i + 1] / gaps[i] for i in range(len(gaps) - 1)
                  if gaps[i] > 0.0]
        if ratios and max(ratios) <= 0.75:
            rho = ratios[-1]
            extrapolated = gaps[-1] * rho / (1.0 - rho)
            trace[-1]["extrapolated_error"] = extrapolated
            converged = True
    if not converged:
        raise ExhaustionNonconvergence(
            f"Cauchy criterion not met on [0, {R_c}]: gaps {gaps}")
    limit = JangLimit(u=_transfer(prev_state, base_grid), grid=base_grid,
                      trace=trace, outer_radius=prev_state.grid.r_max)
    # when u is the last w, w's spline (its slopes, solved for the trace) is
    # u's: ``JangLimit.profile`` keeps it only while it interpolates u
    limit._profile = prev_state._profile
    return limit


def _transfer(state: JangState, grid: RadialGrid) -> np.ndarray:
    """Previous nodal solution on ``grid``: w on the shared nodes, else 0.

    ``state.grid`` and ``grid`` are truncations of one base grid, or that
    grid itself, and ``grid`` reaches at least as far.  All but the last
    node of ``state.grid`` are base nodes, so they lead ``grid`` too.  Its
    last node, kept, appended or moved by ``truncate``, carries the
    Dirichlet value 0, which is what ``grid`` gets there and beyond.  At
    its own nodes the spline of w is w, so no interpolation is needed.  The
    result starts the next radius's lambda = 1 Newton solve, and its
    continuation if that solve fails; on the base grid it is the
    exhaustion limit.  When the last radius is the base grid itself, the
    limit is its w: every Newton step keeps the Dirichlet value w[-1] at
    +0.0, as set by ``_initial_iterate``.
    """
    if state.grid is grid:
        return state.w
    w = np.zeros_like(grid.nodes)
    w[:state.w.size - 1] = state.w[:-1]
    return w


# ---------------------------------------------------------------------------
# estimate audits
# ---------------------------------------------------------------------------

def estimate_audits(data: RadialInitialData, config: CapillaryConfig,
                    result: JangLimit, bp: BarrierProfile) -> dict:
    """Audit the a-priori bounds satisfied by an exhaustion limit.

    Returns a report dictionary with one entry per estimate and an overall
    pass flag.  An inapplicable gradient-ball audit becomes a failed entry
    with a note, so the other estimates are still reported.
    """
    grid = result.grid
    w, r_out, trace = result.u, result.outer_radius, result.trace
    r = grid.nodes
    n = data.n
    r0 = config.r0
    absw = np.abs(w)
    scale = max(1.0, float(np.max(absw)))
    tol = 1e-8 * scale
    entries = {}

    # (i) |w| <= b(r) - b(r_j) on (r0, r_j], r0 the barrier's, with the
    # grid's kept b
    sel = slice(bp.first_node(grid), int(np.searchsorted(r, r_out, "right")))
    [bvals] = bp.on_grid(grid, ("b",), sel.stop - sel.start)
    # (ii) |w| <= 2 r0^{n-2} r^{3-n} on (2 r0, r_j]
    sel2 = (r > 2.0 * r0) & (r <= r_out)
    envelopes = {
        "barrier_envelope": (sel, bvals - bvals[-1]),
        "decay_envelope": (sel2, 2.0 * r0 ** (n - 2) * r[sel2] ** (3 - n))}
    for name, (part, bound) in envelopes.items():
        vals = absw[part]
        verdict = nodewise(bound - vals, r[part], tol,
                           show={"value": vals, "bound": bound})
        entries[name] = {"sup": float(np.max(vals)),
                         "max_excess": float(np.max(vals - bound)),
                         **asdict(verdict)}

    # (iii) sup |w| <= max(2^{4-n} r0, tau^{-2} sup n|q|)
    qn = RadialFrame.on(data, grid).q_norm
    cap = max(2.0 ** (4 - n) * r0,
              float(np.max(n * qn)) / config.tau ** 2)
    entries["sup_bound"] = {
        "passed": bool(np.max(absw) <= cap + tol),
        "sup": float(np.max(absw)), "bound": cap, "first_violation": None}

    # (iv) uniform gradient bound across the exhaustion trace, which holds
    # at least two radii: exhaustion_solve returns only after a Cauchy gap
    sups = np.array([e["sup_dw_g"] for e in trace])
    med = float(np.median(sups))
    entries["gradient_uniformity"] = {
        "passed": bool(np.max(sups) <= 1.05 * med + tol),
        "sup": float(np.max(sups)), "bound": 1.05 * med,
        "per_radius": sups.tolist(), "first_violation": None}

    # (v) and (vi) read w's spline, which holds finite values only
    finite = nodewise(w, r, np.inf)
    if not finite.passed:
        note = f"w not finite at r = {finite.first_violation['node_radius']!r}"
        for name in ("decay_rates", "gradient_ball"):
            entries[name] = {"note": note, **asdict(finite)}
        return {"passed": False, "entries": entries}

    # (v) log-log decay of |u| and |u'| on the far window
    wprof = result.profile()
    dw = wprof.deriv1(r)
    window = (r >= 32.0 * r0) & (r <= 0.5 * r_out)
    slope_u = loglog_slope(r[window], w[window], floor=1e-280)
    slope_du = loglog_slope(r[window], dw[window], floor=1e-280)
    if np.max(absw) < 1e-14:
        entries["decay_rates"] = {"passed": True, "slope_u": None,
                                  "slope_du": None,
                                  "note": "solution vanishes identically",
                                  "first_violation": None}
    else:
        ok_u = slope_u is not None and slope_u <= -(n - 3) + 0.2
        ok_du = slope_du is not None and slope_du <= -(n - 2) + 0.2
        entries["decay_rates"] = {"passed": bool(ok_u and ok_du),
                                  "slope_u": slope_u, "slope_du": slope_du,
                                  "bound_u": -(n - 3) + 0.2,
                                  "bound_du": -(n - 2) + 0.2,
                                  "first_violation": None}

    # (vi) exponential-weight gradient audit on a geodesic ball
    try:
        entries["gradient_ball"] = gradient_ball_audit(data, config, wprof)
    except AuditInapplicable as exc:
        entries["gradient_ball"] = {"passed": False,
                                    "note": f"inapplicable: {exc}",
                                    "first_violation": None}

    return {"passed": all(e["passed"] for e in entries.values()),
            "entries": entries}


def gradient_ball_audit(data: RadialInitialData, config: CapillaryConfig,
                        wprof: SampledProfile) -> dict:
    """Exponential-weight gradient audit on the geodesic ball of radius
    sigma = 4 r0 about the radius 4 r0.

    The weight is (e^{A^2 sigma^{-1}(w - psi)} - 1)(1 + |dw|^2)^{1/2} with
    psi = 2 C0 sigma^{-1} (2 d(p, .)^2 - sigma^2), C0 = sup_ball |w| / sigma.
    A is the smallest value >= 4 making the hypothesis inequalities hold.
    The pass criterion is stability of the supremum within 10% between the
    working grid and its two-fold coarsening.  A Ricci value that is not
    finite at a ball node fails the audit, and its note names the radius;
    the origin of origin-singular data, whose curvature is NaN, is the one
    node left out.
    """
    grid = wprof.grid
    sigma = center = 4.0 * config.r0

    fine = _ball_supremum_data(data, config, wprof, grid, center, sigma)
    if fine is None:
        raise AuditInapplicable("geodesic ball contains too few grid nodes")
    ricci = fine["ricci"].first_violation
    if ricci is not None:
        return {"passed": False, "first_violation": ricci,
                "note": f"Ricci value not finite at r = {ricci['node_radius']!r}"}

    C0 = fine["C0"]
    if C0 < 1e-300:
        return {"passed": True, "A": 4.0, "sigma": sigma,
                "C0": 0.0, "sup": 0.0, "sup_coarse": 0.0,
                "note": "solution vanishes on the ball", "first_violation": None}

    required = fine["required_A"]
    A = max(4.0, required)

    # evaluate the weighted supremum on a shared dense radius set, with w
    # represented on the working grid and on its two-fold coarsening; C0,
    # A, and psi are fixed, so the comparison isolates the grid resolution
    coarse_grid = grid.coarsen()
    wc = SampledProfile(coarse_grid, wprof(coarse_grid.nodes))
    sup_fine = _dense_supremum(data, wprof, fine, A, sigma, C0)
    sup_coarse = _dense_supremum(data, wc, fine, A, sigma, C0)
    denom = max(sup_fine, sup_coarse, 1e-300)
    stable = np.isfinite(sup_fine) and np.isfinite(sup_coarse) and \
        abs(sup_fine - sup_coarse) <= 0.10 * denom
    return {"passed": bool(stable), "A": A, "sigma": sigma, "C0": C0,
            "sup": float(sup_fine), "sup_coarse": float(sup_coarse),
            "required_A": required, "first_violation": None}


def _ball_supremum_data(data, config, wprof, grid, center, sigma):
    r = grid.nodes
    # signed radial geodesic distance from the center, then the ball mask
    cum = RadialFrame.on(data, grid).length
    d_center = float(np.interp(center, r, cum))
    d = np.abs(cum - d_center)
    ball = d < sigma
    if np.count_nonzero(ball) < 8:
        return None
    w = wprof(r)
    C0 = float(np.max(np.abs(w[ball]))) / sigma

    # the rest on the nodes up to one past the ball: the grid's own stencils
    # at every node of the ball, and its frame, sliced
    end = min(max(int(np.flatnonzero(ball)[-1]) + 1, MIN_NODES + 1),
              r.size - 1)
    local = grid.truncate(r[end])
    m = local.nodes.size
    r, ball, w, d = r[:m], ball[:m], w[:m], d[:m]
    frame = RadialFrame.on(data, local)
    a = frame.a

    # hypothesis inequalities -> smallest admissible A on the ball
    ric_rad, ric_tan = ricci_eigenvalues(data, local)
    rad, tan = ric_rad[ball], ric_tan[ball]
    ric = np.minimum(rad, tan)
    singular = [0] if ball[0] and not data.origin_regular else []
    # every Ricci value is finite: ric >= -inf, decided where it is defined
    ricci = nodewise(ric, r[ball], np.inf, exclude=singular,
                     show={"ric_rad": rad, "ric_tan": tan})
    if not ricci.passed:
        return {"ricci": ricci}
    ric_min = float(np.min(ric[len(singular):]))
    qn = frame.q_norm
    dqn = dq_frame_norm(data, local)
    n = data.n
    zeta, zeta_d1 = config.cutoff(local)
    tz = config.tau * zeta
    tdz = config.tau * np.abs(zeta_d1) / frame.sqrt_a
    cutoff_load = (1.0 + tz ** 2 * sigma ** 2 + tdz ** 2 * sigma ** 4) * np.abs(w)

    # psi-hat = psi / C0; its Hessian scales linearly with C0
    psi_hat = 2.0 / sigma * (2.0 * d ** 2 - sigma ** 2)
    dpsi_hat = local.deriv1(psi_hat)
    d2psi_hat = local.deriv2(psi_hat)
    hess_rad = (d2psi_hat - frame.half_dlog_a * dpsi_hat) / a
    hess_tan = frame.warp_a * dpsi_hat
    hess_norm = np.sqrt(hess_rad ** 2 + (n - 1) * hess_tan ** 2)
    if ball[0]:
        hess_norm[0] = hess_norm[1]

    required_A = max(
        -ric_min * sigma ** 2 if ric_min < 0.0 else 0.0,
        sigma * float(np.max(n * qn[ball])),
        sigma ** 2 * float(np.max(n * dqn[ball])),
        8.0 * C0,                                  # |psi| <= A sigma / 4
        32.0 * C0,                                 # |d psi| <= A / 4
        4.0 * sigma * C0 * float(np.max(n * hess_norm[ball])),
        float(np.max(cutoff_load[ball])) / sigma,
    )
    return {"ricci": ricci, "C0": C0, "required_A": required_A,
            "r_nodes": grid.nodes, "cum": cum, "d_center": d_center,
            "r_lo": float(np.min(r[ball])), "r_hi": float(np.max(r[ball]))}


def _dense_supremum(data, wprof, info, A, sigma, C0):
    """Weighted supremum over a dense radius set spanning the ball."""
    r = np.linspace(info["r_lo"], info["r_hi"], 301)
    d = np.abs(np.interp(r, info["r_nodes"], info["cum"]) - info["d_center"])
    w = wprof(r)
    dw_g = np.abs(wprof.deriv1(r)) / np.sqrt(data.a(r))
    psi = C0 * 2.0 / sigma * (2.0 * d ** 2 - sigma ** 2)
    expo = A ** 2 / sigma * (w - psi)
    with np.errstate(over="ignore"):
        val = (np.exp(expo) - 1.0) * np.sqrt(1.0 + dw_g ** 2)
    return float(np.max(val))

