import copy

import numpy as np
import pytest
from scipy.linalg import solve_banded

from janglab.capillary import CapillaryConfig
from janglab.errors import (AuditInapplicable, ExhaustionNonconvergence,
                            InvalidArgument, NewtonDivergence)
from janglab.geometry import RadialFrame, make_dataset
from janglab.grids import RadialGrid, build_grid
from janglab.jang_solver import (ARMIJO_C, CONTINUATION_STEP,
                                 NEWTON_MAX_DAMPING_FAILURES, NEWTON_MAX_ITER,
                                 TOL_NEWTON, GradientAuditSpec,
                                 capillary_residual, continuation_solve,
                                 estimate_audits, exhaustion_solve,
                                 gradient_ball_audit, jang_jacobian_banded,
                                 jang_jacobian_dense, jang_operator,
                                 newton_solve, _residual)
from janglab.profiles import SampledProfile, constant_profile


def synthetic_config(n=4, r0=1.0, grid=None, q_const=1.0, tau=1e-6):
    """Hand-built capillary configuration for solver-only tests."""
    q = (SampledProfile(grid, np.full_like(grid.nodes, q_const), label="Q")
         if grid is not None else constant_profile(q_const))
    return CapillaryConfig(r0=r0, kappa0=1.0, kappa1=1.0, Q=q,
                           s0=r0 / 4.0, s1=r0, tau=tau, n=n, delta=0.5)


# ---------------------------------------------------------------------------
# operator
# ---------------------------------------------------------------------------

def test_operator_vanishes_for_zero_solution_zero_coupling(dec_data,
                                                           base_grid):
    w = np.zeros_like(base_grid.nodes)
    out = jang_operator(dec_data, w, 0.0, base_grid)
    assert np.max(np.abs(out)) < 1e-15


def test_operator_flat_closed_form():
    # flat metric, q = 0: the operator on a radial graph w(r) is
    # w''/(1+w'^2)^{3/2} + (n-1) w' / (r (1+w'^2)^{1/2}); cross-check on a
    # smooth profile via an independent implementation
    grid = build_grid(16.0, 2048, "uniform")
    data = make_dataset("flat", 4, {})
    r = grid.nodes
    w = np.exp(-(r / 3.0) ** 2)
    out = jang_operator(data, w, 1.0, grid)
    dw = -2.0 * r / 9.0 * w
    d2w = (4.0 * r ** 2 / 81.0 - 2.0 / 9.0) * w
    with np.errstate(divide="ignore", invalid="ignore"):
        oracle = (d2w / (1.0 + dw ** 2) ** 1.5
                  + 3.0 * dw / (r * np.sqrt(1.0 + dw ** 2)))
    oracle[0] = 4.0 * d2w[0]
    # interior truncation error only (stencils are second order)
    assert np.max(np.abs(out - oracle)[1:-1]) < 2e-4
    assert abs(out[0] - oracle[0]) < 2e-4


def test_jacobian_matches_finite_differences(dec_data, cap_config):
    grid = build_grid(64.0, 64, "uniform")
    rng = np.random.default_rng(4)
    w = 0.1 * np.exp(-(grid.nodes / 5.0) ** 2) \
        + 0.01 * rng.standard_normal(grid.nodes.size)
    w[-1] = 0.0
    J = jang_jacobian_dense(dec_data, cap_config, w, 0.7, grid)
    frame = RadialFrame(dec_data, grid.nodes)
    m = w.size
    fd = np.zeros((m, m))
    h = 1e-7
    for j in range(m):
        e = np.zeros(m)
        e[j] = h
        fp = _residual(frame, cap_config, w + e, 0.7, grid)
        fm = _residual(frame, cap_config, w - e, 0.7, grid)
        fd[:, j] = (fp - fm) / (2.0 * h)
    scale = np.max(np.abs(J))
    assert np.max(np.abs(J - fd)) < 1e-6 * scale


# ---------------------------------------------------------------------------
# Newton and continuation
# ---------------------------------------------------------------------------

def test_newton_zero_coupling_is_exact(dec_data, cap_config, base_grid, r0):
    domain = base_grid.truncate(64.0 * r0)
    state = newton_solve(dec_data, cap_config, domain, 0.0,
                         np.zeros_like(domain.nodes))
    assert state.iterations == 0
    assert np.all(state.w == 0.0)
    assert state.residual_norm < 1e-15


def test_newton_evaluates_profiles_once_per_domain(dec_data, cap_config,
                                                   base_grid, r0):
    # every profile read goes through one frame per truncated domain, so the
    # number of profile evaluations does not grow with the Newton iterations
    calls = []

    class Counted:
        def __init__(self, prof):
            self.prof = prof

        def __call__(self, r):
            calls.append(0)
            return self.prof(r)

        def deriv1(self, r):
            calls.append(1)
            return self.prof.deriv1(r)

        def deriv2(self, r):
            calls.append(2)
            return self.prof.deriv2(r)

    data = copy.copy(dec_data)
    for name in ("a", "c", "q_rad", "q_tan"):
        setattr(data, name, Counted(getattr(dec_data, name)))
    solved = None
    counts = []
    for _ in range(2):
        domain = base_grid.truncate(64.0 * r0)
        w_init = (np.zeros_like(domain.nodes) if solved is None
                  else solved.w)
        calls.clear()
        state = newton_solve(data, cap_config, domain, 1.0, w_init)
        counts.append(len(calls))
        solved = solved or state
    assert solved.iterations >= 2 and state.iterations == 0
    assert 0 < counts[0] == counts[1]


def _reference_newton(data, config, grid, lam, w_init):
    """Newton as a separate residual, banded Jacobian and solve_banded per
    iterate: the loop the solver's shared-evaluation path must reproduce."""
    frame = RadialFrame.on(data, grid)
    q_max = float(np.max(np.abs(frame.q_norm)))
    w = np.asarray(w_init, dtype=float).copy()
    w[-1] = 0.0
    res = _residual(frame, config, w, lam, grid)
    norm = float(np.max(np.abs(res)))
    tol = TOL_NEWTON * max(
        1.0, config.tau ** 2 * float(np.max(np.abs(w))) + q_max)
    halvings = 0
    for it in range(NEWTON_MAX_ITER):
        if norm < tol:
            return w, it, halvings
        ab = jang_jacobian_banded(data, config, w, lam, grid)
        step = solve_banded((1, 1), ab, -res)
        t = 1.0
        for _ in range(NEWTON_MAX_DAMPING_FAILURES):
            trial = w + t * step
            trial_res = _residual(frame, config, trial, lam, grid)
            trial_norm = float(np.max(np.abs(trial_res)))
            if trial_norm <= (1.0 - ARMIJO_C * t) * norm:
                break
            t *= 0.5
            halvings += 1
        else:
            raise AssertionError("reference Newton needs no divergence here")
        w, res, norm = trial, trial_res, trial_norm
    raise AssertionError("reference Newton did not converge")


def _bump_start(domain):
    return 6.0 * np.exp(-(domain.nodes / 3.0) ** 2)


@pytest.mark.parametrize("lam", [0.3, 1.0])
def test_newton_matches_reference_loop(dec_data, cap_config, base_grid, r0,
                                       lam):
    domain = base_grid.truncate(64.0 * r0)
    strong = synthetic_config(grid=base_grid, tau=0.3)
    zeros = np.zeros_like(domain.nodes)
    halvings = 0
    for config, w_init in ((cap_config, zeros), (strong, zeros),
                           (strong, _bump_start(domain))):
        state = newton_solve(dec_data, config, domain, lam, w_init)
        w, its, damped = _reference_newton(dec_data, config, domain, lam,
                                           w_init)
        assert np.array_equal(state.w, w)
        assert (state.iterations, state.damping_count) == (its, damped)
        halvings += damped
    assert halvings > 0   # the bump start exercises the damped path


def test_continuation_matches_reference_loop(dec_data, cap_config, base_grid,
                                             r0):
    domain = base_grid.truncate(64.0 * r0)
    strong = synthetic_config(grid=base_grid, tau=0.3)
    zeros = np.zeros_like(domain.nodes)
    for config, w_init in ((cap_config, zeros), (strong, _bump_start(domain))):
        trace = []
        state = continuation_solve(dec_data, config, domain, w_init=w_init,
                                   trace=trace)
        # lambda path 0, 0.1, ..., 1 with the same rounding as the solver
        w, lam = w_init, 0.0
        expected = []
        while True:
            w, its, damped = _reference_newton(dec_data, config, domain, lam,
                                               w)
            expected.append((lam, its, damped))
            if lam == 1.0:
                break
            lam = lam + min(CONTINUATION_STEP, 1.0 - lam)
            if abs(1.0 - lam) < 1e-12:
                lam = 1.0
        assert [(e["lambda"], e["iterations"], e["damping_count"])
                for e in trace] == expected
        assert np.array_equal(state.w, w)
        assert trace[0]["damping_count"] > 0 or w_init is zeros


def test_newton_evaluates_each_iterate_once(dec_data, cap_config, base_grid,
                                            r0, monkeypatch):
    calls = {"deriv1": 0, "deriv2": 0, "zeta": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("deriv1", "deriv2"):
        monkeypatch.setattr(RadialGrid, name,
                            counted(name, getattr(RadialGrid, name)))
    config = copy.copy(synthetic_config(grid=base_grid, tau=0.3))
    config.zeta = counted("zeta", config.zeta)
    domain = base_grid.truncate(64.0 * r0)

    state = newton_solve(dec_data, config, domain, 1.0, _bump_start(domain))
    trials = 1 + state.iterations + state.damping_count
    assert state.damping_count > 0
    assert calls == {"deriv1": trials, "deriv2": trials, "zeta": 1}

    calls.update(deriv1=0, deriv2=0, zeta=0)
    trace = []
    continuation_solve(dec_data, config, domain, trace=trace)
    # one evaluation of the start, then one per trial; a converged step's
    # evaluation is the next step's first
    trials = 1 + sum(e["iterations"] + e["damping_count"] for e in trace)
    assert len(trace) == 11
    assert calls == {"deriv1": trials, "deriv2": trials, "zeta": 1}


def test_newton_runaway_start_does_not_converge(dec_data, base_grid):
    # the stopping tolerance is scaled by the start, so an iterate that runs
    # off (max|w| = 2.3e29 here when the scale followed the iterate) cannot
    # meet it
    domain = base_grid.truncate(64.0)
    start = 3.0 * np.exp(-domain.nodes ** 2)
    with pytest.raises(NewtonDivergence):
        newton_solve(dec_data, synthetic_config(grid=base_grid), domain, 1.0,
                     start)


def test_newton_momentum_free_solution_is_zero():
    # with q = 0 the zero function solves the problem at every lambda
    grid = build_grid(512.0, 1024, "uniform")
    data = make_dataset("flat", 4, {})
    config = synthetic_config(grid=grid)
    domain = grid.truncate(64.0)
    state = newton_solve(data, config, domain, 1.0,
                         np.zeros_like(domain.nodes))
    assert np.max(np.abs(state.w)) < 1e-12


def test_newton_rejects_bad_domain(dec_data, cap_config, base_grid, r0):
    with pytest.raises(InvalidArgument):
        domain = base_grid.truncate(16.0 * r0)
        newton_solve(dec_data, cap_config, domain, 0.0,
                     np.zeros_like(domain.nodes))
    domain = base_grid.truncate(64.0 * r0)
    with pytest.raises(InvalidArgument):
        newton_solve(dec_data, cap_config, domain, 0.0, np.zeros(7))


def test_continuation_reaches_full_coupling(dec_data, cap_config, base_grid,
                                            r0):
    domain = base_grid.truncate(64.0 * r0)
    trace = []
    state = continuation_solve(dec_data, cap_config, domain, trace=trace)
    assert state.lam == 1.0
    assert state.residual_norm < 1e-10 * max(
        1.0, float(np.max(dec_data.n * dec_data.q_frame_norm(
            domain.nodes))))
    lams = [t["lambda"] for t in trace]
    assert lams[0] == 0.0 and lams[-1] == 1.0
    assert np.all(np.diff(lams) > 0.0)
    assert np.max(np.abs(state.w)) > 1e-3   # the coupling actually acts
    # Dirichlet condition and residual re-evaluation
    assert state.w[-1] == 0.0
    res = capillary_residual(dec_data, cap_config, state)
    assert np.max(np.abs(res)) == state.residual_norm


def test_solution_is_odd_in_momentum_sign(dec_data, cap_config, base_grid,
                                          r0):
    flipped = copy.copy(dec_data)

    class Neg:
        def __init__(self, p):
            self.p = p

        def __call__(self, r):
            return -self.p(r)

        def deriv1(self, r):
            return -self.p.deriv1(r)

        def deriv2(self, r):
            return -self.p.deriv2(r)
    flipped.q_rad = Neg(dec_data.q_rad)
    flipped.q_tan = Neg(dec_data.q_tan)
    domain = base_grid.truncate(64.0 * r0)
    s_plus = continuation_solve(dec_data, cap_config, domain)
    s_minus = continuation_solve(flipped, cap_config, domain)
    assert np.max(np.abs(s_plus.w + s_minus.w)) < 2e-10


# ---------------------------------------------------------------------------
# exhaustion
# ---------------------------------------------------------------------------

def test_exhaustion_limit_structure(jang_limit, base_grid, r0):
    assert jang_limit.converged_radius == 64.0 * r0
    assert jang_limit.outer_radius == 256.0 * r0
    r = base_grid.nodes
    assert np.all(jang_limit.u[r > jang_limit.outer_radius] == 0.0)
    assert len(jang_limit.trace) == 3
    gaps = [e["cauchy_gap"] for e in jang_limit.trace[1:]]
    assert all(g is not None and g > 0.0 for g in gaps)
    # boundary influence shrinks with the outer radius
    assert gaps[1] < 0.75 * gaps[0]
    assert jang_limit.trace[-1]["extrapolated_error"] < 1e-4
    for e in jang_limit.trace:
        assert e["residual_norm"] < 1e-9
        assert e["sup_w"] > 0.0 and e["sup_dw_g"] > 0.0


def test_exhaustion_schedule_validation(dec_data, cap_config, base_grid, r0):
    with pytest.raises(InvalidArgument):
        exhaustion_solve(dec_data, cap_config, [], base_grid)
    with pytest.raises(InvalidArgument):
        exhaustion_solve(dec_data, cap_config, [16.0 * r0], base_grid)
    with pytest.raises(InvalidArgument):
        exhaustion_solve(dec_data, cap_config, [64.0 * r0, 4096.0 * r0],
                         base_grid)


def test_exhaustion_nonconvergence_on_stalled_schedule(dec_data, cap_config,
                                                       base_grid, r0):
    # two nearby radii produce a single gap that neither meets the Cauchy
    # tolerance nor demonstrates geometric contraction
    with pytest.raises(ExhaustionNonconvergence):
        exhaustion_solve(dec_data, cap_config, [64.0 * r0, 66.0 * r0],
                         base_grid)


def test_exhaustion_trivial_data_is_zero():
    grid = build_grid(512.0, 1024, "uniform")
    data = make_dataset("flat", 4, {})
    config = synthetic_config(grid=grid)
    limit = exhaustion_solve(data, config, [64.0, 128.0, 256.0], grid)
    assert np.max(np.abs(limit.u)) < 1e-12


# ---------------------------------------------------------------------------
# estimate audits
# ---------------------------------------------------------------------------

def test_estimates_pass_on_converged_limit(dec_data, cap_config, jang_limit,
                                           barrier):
    report = estimate_audits(dec_data, cap_config, jang_limit, barrier)
    assert report["passed"]
    names = set(report["entries"])
    assert names == {"barrier_envelope", "decay_envelope", "sup_bound",
                     "gradient_uniformity", "decay_rates", "gradient_ball"}
    assert report["entries"]["decay_rates"]["slope_u"] < -0.8


def test_estimates_flag_corrupted_solution(dec_data, cap_config, jang_limit,
                                           barrier, base_grid):
    bad = copy.copy(jang_limit)
    bad.u = jang_limit.u.copy()
    i = int(np.searchsorted(base_grid.nodes, 10.0))
    bad.u[i] += 10.0          # well above every envelope at r ~ 10
    report = estimate_audits(dec_data, cap_config, bad, barrier)
    assert not report["passed"]
    entry = report["entries"]["barrier_envelope"]
    assert not entry["passed"]
    loc = entry["first_violation"]
    assert abs(loc["node_radius"] - base_grid.nodes[i]) < 1e-9
    assert loc["value"] > loc["bound"]


def test_gradient_ball_audit_rejects_small_A(dec_data, cap_config,
                                             jang_limit):
    prof = jang_limit.profile()
    spec = GradientAuditSpec(A=4.0, sigma=4.0 * cap_config.r0,
                             center=4.0 * cap_config.r0)
    auto = gradient_ball_audit(dec_data, cap_config, prof,
                               GradientAuditSpec(sigma=4.0 * cap_config.r0,
                                                 center=4.0 * cap_config.r0))
    required = auto["required_A"]
    if required > 4.0:
        with pytest.raises(AuditInapplicable):
            gradient_ball_audit(dec_data, cap_config, prof, spec)
    big = GradientAuditSpec(A=required + 1.0, sigma=4.0 * cap_config.r0,
                            center=4.0 * cap_config.r0)
    rep = gradient_ball_audit(dec_data, cap_config, prof, big)
    assert rep["passed"]


def test_gradient_ball_audit_trivial_solution(base_grid):
    data = make_dataset("flat", 4, {})
    config = synthetic_config(grid=base_grid)
    prof = SampledProfile(base_grid, np.zeros_like(base_grid.nodes))
    rep = gradient_ball_audit(data, config, prof,
                              GradientAuditSpec(sigma=4.0, center=4.0))
    assert rep["passed"] and rep["C0"] == 0.0


def test_gradient_ball_audit_needs_enough_nodes(dec_data, cap_config,
                                                jang_limit):
    prof = jang_limit.profile()
    with pytest.raises(AuditInapplicable):
        gradient_ball_audit(dec_data, cap_config, prof,
                            GradientAuditSpec(sigma=1e-3, center=4.0))

