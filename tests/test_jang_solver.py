import copy

import numpy as np
import pytest
from scipy.linalg import solve_banded

import janglab.jang_solver
from janglab.barrier import find_r0
from janglab.capillary import CapillaryConfig, select_capillary_config
from janglab.errors import (AuditInapplicable, ExhaustionNonconvergence,
                            InvalidArgument, NewtonDivergence,
                            SingularJacobian)
from janglab.geometry import RadialFrame, RadialInitialData, make_dataset
from janglab.grids import RadialGrid, build_grid
from janglab.jang_solver import (ARMIJO_C, CONTINUATION_STEP, EXHAUSTION_TOL,
                                 NEWTON_MAX_DAMPING_FAILURES, NEWTON_MAX_ITER,
                                 TOL_NEWTON, continuation_solve,
                                 estimate_audits, exhaustion_solve,
                                 gradient_ball_audit, jang_operator,
                                 newton_solve, _System, _transfer)
from janglab.mass import fit_decay_exponent
from janglab.pipeline import exhaustion_schedule
from janglab.profiles import SampledProfile, constant_profile


def capillary_residual(data, config, state):
    """Full discrete residual vector including the Dirichlet boundary row."""
    return _residual(RadialFrame.on(data, state.grid), config, state.w,
                     state.lam, state.grid)


def _residual(frame, config, w, lam, grid):
    system = _System(frame, config, grid)
    w = np.asarray(w, dtype=float)
    return system.residual(w, system.terms(w), lam)


def jang_jacobian_banded(data, config, w, lam, grid):
    """Tridiagonal Jacobian of the discrete residual in solve_banded layout."""
    system = _System(RadialFrame.on(data, grid), config, grid)
    t = system.terms(np.asarray(w, dtype=float))
    sub, diag, sup = system.tridiagonal(t, lam)
    ab = np.zeros((3, diag.size))
    ab[0, 1:], ab[1], ab[2, :-1] = sup, diag, sub
    return ab


def jang_jacobian_dense(data, config, w, lam, grid):
    """Dense Jacobian, for finite-difference cross-checks."""
    ab = jang_jacobian_banded(data, config, w, lam, grid)
    m = w.size
    J = np.zeros((m, m))
    idx = np.arange(m)
    J[idx, idx] = ab[1]
    J[idx[:-1], idx[:-1] + 1] = ab[0, 1:]
    J[idx[1:], idx[1:] - 1] = ab[2, :-1]
    return J


def synthetic_config(grid, n=4, r0=1.0, q_const=1.0, tau=1e-6):
    """Hand-built capillary configuration for solver-only tests."""
    return CapillaryConfig(r0=r0, kappa0=1.0, kappa1=1.0,
                           Q=np.full_like(grid.nodes, q_const),
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
        # a fresh base grid: a truncated domain reads its base grid's frame
        domain = RadialGrid(base_grid.nodes).truncate(64.0 * r0)
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
    base = RadialGrid(base_grid.nodes)      # no cutoff kept on it yet
    domain = base.truncate(64.0 * r0)

    state = newton_solve(dec_data, config, domain, 1.0, _bump_start(domain))
    trials = 1 + state.iterations + state.damping_count
    assert state.damping_count > 0
    # zeta is evaluated once, on the base grid; the domain reads a slice
    assert calls == {"deriv1": trials, "deriv2": trials, "zeta": 1}
    assert np.shares_memory(config.cutoff(domain)[0], config.cutoff(base)[0])

    calls.update(deriv1=0, deriv2=0, zeta=0)
    trace = []
    continuation_solve(dec_data, config, domain, trace=trace)
    # one evaluation of the start, then one per trial; a converged step's
    # evaluation is the next step's first; the domain keeps its cutoff
    trials = 1 + sum(e["iterations"] + e["damping_count"] for e in trace)
    assert len(trace) == 11
    assert calls == {"deriv1": trials, "deriv2": trials, "zeta": 0}


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
        1.0, float(np.max(dec_data.n * RadialFrame(
            dec_data, domain.nodes).q_norm)))
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
    assert jang_limit.trace[0]["r_j"] == 64.0 * r0
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


def _continuation_exhaustion(data, config, schedule, base_grid):
    """The lambda-continuation at every radius, each later radius started
    from the previous solution: the exhaustion the lambda = 1 solves
    replace.  Returns u on the base grid, read from the last solution's
    spline at the base nodes inside its outer radius, and each radius's
    continuation steps."""
    state, steps = None, []
    for r_j in schedule:
        grid = base_grid.truncate(r_j)
        w0 = None if state is None else _transfer(state, grid)
        steps.append([])
        state = continuation_solve(data, config, grid, w_init=w0,
                                   trace=steps[-1])
    u = np.zeros_like(base_grid.nodes)
    inside = base_grid.nodes < state.grid.r_max   # w(r_out) = 0
    u[inside] = state.profile()(base_grid.nodes[inside])
    return u, steps


def _dec_setup(n, grid):
    data = make_dataset("perturbed-dec", n, {"m": 1.0, "amplitude": 0.05},
                        grid=grid, seed=7)
    r0 = find_r0(data, grid, [1.0, 2.0, 4.0, 8.0])
    return data, select_capillary_config(data, r0, grid)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_warm_exhaustion_matches_continuation_reference(n):
    grid = build_grid(512.0, 2048, "uniform")
    data, config = _dec_setup(n, grid)
    schedule = exhaustion_schedule(config.r0, grid.r_max)
    limit = exhaustion_solve(data, config, schedule, grid)
    u_ref, steps_ref = _continuation_exhaustion(data, config, schedule, grid)
    assert len(limit.trace) == len(steps_ref)
    assert np.max(np.abs(limit.u - u_ref)) < EXHAUSTION_TOL
    # the reference's first radius follows lambda from 0 in 0.1 steps
    assert [s["lambda"] for s in steps_ref[0]] == pytest.approx(
        np.linspace(0.0, 1.0, 11))
    for e in limit.trace:
        [step] = e["newton_steps"]       # one solve at lambda = 1
        assert step["lambda"] == 1.0
        assert 1 <= step["iterations"] <= 2
    total = sum(e["newton_steps"][0]["iterations"] for e in limit.trace)
    assert total <= 2 * len(schedule)
    assert total < sum(s["iterations"] for steps in steps_ref for s in steps)


@pytest.mark.parametrize("error", [NewtonDivergence, SingularJacobian])
def test_failed_warm_start_falls_back_to_continuation(
        dec_data, cap_config, base_grid, r0, monkeypatch, error):
    newton = janglab.jang_solver._newton
    warm = []

    def failing(*args, **kwargs):
        if kwargs.get("min_steps"):
            warm.append(args[1])
            raise error("forced")
        return newton(*args, **kwargs)
    monkeypatch.setattr(janglab.jang_solver, "_newton", failing)
    schedule = [64.0 * r0, 128.0 * r0, 256.0 * r0]
    limit = exhaustion_solve(dec_data, cap_config, schedule, base_grid)
    u_ref, steps_ref = _continuation_exhaustion(dec_data, cap_config,
                                                schedule, base_grid)
    assert warm == [1.0, 1.0, 1.0]
    assert np.array_equal(limit.u, u_ref)
    assert [e["newton_steps"] for e in limit.trace] == steps_ref


@pytest.mark.parametrize("case", ["geometric", "half-doubling"])
def test_exhaustion_radii_off_the_base_nodes(dec_data, base_grid, monkeypatch,
                                            case):
    # a geometric grid has no node at 64, 128 or 256; the r0 = 4 schedule
    # 181, 256, 362, 512 appends 181 and 362 and ends on the base grid
    if case == "geometric":
        grid = build_grid(512.0, 2048, "geometric", 1.001)
        data, config = _dec_setup(4, grid)
        schedule = exhaustion_schedule(config.r0, grid.r_max)
    else:
        grid, data = base_grid, dec_data
        config = select_capillary_config(data, 4.0, grid)
        schedule = exhaustion_schedule(4.0, grid.r_max)
        assert schedule[-1] == grid.r_max
    assert any(r not in grid.nodes for r in schedule)
    starts, states = [], []
    newton = janglab.jang_solver._newton

    def keep(system, lam, w, *args, **kwargs):
        starts.append(w.copy())
        out = newton(system, lam, w, *args, **kwargs)
        states.append(out[0])
        return out
    monkeypatch.setattr(janglab.jang_solver, "_newton", keep)
    limit = exhaustion_solve(data, config, schedule, grid)
    # one lambda = 1 solve per radius, none falls back
    assert [(s.lam, s.grid.r_max) for s in states] == [(1.0, r) for r in schedule]
    assert not np.any(starts[0])
    for prev, state, start in zip(states, states[1:], starts[1:]):
        k = int(np.count_nonzero(state.grid.nodes < prev.grid.r_max))
        assert np.array_equal(state.grid.nodes[:k], prev.grid.nodes[:k])
        assert np.array_equal(start[:k], prev.w[:k])
        assert not np.any(start[k:])
    u_ref, _ = _continuation_exhaustion(data, config, schedule, grid)
    assert np.max(np.abs(limit.u - u_ref)) < EXHAUSTION_TOL
    r_out = limit.outer_radius
    assert not np.any(limit.u[grid.nodes >= r_out])


def test_warm_radius_moves_before_it_converges():
    # at n = 5 the transferred start of the third radius already meets the
    # Newton tolerance; without a step its gap would be exactly 0 and the
    # decay exponent of u would move from -3.09 to -4.44
    grid = build_grid(512.0, 2048, "uniform")
    data = make_dataset("perturbed-dec", 5, {"m": 1.0, "amplitude": 0.05},
                        grid=grid, seed=7)
    r0 = find_r0(data, grid, [1.0, 2.0, 4.0, 8.0])
    config = select_capillary_config(data, r0, grid)
    schedule = exhaustion_schedule(r0, grid.r_max)
    limit = exhaustion_solve(data, config, schedule, grid)
    for e in limit.trace[1:]:
        assert e["newton_steps"][-1]["iterations"] >= 1
        assert e["cauchy_gap"] > 0.0
    u_ref, _ = _continuation_exhaustion(data, config, schedule, grid)
    window = (32.0 * r0, 0.5 * limit.outer_radius)
    exponent = fit_decay_exponent(limit.profile(), grid, window).exponent
    reference = fit_decay_exponent(SampledProfile(grid, u_ref), grid,
                                   window).exponent
    assert abs(exponent - reference) < 1e-6


def test_exhaustion_schedule_validation(dec_data, cap_config, base_grid, r0):
    with pytest.raises(InvalidArgument):
        exhaustion_solve(dec_data, cap_config, [], base_grid)
    with pytest.raises(InvalidArgument):
        exhaustion_solve(dec_data, cap_config, [16.0 * r0], base_grid)
    with pytest.raises(InvalidArgument):
        exhaustion_solve(dec_data, cap_config, [64.0 * r0, 4096.0 * r0],
                         base_grid)


def test_exhaustion_radius_at_r_max_within_the_truncation_tolerance(
        dec_data, cap_config, base_grid, r0):
    r_max = base_grid.r_max
    inner = [64.0 * r0, 128.0 * r0]
    assert inner[-1] < r_max
    exact = exhaustion_solve(dec_data, cap_config, inner + [r_max], base_grid)
    # a radius within a relative 1e-14 of r_max is r_max
    near = exhaustion_solve(dec_data, cap_config,
                            inner + [r_max * (1.0 + 5e-15)], base_grid)
    assert near.outer_radius == exact.outer_radius == r_max
    assert near.u.tobytes() == exact.u.tobytes()
    # one beyond it is off the grid, even within the 1e-12 once accepted
    for r_out in (r_max * (1.0 + 5e-13), r_max * (1.0 + 1e-12)):
        with pytest.raises(InvalidArgument, match="beyond r_max"):
            exhaustion_solve(dec_data, cap_config, inner + [r_out], base_grid)


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


def test_gradient_ball_audit_trivial_solution(base_grid):
    data = make_dataset("flat", 4, {})
    config = synthetic_config(grid=base_grid)
    prof = SampledProfile(base_grid, np.zeros_like(base_grid.nodes))
    rep = gradient_ball_audit(data, config, prof)
    assert rep["passed"] and rep["C0"] == 0.0
    assert rep["sigma"] == 4.0 * config.r0


def test_gradient_ball_audit_needs_enough_nodes(dec_data, base_grid,
                                                jang_limit):
    # the ball of radius 4 r0 = 0.2 about r = 0.2 holds two grid nodes
    config = synthetic_config(grid=base_grid, r0=0.05)
    with pytest.raises(AuditInapplicable):
        gradient_ball_audit(dec_data, config, jang_limit.profile())


def _ricci_with_holes(holes):
    """ricci_eigenvalues with NaN at the radii ``holes`` selects."""
    ricci = janglab.jang_solver.ricci_eigenvalues

    def holed(data, grid):
        out = [v.copy() for v in ricci(data, grid)]
        for v in out:
            v[holes(grid.nodes)] = np.nan
        return tuple(out)
    return holed


def test_gradient_ball_fails_on_a_ricci_value_that_is_not_finite(
        dec_data, cap_config, jang_limit, monkeypatch):
    # NaN Ricci values on the ball nodes in (2, 6) used to drop out of the
    # minimum that sizes A, so the audit passed with A unchanged
    monkeypatch.setattr(janglab.jang_solver, "ricci_eigenvalues",
                        _ricci_with_holes(lambda r: (r > 2.0) & (r < 6.0)))
    rep = gradient_ball_audit(dec_data, cap_config, jang_limit.profile())
    assert rep["passed"] is False
    first = rep["first_violation"]["node_radius"]
    assert 2.0 < first < 2.0 + 0.25 + 1e-12
    assert rep["note"] == f"Ricci value not finite at r = {first!r}"


@pytest.mark.parametrize("origin_regular", [True, False])
def test_gradient_ball_leaves_out_only_a_singular_origin(base_grid,
                                                         origin_regular,
                                                         monkeypatch):
    # on 0.8 (dr^2 + r^2 sigma) the ball about r = 4 of radius 4 holds the
    # origin; data declared origin-singular have NaN curvature there, the
    # one value the audit leaves out
    flat = constant_profile(0.0)
    data = RadialInitialData(n=4, a=constant_profile(0.8),
                             c=constant_profile(0.8), q_rad=flat, q_tan=flat,
                             origin_regular=origin_regular)
    config = synthetic_config(grid=base_grid)
    u = SampledProfile(base_grid, 1e-3 * np.exp(-base_grid.nodes))
    ball = janglab.jang_solver._ball_supremum_data(data, config, u, base_grid,
                                                   4.0, 4.0)
    assert ball["r_lo"] == 0.0
    ric_rad = janglab.jang_solver.ricci_eigenvalues(data, base_grid)[0]
    assert np.isnan(ric_rad[0]) != origin_regular
    assert gradient_ball_audit(data, config, u)["passed"]
    # any other ball node is decided, also the first one off the origin
    monkeypatch.setattr(janglab.jang_solver, "ricci_eigenvalues",
                        _ricci_with_holes(lambda r: r == r[1]))
    rep = gradient_ball_audit(data, config, u)
    assert not rep["passed"]
    assert rep["first_violation"]["node_radius"] == base_grid.nodes[1]



def test_limit_at_r_max_is_the_last_solution_and_its_spline(
        dec_data, cap_config, r0, base_grid, monkeypatch):
    # a schedule ending at r_max solves its last radius on the base grid:
    # the limit is that solution, whose Dirichlet value is +0.0, and its
    # spline (slopes solved once, for the trace) serves u
    states = []
    warm = janglab.jang_solver._warm_solve

    def recorded(*args):
        states.append(warm(*args))
        return states[-1]
    monkeypatch.setattr(janglab.jang_solver, "_warm_solve", recorded)
    limit = exhaustion_solve(dec_data, cap_config,
                             [64.0 * r0, 128.0 * r0, base_grid.r_max],
                             base_grid)
    last = states[-1]
    assert last.grid is base_grid and limit.u is last.w
    assert limit.u[-1] == 0.0 and not np.signbit(limit.u[-1])
    assert limit.profile() is last.profile()
    # the nodal copy a shorter last radius gets has the same bits
    copied = np.zeros_like(base_grid.nodes)
    copied[:-1] = last.w[:-1]
    assert np.array_equal(copied.view(np.int64), limit.u.view(np.int64))
