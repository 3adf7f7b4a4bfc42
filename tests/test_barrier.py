import numpy as np
import pytest
from scipy.integrate import quad

import janglab.barrier
from janglab.barrier import (BarrierProfile, _search_r0, barrier_csv,
                             barrier_inequality_audit, default_r0_candidates,
                             find_r0, ode_residual, ode_residual_audit)
from janglab.errors import DomainError, NoAdmissibleR0
from janglab.geometry import make_dataset
from janglab.grids import RadialGrid, build_grid
from janglab.jang_solver import JangLimit, estimate_audits
from janglab.profiles import AnalyticProfile
from janglab.verdicts import nodewise


def test_bprime_closed_form_matches_direct_quadrature_derivative():
    # b(s) = r0 Int_{s/r0}^inf (t^{2n-4}-1)^{-1/2} dt, so b'(s) is minus the
    # integrand at the lower limit; cross-check b against raw quadrature too
    bp = BarrierProfile(r0=1.5, n=4)
    for s in (2.0, 3.0, 10.0):
        rho = s / 1.5
        direct, _ = quad(lambda t: (t ** 4 - 1.0) ** -0.5, rho, np.inf,
                         limit=400)
        assert abs(bp.b(s) - 1.5 * direct) < 1e-8
        assert abs(bp.bprime(s) + (rho ** 4 - 1.0) ** -0.5) < 1e-14


def _b_by_quadrature(r0, n, s):
    # the integral after t = 1 + v^2, which removes the endpoint singularity
    p = 2 * n - 4
    val, _ = quad(lambda v: 2.0 * v / np.sqrt((1.0 + v * v) ** p - 1.0),
                  np.sqrt(s / r0 - 1.0), np.inf, epsrel=1e-12, epsabs=0.0,
                  limit=400)
    return r0 * val


@pytest.mark.parametrize("n", range(4, 11))
def test_closed_form_b_matches_quadrature(n):
    r0 = 1.5
    bp = BarrierProfile(r0=r0, n=n)
    s = r0 * (1.0 + np.geomspace(2e-9, 4095.0, 25))
    got = bp.b(s)
    want = np.array([_b_by_quadrature(r0, n, x) for x in s])
    assert np.max(np.abs(got - want) / want) < 1e-10


def test_b_array_matches_scalar_calls():
    bp = BarrierProfile(r0=1.0, n=5)
    s = np.geomspace(1.0 + 1e-6, 2048.0, 301)
    got = bp.b(s)
    assert isinstance(got, np.ndarray) and got.shape == s.shape
    assert np.array_equal(got, [bp.b(float(x)) for x in s])
    assert type(bp.b(2.0)) is float


def test_b_rejects_any_radius_at_r0():
    bp = BarrierProfile(r0=2.0, n=4)
    with pytest.raises(DomainError):
        bp.b(np.array([3.0, 2.0 * (1.0 + 5e-10), 5.0]))
    with pytest.raises(DomainError):
        bp.b(np.array([1.0, 3.0]))
    with pytest.raises(DomainError):
        bp.b(2.0)


def test_estimate_audits_evaluates_barrier_once(dec_data, cap_config,
                                                jang_limit, barrier,
                                                monkeypatch):
    calls = []
    original = BarrierProfile.b

    def counting(self, s):
        calls.append(np.size(s))
        return original(self, s)

    monkeypatch.setattr(BarrierProfile, "b", counting)
    # the limit on a grid that keeps no barrier values yet
    grid = RadialGrid(jang_limit.grid.nodes)
    limit = JangLimit(u=jang_limit.u, grid=grid, trace=jang_limit.trace,
                      outer_radius=jang_limit.outer_radius)
    report = estimate_audits(dec_data, cap_config, limit, barrier)
    assert report["entries"]["barrier_envelope"]["passed"]
    assert len(calls) == 1
    # the grid keeps b: a second audit there evaluates none
    again = estimate_audits(dec_data, cap_config, limit, barrier)
    assert again == report and len(calls) == 1


def test_bprime_is_derivative_of_b():
    bp = BarrierProfile(r0=1.0, n=5)
    h = 1e-5
    for s in (1.5, 2.0, 4.0):
        fd = (bp.b(s + h) - bp.b(s - h)) / (2.0 * h)
        assert abs(fd - bp.bprime(s)) < 1e-8


def test_bsecond_is_derivative_of_bprime():
    bp = BarrierProfile(r0=1.0, n=4)
    s = np.array([1.3, 2.0, 5.0])
    h = 1e-6
    fd = (bp.bprime(s + h) - bp.bprime(s - h)) / (2.0 * h)
    assert np.max(np.abs(fd - bp.bsecond(s))) < 1e-6


def test_barrier_slope_is_minus_one_at_matching_radius():
    # b' = -1 exactly where (s/r0)^{2n-4} = 2, i.e. s = r0 2^{1/(2n-4)}
    for n in (4, 5, 6):
        bp = BarrierProfile(r0=2.0, n=n)
        s_star = 2.0 * 2.0 ** (1.0 / (2 * n - 4))
        assert abs(float(bp.bprime(s_star)) + 1.0) < 1e-12


@pytest.mark.parametrize("n", [4, 5, 6])
def test_ode_residual_vanishes(n):
    bp = BarrierProfile(r0=1.0, n=n)
    s = np.geomspace(1.5, 64.0, 200)
    assert ode_residual_audit(bp, s) < 1e-9


def test_ode_audit_rejects_samples_at_r0():
    bp = BarrierProfile(r0=1.0, n=4)
    with pytest.raises(DomainError):
        ode_residual_audit(bp, np.array([1.0, 2.0]))


def test_barrier_decreasing_and_vanishing_at_infinity():
    bp = BarrierProfile(r0=1.0, n=4)
    s = np.array([1.5, 2.0, 4.0, 16.0, 128.0, 1024.0])
    b = np.array([bp.b(float(x)) for x in s])
    assert np.all(b > 0.0) and np.all(np.diff(b) < 0.0)
    assert np.all(bp.bprime(s) < 0.0) and np.all(bp.bsecond(s) > 0.0)
    # b ~ r0^2 / s for n = 4 at large s
    assert abs(b[-1] - 1.0 / 1024.0) < 1e-5


def test_flat_graph_operator_closed_form():
    # On flat data with q = 0 the operator at the barrier graph reduces to
    # the exact ODE combination -r0^{n-2} r^{1-n}
    data = make_dataset("flat", 4, {})
    bp = BarrierProfile(r0=1.0, n=4)
    r = np.geomspace(1.5, 100.0, 50)
    got = barrier_inequality_audit(data, bp, r)[0]
    want = -(1.0 / r) ** 3
    assert np.max(np.abs(got - want)) < 1e-13


def test_barrier_inequality_strict_on_vacuum_data():
    grid = build_grid(512.0, 1024, "uniform")
    data = make_dataset("schwarzschild", 4, {"m": 1.0})
    bp = BarrierProfile(r0=2.0, n=4)
    exterior = grid.nodes[grid.nodes > 2.0 * (1 + 1e-9)]
    minus, plus = barrier_inequality_audit(data, bp, exterior)
    assert np.max(minus) < 0.0
    assert np.max(plus) < 0.0
    assert nodewise(-np.maximum(minus, plus), exterior, strict=True).passed
    # on the grid the audit reads the grid's frame, sliced: the same bits
    on_grid = barrier_inequality_audit(data, bp, grid)
    assert all(np.array_equal(x, y) for x, y in zip(on_grid, (minus, plus)))


def test_barrier_inequality_rejects_interior_nodes(flat_data, base_grid):
    bp = BarrierProfile(r0=1.0, n=4)
    with pytest.raises(DomainError):
        barrier_inequality_audit(flat_data, bp, base_grid.nodes)


def test_find_r0_returns_smallest_admissible(dec_data, base_grid, r0):
    assert r0 == min(c for c in [1.0, 2.0, 4.0, 8.0])
    # a larger-only candidate list returns that larger radius
    assert find_r0(dec_data, base_grid, [4.0]) == 4.0


def test_find_r0_failure_modes(dec_data, base_grid):
    with pytest.raises(NoAdmissibleR0):
        find_r0(dec_data, base_grid, [])
    with pytest.raises(NoAdmissibleR0):
        find_r0(dec_data, base_grid, [1e6])    # outside the grid


def test_find_r0_rejects_non_decaying_momentum():
    # a q-tensor that does not decay dominates the barrier terms far out, so
    # the +q inequality fails for every candidate radius
    from janglab.profiles import constant_profile
    grid = build_grid(64.0, 256, "uniform")
    big = make_dataset("flat", 4, {})
    big.q_rad = constant_profile(-0.1)
    big.q_tan = constant_profile(-0.1)
    with pytest.raises(NoAdmissibleR0):
        find_r0(big, grid, [1.0, 2.0, 4.0])


def test_default_r0_candidates_inside_grid(base_grid):
    cands = default_r0_candidates(base_grid)
    assert cands[0] == 1.0
    assert max(cands) < base_grid.r_max / 8.0
    assert np.allclose(np.diff(np.log2(cands)), 1.0)


def test_barrier_csv_schema():
    bp = BarrierProfile(r0=1.0, n=4)
    text = barrier_csv(bp, np.array([2.0, 3.0]))
    lines = text.strip().split("\n")
    assert lines[0] == "s,b,bprime,bsecond,ode_residual"
    assert len(lines) == 3
    row = [float(v) for v in lines[1].split(",")]
    assert row[0] == 2.0 and abs(row[4]) < 1e-9


def test_barrier_profile_rejects_bad_parameters():
    with pytest.raises(DomainError):
        BarrierProfile(r0=-1.0, n=4)
    with pytest.raises(DomainError):
        BarrierProfile(r0=1.0, n=3)


def _search_every_candidate_in_full(data, grid, candidates):
    for r0 in sorted(candidates):
        if (0.0 < r0 < grid.r_max
                and np.count_nonzero(grid.nodes > r0 * (1.0 + 1e-9)) >= 8):
            minus, plus = barrier_inequality_audit(
                data, BarrierProfile(r0, data.n), grid)
            if np.all(minus < 0.0) and np.all(plus < 0.0):
                return r0, minus, plus
    return None


@pytest.mark.parametrize("n", [4, 5, 6])
def test_r0_search_with_prefix_rejection_matches_full_search(n, monkeypatch):
    grid = build_grid(512.0, 2048, "uniform")
    candidates = default_r0_candidates(grid)
    evaluated = []
    inequalities = janglab.barrier._inequalities

    def counted(frame, bp, *grid):
        evaluated.append(bp.r0)
        return inequalities(frame, bp, *grid)
    monkeypatch.setattr(janglab.barrier, "_inequalities", counted)
    for seed in (0, 1, 2):
        m = 16.0 if seed == 2 else 1.0      # r0 = 16 for n = 4
        data = make_dataset("perturbed-dec", n, {"m": m, "amplitude": 0.05},
                            grid=grid, seed=seed)
        want = _search_every_candidate_in_full(data, grid, candidates)
        evaluated.clear()
        got = _search_r0(data, grid, candidates)
        assert got[0] == want[0]
        for x, y in zip(got[1:3], want[1:]):
            assert np.array_equal(x.view(np.int64), y.view(np.int64))
        assert got[3].passed and got[3].first_violation is None
        # each rejected candidate was evaluated on its prefix only
        assert evaluated == [c for c in candidates if c < got[0]] + [got[0]] * 2


def test_r0_search_rejects_a_violation_beyond_twice_r0():
    # a momentum bump at r = 12 breaks the inequalities of r0 = 1 and 2 only
    # beyond 2 r0, where the prefix check does not look, and of r0 = 8
    # inside (8, 16]; r0 = 16 lies beyond the bump
    grid = build_grid(128.0, 1024, "uniform")
    data = make_dataset("flat", 4, {})
    bump = lambda r: -0.5 * np.exp(-((r - 12.0) / 2.0) ** 2)
    data.q_rad = data.q_tan = AnalyticProfile(
        lambda r, order: (bump(r),) * (order + 1))
    for r0 in (1.0, 2.0):
        minus, plus = barrier_inequality_audit(data, BarrierProfile(r0, 4), grid)
        bad = (minus >= 0.0) | (plus >= 0.0)
        assert np.any(bad)
        assert grid.nodes[grid.nodes > r0][np.argmax(bad)] > 2.0 * r0
    with pytest.raises(NoAdmissibleR0):
        _search_r0(data, grid, [1.0, 2.0])
    r0, minus, plus, verdict = _search_r0(data, grid, [1.0, 2.0, 8.0, 16.0])
    assert verdict.passed
    want = _search_every_candidate_in_full(data, grid, [1.0, 2.0, 8.0, 16.0])
    assert r0 == want[0] == 16.0
    assert np.array_equal(minus, want[1]) and np.array_equal(plus, want[2])


@pytest.mark.parametrize("spec", [(2048, "uniform", None),
                                  (2047, "geometric", 1.001)],
                         ids=["uniform", "geometric-odd"])
def test_kept_barrier_values_are_the_closed_forms_bit_for_bit(spec):
    n_intervals, policy, stretch = spec
    grid = build_grid(512.0, n_intervals, policy, stretch)
    closed_forms = ("b", "bprime", "bsecond")
    for n in (4, 5, 6, 7):
        for r0 in default_r0_candidates(grid):
            bp = BarrierProfile(r0, n)
            s = grid.nodes[grid.nodes > r0 * (1.0 + 1e-9)]
            # the head first, as the r0 search asks, then every node
            head = bp.on_grid(grid, ("bprime",), np.count_nonzero(s <= 2 * r0))
            kept = bp.on_grid(grid, closed_forms)
            assert np.shares_memory(kept[1], bp.on_grid(grid, ("bprime",))[0])
            for name, values in zip(closed_forms, kept):
                want = getattr(bp, name)(s)
                assert values.shape == s.shape
                assert np.array_equal(values.view(np.int64),
                                      want.view(np.int64))
                assert not values.flags.writeable
                with pytest.raises(ValueError):
                    values[0] = 0.0
            assert np.array_equal(head[0], kept[1][:head[0].size])
    # every (r0, n) asked for stays kept
    assert [key for key in grid._keeps if key[0] == "barrier"] == [
        ("barrier", r0, n) for n in (4, 5, 6, 7)
        for r0 in default_r0_candidates(grid)]
