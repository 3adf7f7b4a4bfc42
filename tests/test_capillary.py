import copy
import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

import janglab.geometry
from janglab.barrier import default_r0_candidates, find_r0
from janglab.capillary import (CapillaryConfig, _collar_mask,
                               check_capillary_config,
                               select_capillary_config, smoothstep,
                               smoothstep_d1)
from janglab.errors import DecViolation, GridTooShort, InvalidArgument
from janglab.geometry import (RadialFrame, constraint_fields, make_dataset,
                              radius_at_distance)
from janglab.grids import build_grid


def test_smoothstep_endpoints_and_flatness():
    assert smoothstep(-1.0) == 0.0
    assert smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0
    assert smoothstep(2.0) == 1.0
    assert abs(smoothstep(0.5) - 0.5) < 1e-15
    # C^2 matching: derivative vanishes at both ends
    assert smoothstep_d1(0.0) == 0.0
    assert smoothstep_d1(1.0) == 0.0
    x = np.linspace(0, 1, 101)
    assert np.all(np.diff(smoothstep(x)) > 0.0)


def test_smoothstep_d1_is_derivative():
    x = np.linspace(0.05, 0.95, 19)
    h = 1e-6
    fd = (smoothstep(x + h) - smoothstep(x - h)) / (2.0 * h)
    assert np.max(np.abs(fd - smoothstep_d1(x))) < 1e-8


def test_cutoff_support(cap_config, base_grid):
    r = base_grid.nodes
    z = cap_config.zeta(r)
    assert np.all(z[r <= 4.0 * cap_config.r0] == 1.0)
    assert np.all(z[r >= 8.0 * cap_config.r0] == 0.0)
    assert np.all((z >= 0.0) & (z <= 1.0))
    mid = (r > 4.0 * cap_config.r0) & (r < 8.0 * cap_config.r0)
    assert np.all(cap_config.zeta_d1(r)[mid] < 0.0)


@pytest.mark.parametrize("policy", ["uniform", "geometric"])
@pytest.mark.parametrize("r0_trial", [1.0, 2.0, 4.0])
def test_cutoff_on_the_collar_only_keeps_every_bit(cap_config, policy,
                                                   r0_trial):
    r0 = r0_trial
    # the quintic on every node, as the cutoff was once evaluated
    grid = build_grid(512.0, 2048, policy, 1.001)
    r = np.union1d(grid.nodes, [4.0 * r0, 8.0 * r0])
    assert np.count_nonzero(np.isin(r, [4.0 * r0, 8.0 * r0])) == 2
    cfg = copy.copy(cap_config)
    cfg.r0 = r0
    x = (r - 4.0 * r0) / (4.0 * r0)
    zeta = 1.0 - smoothstep(x)
    zeta_d1 = -smoothstep_d1(x) / (4.0 * r0)
    for new, old in ((cfg.zeta(r), zeta), (cfg.zeta_d1(r), zeta_d1)):
        assert np.array_equal(new, old)
        assert np.array_equal(np.signbit(new), np.signbit(old))
    assert cfg.zeta(4.0 * r0) == 1.0 and cfg.zeta(8.0 * r0) == 0.0


def test_kept_cutoff_follows_r0_and_the_cutoff_functions(cap_config):
    grid = build_grid(512.0, 2048, "uniform")
    view = grid.truncate(64.0 * cap_config.r0)
    zeta, zeta_d1 = cap_config.cutoff(grid)
    assert np.array_equal(zeta, cap_config.zeta(grid.nodes))
    assert np.array_equal(zeta_d1, cap_config.zeta_d1(grid.nodes))
    # another config of the same r0 reads the kept arrays
    same = copy.copy(cap_config)
    assert same.cutoff(grid)[0] is zeta
    # a config whose zeta or zeta' is replaced evaluates its own, on the
    # grid and on a view of it
    for name in ("zeta", "zeta_d1"):
        cfg = copy.copy(cap_config)
        setattr(cfg, name, lambda r, fn=getattr(cfg, name): 2.0 * fn(r))
        for g in (grid, view):
            got = cfg.cutoff(g)
            assert np.array_equal(got[0], cfg.zeta(g.nodes))
            assert np.array_equal(got[1], cfg.zeta_d1(g.nodes))
    moved = copy.copy(cap_config)
    moved.r0 = 2.0 * cap_config.r0
    assert np.array_equal(moved.cutoff(view)[0], moved.zeta(view.nodes))


def test_selected_config_passes_independent_check(dec_data, cap_config,
                                                  base_grid):
    assert check_capillary_config(cap_config, dec_data, base_grid) == []


def test_margin_dominates_capillary_terms(dec_data, cap_config, base_grid):
    # the defining nodewise inequality:
    # margin - kappa0^2 |d zeta|^2 - kappa1 zeta^2 n |q| >= Q > 0
    r = base_grid.nodes
    margin = constraint_fields(dec_data, base_grid).margin
    lhs = (margin
           - cap_config.kappa0 ** 2 * cap_config.dzeta_norm_sq(
               dec_data, base_grid)
           - cap_config.kappa1 * cap_config.zeta(r) ** 2 * dec_data.n
           * RadialFrame(dec_data, r).q_norm)
    q = cap_config.Q
    assert np.all(q > 0.0)
    assert np.all(lhs >= q)


def test_q_respects_decay_tail(cap_config, base_grid):
    r = base_grid.nodes
    outer = base_grid.outer_third_mask()
    ratio = cap_config.Q[outer] * (1.0 + r[outer]) ** (
        cap_config.n + 2.0 * cap_config.delta)
    assert np.max(ratio) <= 2.0 * ratio[0] + 1e-300


def test_collar_and_smallness_constraints(cap_config):
    assert cap_config.s0 == cap_config.r0 / 4.0
    assert cap_config.s1 >= cap_config.s0
    L = cap_config.collar_width_total
    assert cap_config.tau > 0.0
    # tau is small enough that the total collar width fits the budget
    assert L <= cap_config.smallness_budget * (1.0 + 1e-12)


def test_flat_data_violates_strict_dec(flat_data, base_grid):
    with pytest.raises(DecViolation):
        select_capillary_config(flat_data, 1.0, base_grid)


def test_selection_needs_wide_grid(dec_data):
    small = build_grid(32.0, 64, "uniform")
    with pytest.raises(InvalidArgument):
        select_capillary_config(dec_data, 1.0, small)
    with pytest.raises(GridTooShort, match="r0 = 1 needs .* 64 r0 = 64"):
        select_capillary_config(dec_data, 1.0, small)


def test_checker_flags_tampered_parameters(dec_data, cap_config, base_grid):
    import copy
    bad = copy.copy(cap_config)
    bad.kappa1 = cap_config.kappa1 * 1e6
    problems = check_capillary_config(bad, dec_data, base_grid)
    assert any("margin" in p for p in problems)

    bad2 = copy.copy(cap_config)
    bad2.s1 = cap_config.s0 / 2.0
    problems2 = check_capillary_config(bad2, dec_data, base_grid)
    assert any("s1" in p for p in problems2)

    bad3 = copy.copy(cap_config)
    # flatten Q's tail: violates the (1+r)^{-n-2 delta} envelope
    qv = cap_config.Q.copy()
    qv[base_grid.outer_third_mask()] = qv[base_grid.outer_third_mask()][0]
    bad3.Q = qv
    problems3 = check_capillary_config(bad3, dec_data, base_grid)
    assert any("tail" in p for p in problems3)

    bad4 = copy.copy(cap_config)
    bad4.tau = 1.0     # far too large for the collar width
    problems4 = check_capillary_config(bad4, dec_data, base_grid)
    assert any("smallness" in p for p in problems4)

    bad5 = copy.copy(cap_config)
    bad5.Q = cap_config.Q[:-1]     # not one value per grid node
    problems5 = check_capillary_config(bad5, dec_data, base_grid)
    assert any("one value per grid node" in p for p in problems5)


@pytest.mark.parametrize("lo, hi", [(0.5, 3.0), (100.0, 200.0),
                                    (400.0, 512.0)])
def test_checker_flags_a_density_that_is_not_finite(dec_data, cap_config,
                                                    base_grid, lo, hi):
    # NaN compares false, so a NaN Q passed every nodewise test of the
    # checker; each problem now names the first node where it fails
    import copy
    bad = copy.copy(cap_config)
    bad.Q = cap_config.Q.copy()
    r = base_grid.nodes
    bad.Q[(r > lo) & (r < hi)] = np.nan
    first = repr(float(r[r > lo][0]))
    problems = check_capillary_config(bad, dec_data, base_grid)
    assert f"Q must be strictly positive (first at r = {first})" in problems
    assert all(p.endswith(f"(first at r = {first})") for p in problems)


def test_config_derived_properties(cap_config):
    assert cap_config.E0_threshold == 8.0 * cap_config.r0
    assert cap_config.collar_width_total == cap_config.s1 + 2.0 * cap_config.s0
    assert cap_config.smallness_budget == 0.5 * min(
        cap_config.kappa0 / cap_config.tau,
        cap_config.kappa1 / cap_config.tau ** 2)


def _quad_radius_at_distance(data, r_start, dist):
    """radius_at_distance's Newton search with scipy's quad for each step,
    as the collar was found before janglab had its own quadrature."""
    root_a = lambda s: math.sqrt(float(data.a(s)))
    xtol = 1e-12 * max(1.0, r_start)
    lo, hi, r, L, origin_seen = 0.0, r_start, r_start, 0.0, False
    for _ in range(100):
        step = (L - dist) / root_a(r)
        if abs(step) <= xtol:
            return r + step
        r_new = r + step
        if r_new <= 0.0 and not origin_seen:
            r_new, origin_seen = 0.0, True
        elif not lo < r_new < hi:
            r_new = 0.5 * (lo + hi)
        L += quad(root_a, r_new, r, epsrel=1e-10, epsabs=1e-14, limit=200)[0]
        r = r_new
        if L > dist:
            lo = r
        elif r == 0.0:
            return 0.0
        else:
            hi = r
    raise AssertionError("no radius found")


@pytest.mark.parametrize("grid", [build_grid(512.0, 2048, "uniform"),
                                  build_grid(512.0, 2047, "geometric",
                                             stretch=1.001)],
                         ids=["uniform", "geometric"])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_collar_mask_matches_the_quad_search(grid, n):
    # the collar's inner edge from janglab's quadrature lies within 1e-12
    # relative of the edge that QUADPACK steps find, and holds the same nodes
    for seed in range(5):
        data = make_dataset("perturbed-dec", n, {"m": 1.0, "amplitude": 0.05},
                            grid=grid, seed=seed)
        r0 = find_r0(data, grid, default_r0_candidates(grid))
        r_in, width = 8.0 * r0, 2.0 * r0 / 4.0
        want = _quad_radius_at_distance(data, r_in, width)
        assert abs(radius_at_distance(data, r_in, width) - want) <= 1e-12 * want
        r = grid.nodes
        mask = _collar_mask(data, grid, r_in, width)
        assert np.array_equal(mask, (r <= r_in) & (r >= want))
        assert np.any(mask)


@pytest.mark.parametrize("field, factor", [("s0", 0.5), ("s0", 4.0),
                                           ("r0", 0.9)])
def test_checker_evaluates_the_collar_edge_of_its_own_config(
        dec_data, field, factor, monkeypatch):
    grid = build_grid(512.0, 2048, "uniform")
    cfg = select_capillary_config(dec_data, find_r0(dec_data, grid, [1.0, 2.0]),
                                  grid)
    # the selection's edge, kept with the grid's frame
    edge = radius_at_distance(dec_data, 8.0 * cfg.r0, 2.0 * cfg.s0)
    changed = dataclasses.replace(cfg, **{field: getattr(cfg, field) * factor})
    edges = []
    radius = janglab.geometry.radius_at_distance

    def counted(data, r_start, dist):
        edges.append((r_start, dist))
        return radius(data, r_start, dist)
    monkeypatch.setattr(janglab.geometry, "radius_at_distance", counted)
    got = check_capillary_config(changed, dec_data, grid)
    assert edges == [(8.0 * changed.r0, 2.0 * changed.s0)]
    # the verdict of a grid that keeps nothing
    fresh = build_grid(512.0, 2048, "uniform")
    assert got == check_capillary_config(changed, dec_data, fresh)
    # the selection's edge would give the other collar verdict, so a keep
    # keyed on the dataset alone fails here
    r = grid.nodes
    stale = (r <= 8.0 * changed.r0) & (r >= edge)
    stale_fails = bool(np.any(stale)) and not np.all(
        changed.Q[stale] > 128.0 / (changed.s1 * changed.s0))
    assert any("collar" in p for p in got) != stale_fails
