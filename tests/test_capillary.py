import numpy as np
import pytest

from janglab.capillary import (CapillaryConfig, check_capillary_config,
                               select_capillary_config, smoothstep,
                               smoothstep_d1)
from janglab.errors import DecViolation, InvalidArgument
from janglab.geometry import RadialFrame, constraint_fields
from janglab.grids import build_grid
from janglab.profiles import SampledProfile


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
               RadialFrame.on(dec_data, base_grid))
           - cap_config.kappa1 * cap_config.zeta(r) ** 2 * dec_data.n
           * dec_data.q_frame_norm(r))
    q = cap_config.Q(r)
    assert np.all(q > 0.0)
    assert np.all(lhs >= q)


def test_q_respects_decay_tail(cap_config, base_grid):
    r = base_grid.nodes
    outer = base_grid.outer_third_mask()
    ratio = cap_config.Q(r)[outer] * (1.0 + r[outer]) ** (
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
    r = base_grid.nodes
    # flatten Q's tail: violates the (1+r)^{-n-2 delta} envelope
    qv = cap_config.Q(r).copy()
    qv[base_grid.outer_third_mask()] = qv[base_grid.outer_third_mask()][0]
    bad3.Q = SampledProfile(base_grid, qv, label="Q")
    problems3 = check_capillary_config(bad3, dec_data, base_grid)
    assert any("tail" in p for p in problems3)

    bad4 = copy.copy(cap_config)
    bad4.tau = 1.0     # far too large for the collar width
    problems4 = check_capillary_config(bad4, dec_data, base_grid)
    assert any("smallness" in p for p in problems4)


def test_config_derived_properties(cap_config):
    assert cap_config.E0_threshold == 8.0 * cap_config.r0
    assert cap_config.collar_width_total == cap_config.s1 + 2.0 * cap_config.s0
    assert cap_config.smallness_budget == 0.5 * min(
        cap_config.kappa0 / cap_config.tau,
        cap_config.kappa1 / cap_config.tau ** 2)
