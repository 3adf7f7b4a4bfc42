import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from janglab.errors import (FitFailure, InsufficientData, InvalidArgument)
from janglab.geometry import RadialFrame, _line_fit, make_dataset
from janglab.grids import build_grid
from janglab.jang_metric import xi_norm_sq
from janglab.mass import (experiment_csv, fit_alpha, fit_alpha_profile,
                          fit_decay_exponent, positivity_experiment)


def power_profile(amp, expo):
    return lambda r: 1.0 + amp * r ** expo


def test_fit_alpha_exact_model():
    grid = build_grid(512.0, 1024, "uniform")
    alpha, fit = fit_alpha_profile(power_profile(0.3, -2.0), 4, grid)
    assert abs(alpha - 0.3) < 1e-12
    assert fit.rms_residual < 1e-10
    assert fit.fit_window == (128.0, 256.0)


@given(amp=st.floats(0.01, 10.0), n=st.integers(4, 7))
@settings(max_examples=30, deadline=None)
def test_fit_alpha_recovers_any_exact_amplitude(amp, n):
    grid = build_grid(256.0, 512, "uniform")
    alpha, _ = fit_alpha_profile(power_profile(amp, 2.0 - n), n, grid)
    # subtracting 1 from a(r) loses ~eps * r^{n-2} of absolute precision in
    # the tail samples, so the tolerance cannot be tighter than ~1e-7 here
    assert abs(alpha - amp) < 1e-6 * max(1.0, amp)


def test_fit_alpha_flat_profile_is_zero(flat_data, base_grid):
    alpha, fit = fit_alpha(flat_data, base_grid)
    assert alpha == 0.0
    assert fit.amplitude == 0.0


def test_fit_alpha_vacuum_family_within_one_percent():
    # for the conformally flat vacuum family the mass parameter is
    # alpha = 2 m/(n-2); corrections enter at relative order r^{-2}
    grid = build_grid(512.0, 2048, "uniform")
    data = make_dataset("perturbed-dec", 4, {"m": 1.0, "amplitude": 0.0},
                        grid=grid, seed=0)
    alpha, _ = fit_alpha(data, grid)
    assert abs(alpha - 1.0) < 0.01


def test_fit_alpha_on_graph_geometry(dec_data, cap_config, jang_limit,
                                     graph_geo, base_grid):
    alpha_base, _ = fit_alpha(dec_data, base_grid)
    alpha_graph, _ = fit_alpha(graph_geo, base_grid)
    # u' decays too fast to move the fitted mass at this tolerance
    assert abs(alpha_graph - alpha_base) < 1e-6 * max(1.0, abs(alpha_base))
    # the graph coefficient is read at the nodes of its own grid only
    with pytest.raises(InvalidArgument):
        fit_alpha(graph_geo, build_grid(512.0, 1024, "uniform"))


def test_fit_alpha_rejects_wrong_model():
    grid = build_grid(512.0, 1024, "uniform")
    with pytest.raises(FitFailure):
        fit_alpha_profile(power_profile(0.3, -0.5), 4, grid)


def test_fit_alpha_window_validation():
    grid = build_grid(512.0, 1024, "uniform")
    with pytest.raises(InvalidArgument):
        fit_alpha_profile(power_profile(0.3, -2.0), 4, grid,
                          window=(100.0, 50.0))
    with pytest.raises(InsufficientData):
        fit_alpha_profile(power_profile(0.3, -2.0), 4, grid,
                          window=(128.0, 128.5))
    with pytest.raises(InvalidArgument):
        fit_alpha(object(), grid)


@given(amp=st.floats(0.1, 5.0), expo=st.floats(-4.0, -0.5))
@settings(max_examples=30, deadline=None)
def test_decay_exponent_exact_power_laws(amp, expo):
    grid = build_grid(256.0, 512, "uniform")
    fit = fit_decay_exponent(lambda r: amp * r ** expo, grid, (32.0, 128.0))
    assert abs(fit.exponent - expo) < 1e-9
    assert abs(fit.amplitude - amp) < 1e-8 * amp


def test_decay_exponent_needs_nonzero_data(base_grid):
    with pytest.raises(InsufficientData):
        fit_decay_exponent(lambda r: np.zeros_like(r), base_grid,
                           (32.0, 128.0))


def test_positivity_experiment_small_batch(base_grid):
    report = positivity_experiment(4, 3, seed=1, grid=base_grid)
    assert report["passed"]
    assert report["n_positive"] == 3
    assert [row["seed"] for row in report["rows"]] == [1, 2, 3]
    for row in report["rows"]:
        assert row["error"] is None
        assert row["alpha"] > 0.0
        assert row["min_margin"] > 0.0
        assert row["audits_passed"]


def test_positivity_experiment_validates_count(base_grid):
    with pytest.raises(InvalidArgument):
        positivity_experiment(4, 0, seed=1, grid=base_grid)


def test_experiment_csv_schema(base_grid):
    report = positivity_experiment(4, 2, seed=4, grid=base_grid)
    text = experiment_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "seed,n,min_margin,alpha,identity_err,audits_passed"
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert cells[0] == "4" and cells[1] == "4"
    assert float(cells[3]) > 0.0
    assert cells[5] == "true"


def test_line_fit_agrees_with_polyfit_on_the_decay_windows(
        jang_limit, graph_geo, dec_data, r0, base_grid):
    # the closed-form centred fit behind fit_decay_exponent and
    # loglog_slope against numpy's least-squares polyfit, on the pipeline's
    # decay window and on validate_dataset's outer third
    r = base_grid.nodes
    window = (r >= 32.0 * r0) & (r <= 0.5 * jang_limit.outer_radius)
    outer = base_grid.outer_third_mask()
    a = RadialFrame.on(dec_data, base_grid).a
    residual = np.zeros_like(r)
    residual[outer] = a[outer] - 1.0 - dec_data.alpha_decl * r[outer] ** -2.0
    cases = [(window, jang_limit.u), (window, jang_limit.profile().deriv1(r)),
             (window, np.sqrt(xi_norm_sq(graph_geo))), (window, graph_geo.R_check),
             (outer, residual)]
    for mask, values in cases:
        keep = mask & (np.abs(values) > 1e-280)
        assert np.count_nonzero(keep) > 100
        lx, ly = np.log(r[keep]), np.log(np.abs(values[keep]))
        slope, intercept = _line_fit(lx, ly)
        want = np.polyfit(lx, ly, 1)
        assert abs(slope - want[0]) <= 1e-13 * abs(want[0])
        assert abs(intercept - want[1]) <= 1e-13 * abs(want[1])
    # a fit on a window shows the same agreement through fit_decay_exponent
    fit = fit_decay_exponent(jang_limit.u, base_grid,
                             (32.0 * r0, 0.5 * jang_limit.outer_radius))
    keep = window & (np.abs(jang_limit.u) > 1e-280)
    want = np.polyfit(np.log(r[keep]), np.log(np.abs(jang_limit.u[keep])), 1)
    assert abs(fit.exponent - want[0]) <= 1e-13 * abs(want[0])
    assert abs(np.log(fit.amplitude) - want[1]) <= 1e-13 * abs(want[1])
