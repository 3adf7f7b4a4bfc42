import functools
import gc
import json
import weakref

import numpy as np
import pytest

import janglab.barrier
import janglab.capillary
import janglab.geometry
import janglab.jang_metric
import janglab.pipeline
import janglab.profiles
from janglab.barrier import default_r0_candidates
from janglab.geometry import make_dataset
from janglab.grids import RadialGrid, build_grid
from janglab.jang_metric import xi_norm_sq
from janglab.mass import positivity_experiment
from janglab.pipeline import default_grid, exhaustion_schedule, run_pipeline_on
from janglab.profiles import AnalyticProfile, SampledProfile
from janglab.report import (_json_bytes, emit_report,
                            solution_csv_from_results)


def test_exhaustion_schedule_fills_a_cut_schedule():
    assert exhaustion_schedule(1.0, 512.0) == [64.0, 128.0, 256.0]
    assert exhaustion_schedule(2.0, 512.0) == [128.0, 256.0, 512.0]
    # r_max = 512 cuts 1024 for r0 = 4: half-doublings below r_max instead
    assert exhaustion_schedule(4.0, 512.0) == [
        512.0 * 2.0 ** -1.5, 256.0, 512.0 * 2.0 ** -0.5, 512.0]
    # only radii beyond 32 r0 are admissible
    assert exhaustion_schedule(8.0, 512.0) == [512.0 * 2.0 ** -0.5, 512.0]
    # a schedule that r_max does not cut stays as given
    assert exhaustion_schedule(1.0, 512.0, [64, 66]) == [64, 66]


def test_barrier_radius_four_dataset_passes(base_grid):
    # seed 501 of the n = 4 batch has r0 = 4; its cut schedule (256, 512)
    # left one Cauchy gap and the exhaustion did not converge
    report = positivity_experiment(4, 1, seed=501, grid=base_grid)
    [row] = report["rows"]
    assert row["error"] is None
    assert report["passed"]


def test_certification_evaluates_the_dataset_once(dec_data, monkeypatch):
    grid = build_grid(512.0, 2048, "uniform")   # no frame on it yet
    calls = []
    for name in ("__call__", "deriv1", "deriv2", "jet"):
        def counted(self, r, *order, fn=getattr(AnalyticProfile, name)):
            if np.size(r) > 17:
                calls.append(np.size(r))
            return fn(self, r, *order)
        monkeypatch.setattr(AnalyticProfile, name, counted)
    # every sampled array's slopes come from its grid's system: count the
    # slope solves, the coefficient sets and their intervals, the systems,
    # and the grids that any slope solve ran on
    system = janglab.profiles._SplineSystem
    solved, formed, systems, splined = [], [], [], []

    def counted_init(self, x, init=system.__init__):
        systems.append(x)
        init(self, x)

    def counted_slopes(self, y, slopes=system.slopes):
        solved.append(y)
        return slopes(self, y)

    def counted_read(self, slopes=SampledProfile.slopes):
        splined.append(self.grid)
        return slopes(self)

    def counted_spline(self, y, s, lo=0, hi=None, spline=system.spline):
        formed.append((y, lo, y.size - 1 if hi is None else hi))
        return spline(self, y, s, lo, hi)
    monkeypatch.setattr(system, "__init__", counted_init)
    monkeypatch.setattr(system, "slopes", counted_slopes)
    monkeypatch.setattr(system, "spline", counted_spline)
    monkeypatch.setattr(SampledProfile, "slopes", counted_read)
    geometries, divergences = [], []
    build = janglab.jang_metric.build_graph_geometry
    div_xi = janglab.jang_metric.div_xi

    def counted_build(*args, **kwargs):
        geometries.append(build(*args, **kwargs))
        return geometries[-1]

    def counted_div(data, geo):
        divergences.append(geo)
        return div_xi(data, geo)
    for module in (janglab.jang_metric, janglab.pipeline):
        monkeypatch.setattr(module, "build_graph_geometry", counted_build)
    monkeypatch.setattr(janglab.jang_metric, "div_xi", counted_div)
    configs = []
    select = janglab.pipeline.select_capillary_config

    def counted_select(*args):
        configs.append(select(*args))
        return configs[-1]
    monkeypatch.setattr(janglab.pipeline, "select_capillary_config",
                        counted_select)

    # r0 = 1: the last exhaustion radius is r_max, as on every fine-n4 run
    results = run_pipeline_on(dec_data, grid, seed=7,
                              schedule_factors=(64.0, 128.0, 512.0))
    assert results["exhaustion"]["outer_radius"] == grid.r_max
    # three jets on the base grid give the seven frame coefficients read by
    # every stage including |d zeta|^2: a, a', c'' (c is a) and q_rad,
    # q_tan and their slopes; the barrier stage reads them too
    assert calls.count(grid.nodes.size) == 3
    # the truncated and coarsened grids read slices of them; the rest are
    # the gradient-ball audit's dense radii and the mass fit's window
    assert len(calls) <= 6
    u = results["arrays"]["u"]
    # fields read only at the nodes stay arrays: no slopes of them are solved
    geo = geometries[0]
    nodal = (configs[0].Q, geo.g_check_rr, geo.R_check,
             np.sqrt(xi_norm_sq(geo)))
    assert not any(np.array_equal(y, v) for y in solved for v in nodal)
    # slopes of w at the three exhaustion radii, the last of which is u, of
    # the gradient-ball audit's coarse copy of u, and of the stability
    # eigenvector
    assert len(solved) == 3 + 1 + 1
    assert solved[2] is u and sum(y is u for y in solved) == 1
    # coefficients only on the intervals that a read reaches: the last one
    # for a read at r_max, and the gradient ball's for the dense supremum of
    # u and of its coarse copy, values and slopes
    wide = [(y, lo, hi) for y, lo, hi in formed if hi - lo > 1]
    assert all(hi == y.size - 1 for y, lo, hi in formed if hi - lo == 1)
    assert [y.size for y, _, _ in wide] == [2049, 2049, 1025, 1025]
    assert wide[0][0] is u and wide[1][0] is u
    assert all(hi - lo < 0.05 * y.size for y, lo, hi in wide)
    # one spline system per distinct grid, built from that grid's nodes
    grids = list({id(g): g for g in splined}.values())
    assert len(systems) == len(grids) > 1
    assert all(any(x is g.nodes for g in grids) for x in systems)
    # one graph geometry on the base grid, one on the identity audit's
    # coarse grid, and the effective curvature once per geometry
    assert [g.grid.nodes.size for g in geometries] == [2049, 1025]
    assert geometries[0].grid is grid
    assert len(divergences) == 2
    assert all(d is g for d, g in zip(divergences, geometries))


def test_certification_evaluates_the_constraint_fields_twice(
        dec_data, monkeypatch):
    grid = build_grid(512.0, 2048, "uniform")   # no frame on it yet
    evaluated = []
    evaluate = janglab.geometry.evaluate_constraint_fields

    def counted(frame):
        evaluated.append(frame.r.size)
        return evaluate(frame)
    for module in (janglab.geometry, janglab.capillary):
        monkeypatch.setattr(module, "evaluate_constraint_fields", counted)
    run_pipeline_on(dec_data, grid, seed=7)
    # the base grid's frame and the capillary checker's own evaluation; the
    # identity audit's coarse grid reads every other value of the first
    assert evaluated == [2049, 2049]


def test_failed_shielding_is_recorded_not_raised(dec_data, base_grid,
                                                 monkeypatch):
    # an undersized collar fails the reduced-density bound; the run keeps
    # every other result and reports the failure
    monkeypatch.setattr(
        janglab.pipeline, "build_shielding",
        functools.partial(janglab.jang_metric.build_shielding, width=5.0))
    results = run_pipeline_on(dec_data, base_grid, seed=7)
    assert results["shielding"]["passed"] is False
    assert results["shielding"]["six"][5] is False
    assert results["audits_passed"] is False
    assert results["stability"]["passed"] and results["consequence"]["passed"]


@pytest.mark.parametrize("hole", [np.nan, np.inf])
def test_a_margin_that_is_not_finite_fails_the_consequence_audit(
        dec_data, base_grid, monkeypatch, hole, tmp_path):
    # a NaN or +inf margin on the outer half of the grid decides nothing,
    # so it cannot pass; audits.json stays strict JSON, with null for it
    audit = janglab.pipeline.consequence_audit

    def holed(*args):
        margin = audit(*args).copy()
        margin[1000:] = hole
        return margin
    monkeypatch.setattr(janglab.pipeline, "consequence_audit", holed)
    results = run_pipeline_on(dec_data, base_grid, seed=7)
    assert results["consequence"]["passed"] is False
    assert results["audits_passed"] is False
    emit_report(results, str(tmp_path))

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    audits = json.loads((tmp_path / "audits.json").read_text(),
                        parse_constant=refuse)
    want = results["consequence"]["min_margin"]
    assert audits["consequence"] == {
        "min_margin": None if np.isnan(want) else want, "passed": False}


def test_both_coarse_copies_end_at_r_max_on_odd_grids(monkeypatch):
    grid = build_grid(512.0, 2047, "uniform")
    data = make_dataset("perturbed-dec", 4, {"m": 1.0, "amplitude": 0.05},
                        grid=grid, seed=7)
    coarse = []
    coarsen = RadialGrid.coarsen

    def recorded(self):
        coarse.append(coarsen(self))
        return coarse[-1]
    monkeypatch.setattr(RadialGrid, "coarsen", recorded)
    results = run_pipeline_on(data, grid, seed=7)
    # the identity audit's and the gradient-ball audit's coarse grids
    assert len(coarse) == 2
    assert all(c.r_max == grid.r_max and c.n_intervals == 1024
               for c in coarse)
    assert results["audits_passed"]


def test_a_certified_grid_is_freed_without_the_cycle_collector():
    # the grid, its coarsening and their frames form no reference cycle
    gc.disable()
    try:
        grid = build_grid(512.0, 2048, "uniform")
        data = make_dataset("perturbed-dec", 4, {"m": 1.0, "amplitude": 0.05},
                            grid=grid, seed=7)
        results = run_pipeline_on(data, grid, seed=7)
        assert results["audits_passed"]
        refs = [weakref.ref(g) for g in (grid, grid.coarsen())]
        refs.append(weakref.ref(grid._frame))
        del grid, data, results
        assert [ref() for ref in refs] == [None] * 3
    finally:
        gc.enable()


def test_a_second_certification_reuses_its_domains_and_spline_factors(
        monkeypatch):
    # r0 = 4: the schedule 181.02, 256, 362.04, 512 has two appended radii,
    # one node and r_max
    grid = build_grid(512.0, 2048, "uniform")
    params = {"m": 2.0, "amplitude": 0.05}
    first = run_pipeline_on(make_dataset("perturbed-dec", 4, params,
                                         grid=grid, seed=7), grid, seed=7)
    schedule = first["exhaustion"]["schedule"]
    assert first["barrier"]["r0"] == 4.0 and len(schedule) == 4
    kept = {key: sub for key, sub in grid._keeps.items()
            if key[0] == "truncation"}
    assert sorted(key[1] for key in kept) == schedule[:-1]
    assert [sub._prefix_of is None for sub in kept.values()].count(True) == 2
    built, factored = [], []
    init, gttrf = RadialGrid.__post_init__, janglab.profiles._gttrf

    def counted_init(self):
        built.append(self)
        init(self)

    def counted_gttrf(*args):
        factored.append(args[1].size)
        return gttrf(*args)
    monkeypatch.setattr(RadialGrid, "__post_init__", counted_init)
    monkeypatch.setattr(janglab.profiles, "_gttrf", counted_gttrf)
    second = run_pipeline_on(make_dataset("perturbed-dec", 4, params,
                                          grid=grid, seed=11), grid, seed=11)
    assert second["exhaustion"]["schedule"] == schedule
    assert second["audits_passed"]
    # the exhaustion domains, the coarsening and every spline system are
    # the first certification's; the only grids built are the gradient
    # ball's truncations at a node, which depend on the dataset
    assert factored == []
    assert all(grid._keeps[key] is sub for key, sub in kept.items())
    assert len([key for key in grid._keeps if key[0] == "truncation"]) == 3
    assert built and all(sub._prefix_of() is grid and sub.r_max < 64.0
                         for sub in built)


def test_a_batch_keeps_one_grid_per_exhaustion_radius(monkeypatch):
    certified, truncated = [], []
    run, truncate = janglab.pipeline.run_pipeline_on, RadialGrid.truncate

    def counted_run(*args, **kwargs):
        certified.append(run(*args, **kwargs))
        return certified[-1]

    def counted_truncate(self, r_out):
        truncated.append(r_out)
        return truncate(self, r_out)
    monkeypatch.setattr(janglab.pipeline, "run_pipeline_on", counted_run)
    monkeypatch.setattr(RadialGrid, "truncate", counted_truncate)
    grid = default_grid()
    assert positivity_experiment(4, 20, 500, grid)["passed"]
    radii = {r for res in certified for r in res["exhaustion"]["schedule"]
             if r < grid.r_max}
    assert len({res["barrier"]["r0"] for res in certified}) == 3
    # one kept grid per distinct radius below r_max, each built once
    assert sorted(key[1] for key in grid._keeps
                  if key[0] == "truncation") == sorted(radii)
    assert all(truncated.count(r) == 1 for r in radii)


def _certified(m, grid):
    """(results JSON without arrays, solution.csv, r0) of seed 7 at mass m."""
    data = make_dataset("perturbed-dec", 4, {"m": m, "amplitude": 0.05},
                        grid=grid, seed=7)
    results = run_pipeline_on(data, grid, seed=7)
    csv = solution_csv_from_results(results)
    del results["arrays"]
    return _json_bytes(results), csv, results["barrier"]["r0"]


def test_what_a_grid_keeps_never_changes_a_result():
    # r0 changes and comes back on one grid: each certification writes what
    # it writes on a grid that keeps nothing
    grid = default_grid()
    for m, r0 in ((0.5, 1.0), (1.5, 2.0), (2.0, 4.0), (0.5, 1.0), (1.5, 2.0)):
        got = _certified(m, grid)
        assert got[2] == r0
        assert got == _certified(m, default_grid())
    # seed 501 of this batch has r0 = 4
    rows = positivity_experiment(4, 20, 500, grid)["rows"]
    fresh = [positivity_experiment(4, 1, 500 + k, default_grid())["rows"][0]
             for k in range(20)]
    assert _json_bytes(rows) == _json_bytes(fresh)


def test_a_batch_evaluates_b_once_per_radius_and_each_collar_edge_once(
        monkeypatch):
    b_keys, lengths, certified = [], [], []
    b = janglab.barrier.BarrierProfile.b
    trapezoid = janglab.geometry._cumulative_trapezoid
    run = janglab.pipeline.run_pipeline_on

    def counted_b(self, s):
        b_keys.append((self.r0, self.n))
        return b(self, s)

    def counted_length(y, x):
        lengths.append((len(certified), x.size))
        return trapezoid(y, x)

    def counted_run(*args, **kwargs):
        certified.append(run(*args, **kwargs))
        return certified[-1]
    monkeypatch.setattr(janglab.barrier.BarrierProfile, "b", counted_b)
    monkeypatch.setattr(janglab.geometry, "_cumulative_trapezoid",
                        counted_length)
    monkeypatch.setattr(janglab.pipeline, "run_pipeline_on", counted_run)
    grid = default_grid()
    report = positivity_experiment(4, 20, 500, grid)
    assert report["passed"] and len(certified) == 20
    r0s = [res["barrier"]["r0"] for res in certified]
    assert {1.0, 2.0, 4.0} <= set(r0s)
    assert b_keys == list(dict.fromkeys((r0, 4) for r0 in r0s))
    # one base length per certification, on the whole grid: the collar of
    # the selector and of the checker, the neighborhood audit's base depth
    # and the gradient ball all read it
    assert lengths == [(k, grid.nodes.size) for k in range(20)]
    # the first r0, certified again after more than 8 other (r0, n) keys,
    # evaluates no b
    for n in (5, 6):
        for r0 in default_r0_candidates(grid):
            janglab.barrier.BarrierProfile(r0, n).on_grid(grid, ("b",), 8)
    assert len(set(b_keys)) > 8 + 1
    assert positivity_experiment(4, 1, 500, grid)["passed"]
    assert certified[-1]["barrier"]["r0"] == r0s[0]
    assert b_keys.count((r0s[0], 4)) == 1
