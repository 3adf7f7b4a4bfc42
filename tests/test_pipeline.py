import functools
import gc
import weakref

import numpy as np

import janglab.capillary
import janglab.geometry
import janglab.jang_metric
import janglab.pipeline
import janglab.profiles
from janglab.geometry import make_dataset
from janglab.grids import RadialGrid, build_grid
from janglab.jang_metric import xi_norm_sq
from janglab.mass import positivity_experiment
from janglab.pipeline import exhaustion_schedule, run_pipeline_on
from janglab.profiles import AnalyticProfile, SampledProfile


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
    for name in ("__call__", "deriv1", "deriv2"):
        def counted(self, r, fn=getattr(AnalyticProfile, name)):
            if np.size(r) > 17:
                calls.append(np.size(r))
            return fn(self, r)
        monkeypatch.setattr(AnalyticProfile, name, counted)
    # every spline is built from its grid's system: count the splines, the
    # systems, and the grids that any spline was read on
    system = janglab.profiles._SplineSystem
    built, systems, splined = [], [], []

    def counted_init(self, x, init=system.__init__):
        systems.append(x)
        init(self, x)

    def counted_spline(self, y, spline=system.spline):
        built.append(y)
        return spline(self, y)

    def counted_get(self, get=SampledProfile._get_spline):
        splined.append(self.grid)
        return get(self)
    monkeypatch.setattr(system, "__init__", counted_init)
    monkeypatch.setattr(system, "spline", counted_spline)
    monkeypatch.setattr(SampledProfile, "_get_spline", counted_get)
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

    results = run_pipeline_on(dec_data, grid, seed=7)
    # seven frame coefficients on the base grid, read by every stage
    # including |d zeta|^2: a, a', c'' (c is a) and q_rad, q_tan and their
    # slopes; the barrier stage reads them too
    assert calls.count(grid.nodes.size) <= 7
    # with the frames of the truncated and coarsened grids and the
    # gradient-ball audit's dense radii
    assert len(calls) <= 28
    assert sum(y is results["arrays"]["u"] for y in built) == 1
    # fields read only at the nodes stay arrays: no spline of them is built
    geo = geometries[0]
    nodal = (configs[0].Q, geo.g_check_rr, geo.R_check,
             np.sqrt(xi_norm_sq(geo)))
    assert not any(np.array_equal(y, v) for y in built for v in nodal)
    # splines of w at the three exhaustion radii, of u, of the gradient-ball
    # audit's coarse copy of u, and of the stability eigenvector
    assert len(built) == 3 + 1 + 1 + 1
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
