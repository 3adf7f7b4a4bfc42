import numpy as np
from scipy.interpolate import CubicSpline

import janglab.jang_metric
import janglab.pipeline
import janglab.profiles
from janglab.grids import build_grid
from janglab.pipeline import run_pipeline_on
from janglab.profiles import AnalyticProfile


def test_certification_evaluates_the_dataset_once(dec_data, monkeypatch):
    grid = build_grid(512.0, 2048, "uniform")   # no frame on it yet
    calls = []
    for name in ("__call__", "deriv1", "deriv2"):
        def counted(self, r, fn=getattr(AnalyticProfile, name)):
            if np.shape(r) == grid.nodes.shape:
                calls.append(self)
            return fn(self, r)
        monkeypatch.setattr(AnalyticProfile, name, counted)
    built = []

    def spline(x, y, *args, **kwargs):
        built.append(y)
        return CubicSpline(x, y, *args, **kwargs)
    monkeypatch.setattr(janglab.profiles, "CubicSpline", spline)
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

    results = run_pipeline_on(dec_data, grid, seed=7, stability_count=2)
    # the nine frame coefficients, read by every stage including |d zeta|^2
    assert len(calls) <= 9
    assert sum(y is results["arrays"]["u"] for y in built) == 1
    # one graph geometry on the base grid, one on the identity audit's
    # coarse grid, and the effective curvature once per geometry
    assert [g.grid.nodes.size for g in geometries] == [2049, 1025]
    assert geometries[0].grid is grid
    assert len(divergences) == 2
    assert all(d is g for d, g in zip(divergences, geometries))
