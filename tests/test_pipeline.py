import numpy as np
from scipy.interpolate import CubicSpline

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

    results = run_pipeline_on(dec_data, grid, seed=7, stability_count=2)
    # nine frame coefficients plus |d zeta|^2 in the capillary stages
    assert len(calls) <= 15
    assert sum(y is results["arrays"]["u"] for y in built) == 1
