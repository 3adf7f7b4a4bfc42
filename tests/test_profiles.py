import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from janglab.grids import build_grid
from janglab.profiles import SampledProfile

GRIDS = [
    build_grid(512.0, 2048, "uniform"),
    build_grid(512.0, 2048, "geometric", stretch=1.001),
    build_grid(512.0, 2048, "uniform").truncate(100.3),
]


def _node_values(r):
    rng = np.random.default_rng(3)
    return {
        "smooth": np.sin(r / 7.0) * np.exp(-r / 50.0),
        "random": rng.standard_normal(r.size),
        "negative zero": np.full_like(r, -0.0),
        # subnormal steps put coefficients of -0.0 into the spline, in every
        # order on the geometric grid
        "signed zeros": rng.choice([-5e-324, -0.0, 0.0, 5e-324], r.size),
    }


@pytest.mark.parametrize("grid", GRIDS, ids=["uniform", "geometric", "truncated"])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_node_reads_match_spline_bit_for_bit(grid, order):
    r = grid.nodes
    for name, values in _node_values(r).items():
        prof = SampledProfile(grid, values)
        got = (prof, prof.deriv1, prof.deriv2)[order](r)
        spline = CubicSpline(r, values)
        want = spline(r, order)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
        if name == "signed zeros" and grid.policy == "geometric":
            coef = spline.c[3 - order]
            assert np.any((coef == 0.0) & np.signbit(coef))
