import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from janglab.grids import build_grid
from janglab.profiles import SampledProfile, _SplineSystem

GRIDS = [
    build_grid(512.0, 2048, "uniform"),
    build_grid(512.0, 2048, "geometric", stretch=1.001),
    build_grid(512.0, 2048, "uniform").truncate(100.3),
    build_grid(512.0, 2047, "geometric", stretch=1.001),
]
IDS = ["uniform", "geometric", "truncated", "odd"]


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


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
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


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _count_spans(monkeypatch):
    """The (lo, hi) interval span of each coefficient set formed."""
    spans = []

    def counted(self, y, s, lo=0, hi=None, spline=_SplineSystem.spline):
        spans.append((lo, y.size - 1 if hi is None else hi))
        return spline(self, y, s, lo, hi)
    monkeypatch.setattr(_SplineSystem, "spline", counted)
    return spans


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_node_reads_come_from_one_slope_solve(grid, monkeypatch):
    # the slopes are CubicSpline's, bit for bit, and f, f' at the nodes are
    # read from them and the values, forming coefficients only on the last
    # interval, for r_max
    r = grid.nodes
    last = (grid.n_intervals - 1, grid.n_intervals)
    spans = _count_spans(monkeypatch)
    for name, values in _spline_values(r).items():
        prof = SampledProfile(grid, values)
        spline = CubicSpline(r, values)
        assert np.array_equal(_bits(prof.slopes()[:-1]), _bits(spline.c[2])), name
        spans.clear()
        for order, read in enumerate((prof, prof.deriv1)):
            assert np.array_equal(_bits(read(r)), _bits(spline(r, order))), name
        assert spans == [last, last]
        assert np.array_equal(_bits(prof.deriv2(r)), _bits(spline(r, 2))), name
        assert (0, grid.n_intervals) in spans


@pytest.mark.parametrize("n_intervals", [2047, 2048])
@pytest.mark.parametrize("policy", ["uniform", "geometric"])
def test_coarse_node_reads_match_spline_bit_for_bit(n_intervals, policy,
                                                    monkeypatch):
    # every other node, plus r_max when N is odd: read from the fine nodes
    grid = build_grid(512.0, n_intervals, policy, stretch=1.001)
    coarse = grid.coarsen().nodes
    assert coarse[-1] == grid.r_max
    spans = _count_spans(monkeypatch)
    for name, values in _spline_values(grid.nodes).items():
        prof = SampledProfile(grid, values)
        spline = CubicSpline(grid.nodes, values)
        spans.clear()
        for order, read in enumerate((prof, prof.deriv1, prof.deriv2)):
            got = read(coarse)
            assert got.flags.c_contiguous and got.size == coarse.size
            assert np.array_equal(_bits(got), _bits(spline(coarse, order))), name
            if order == 1:
                assert all(hi - lo == 1 for lo, hi in spans)


def _spline_values(r):
    rng = np.random.default_rng(5)
    return {**_node_values(r),
            "all zero": np.zeros_like(r),
            "1e-300 scale": 1e-300 * rng.standard_normal(r.size),
            "1e-300 decay": 1e-300 * np.exp(-r / 30.0)}


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_spline_equals_cubic_spline_bit_for_bit(grid):
    # the grid's spline system repeats CubicSpline's arithmetic, and its
    # evaluator PPoly's, so the coefficients and every evaluation agree with
    # scipy's to the last bit, extrapolation and NaN included
    r = grid.nodes
    rng = np.random.default_rng(9)
    off = rng.uniform(0.0, grid.r_max, 300)          # unsorted, off the nodes
    points = {"nodes": r, "off nodes": off,
              "midpoints": 0.5 * (r[:-1] + r[1:]), "last node": r[-1:],
              "one node": r[7], "inner nodes": r[5:40:3],
              "beyond both ends": np.array([-3.0, -1e-300, grid.r_max + 1e-9,
                                            2.0 * grid.r_max]),
              "NaN": np.array([np.nan, 0.5 * grid.r_max, np.nan]),
              "scalar": np.float64(0.3 * grid.r_max)}
    for name, values in _spline_values(r).items():
        prof = SampledProfile(grid, values)
        ours = prof._system().spline(values, prof.slopes())
        ref = CubicSpline(r, values)
        assert np.array_equal(_bits(ours.c), _bits(ref.c)), name
        assert np.array_equal(ours.x, ref.x)
        for order, read in enumerate((prof, prof.deriv1, prof.deriv2)):
            for where, x in points.items():
                want = ref(x, order)
                for got in (ours(x, order), read(x)):
                    assert np.shape(got) == np.shape(want), (name, where)
                    assert np.array_equal(_bits(got), _bits(want)), (name, where)


def test_each_grid_builds_one_spline_system(monkeypatch):
    built = []

    def counted(self, x, init=_SplineSystem.__init__):
        built.append(x)
        init(self, x)
    monkeypatch.setattr(_SplineSystem, "__init__", counted)
    base = build_grid(64.0, 128, "uniform")
    grids = [base, build_grid(64.0, 128, "geometric", stretch=1.01),
             base.truncate(30.5)]
    for grid in grids + [base.truncate(base.r_max)]:   # the base grid again
        for values in _spline_values(grid.nodes).values():
            prof = SampledProfile(grid, values)
            prof.deriv2(grid.nodes)
            prof(0.5 * grid.r_max)
    assert len(built) == len(grids)
    assert all(x is grid.nodes for x, grid in zip(built, grids))
    assert all(isinstance(grid._keeps["spline"], _SplineSystem)
               for grid in grids)


def test_spline_rejects_non_finite_values():
    grid = build_grid(64.0, 128, "uniform")
    values = np.ones_like(grid.nodes)
    values[7] = np.nan
    with pytest.raises(ValueError, match="finite"):
        SampledProfile(grid, values)(1.0)
