import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid, simpson

from janglab.barrier import default_r0_candidates
from janglab.capillary import CapillaryConfig
from janglab.errors import InvalidArgument
from janglab.geometry import make_dataset
from janglab.grids import (MIN_NODES, MIN_SPACING, TRUNCATION_TOL,
                           RadialGrid,
                           _cumulative_trapezoid, _simpson,
                           _three_point_weights, build_grid,
                           geometric_stretch_for)
from janglab.pipeline import exhaustion_schedule, run_pipeline_on
from janglab.profiles import SampledProfile


def test_uniform_grid_nodes():
    g = build_grid(10.0, 20, "uniform")
    assert g.n_intervals == 20
    assert g.r_max == 10.0
    assert np.allclose(np.diff(g.nodes), 0.5)


def test_geometric_grid_constant_ratio():
    g = build_grid(100.0, 64, "geometric", stretch=1.05)
    h = g.spacings
    assert np.allclose(h[1:] / h[:-1], 1.05)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 100.0


def test_geometric_stretch_for_hits_first_spacing():
    # from N = 1751 on, 2.0 ** N is not a finite float: the bisection must
    # not form it
    for r_max, n, h0 in ((100.0, 64, 0.1), (512.0, 2048, 1e-3),
                         (512.0, 32768, 1e-4)):
        s = geometric_stretch_for(r_max, n, h0)
        g = build_grid(r_max, n, "geometric", stretch=s)
        assert abs(g.spacings[0] - h0) < 1e-6 * h0


def test_geometric_stretch_for_refuses_a_spacing_no_finite_power_reaches():
    with pytest.raises(InvalidArgument, match="needs a stretch above 2"):
        geometric_stretch_for(512.0, 64, 1e-300)


@given(a=st.floats(-5, 5), b=st.floats(-5, 5), c=st.floats(-5, 5))
@settings(max_examples=50, deadline=None)
def test_stencils_exact_on_quadratics(a, b, c):
    # three-point stencils are constructed to differentiate any quadratic
    # polynomial exactly, on uniform and stretched grids alike
    g = build_grid(8.0, 32, "geometric", stretch=1.07)
    r = g.nodes
    v = a * r ** 2 + b * r + c
    scale = max(1.0, abs(a), abs(b), abs(c))
    assert np.max(np.abs(g.deriv1(v) - (2 * a * r + b))) < 1e-10 * scale
    assert np.max(np.abs(g.deriv2(v) - 2 * a)) < 1e-9 * scale


@pytest.mark.parametrize("grid", [
    build_grid(512.0, 2048, "uniform"),
    build_grid(512.0, 2048, "geometric", stretch=1.001),
    build_grid(512.0, 2048, "uniform").truncate(100.3),
], ids=["uniform", "geometric", "truncated"])
def test_vectorized_weights_match_per_node_loop(grid):
    # column j of the (3, N - 1) rows is interior node j + 1
    x = grid.nodes
    d1, d2, _ = grid._weights()
    loop1 = np.zeros_like(d1)
    loop2 = np.zeros_like(d2)
    for i in range(1, x.size - 1):
        loop1[:, i - 1], loop2[:, i - 1] = _three_point_weights(
            x[i - 1], x[i], x[i + 1])
    assert d1.shape == d2.shape == (3, x.size - 2)
    assert all(row.flags.c_contiguous for row in (*d1, *d2))
    assert np.array_equal(d1, loop1)
    assert np.array_equal(d2, loop2)


def test_stencils_second_order_on_smooth_profile():
    errs = []
    for N in (128, 256):
        g = build_grid(4.0, N, "uniform")
        r = g.nodes
        v = np.exp(-r ** 2)
        exact = -2.0 * r * np.exp(-r ** 2)
        errs.append(np.max(np.abs(g.deriv1(v)[1:-1] - exact[1:-1])))
    order = np.log2(errs[0] / errs[1])
    assert order > 1.9


def test_even_origin_second_derivative():
    g = build_grid(4.0, 256, "uniform")
    v = np.cos(g.nodes)          # even: f''(0) = -1
    assert abs(g.even_deriv2_origin(v) + 1.0) < 1e-3


def test_truncate_appends_exact_boundary():
    g = build_grid(16.0, 64, "uniform")
    t = g.truncate(5.1)
    assert t.nodes[-1] == 5.1
    assert np.all(np.diff(t.nodes) > 0)
    assert np.array_equal(t.nodes[:-1], g.nodes[g.nodes < 5.1])


def test_truncate_on_existing_node():
    g = build_grid(16.0, 64, "uniform")
    t = g.truncate(8.0)
    assert t.nodes[-1] == 8.0
    assert t.nodes.size == np.count_nonzero(g.nodes <= 8.0)


def test_truncate_refuses_radii_beyond_r_max():
    g = build_grid(512.0, 2048, "uniform")
    for r_out in (600.0, 512.0 * (1.0 + 5e-13)):
        with pytest.raises(InvalidArgument, match="beyond r_max"):
            g.truncate(r_out)
    # within the tolerance a radius is r_max, on either side
    assert TRUNCATION_TOL == 1e-14
    for r_out in (512.0 * (1.0 + 5e-15), 512.0 * (1.0 - 5e-15)):
        assert r_out != 512.0 and g.truncate(r_out) is g


def _bits(values):
    return np.ascontiguousarray(values).tobytes()


def _truncation_radii(grid):
    """Every schedule radius of every default r0 candidate, and the radii
    that a certification on ``grid`` truncates at (its schedule's and the
    gradient-ball audit's)."""
    radii = {r for r0 in default_r0_candidates(grid)
             for r in exhaustion_schedule(r0, grid.r_max)}
    data = make_dataset("perturbed-dec", 4, {"m": 1.0, "amplitude": 0.05},
                        grid=grid, seed=7)
    seen = []
    truncate = RadialGrid.truncate

    def recorded(self, r_out):
        seen.append(r_out)
        return truncate(self, r_out)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RadialGrid, "truncate", recorded)
        run_pipeline_on(data, grid, seed=7)
    ball = seen[-1]                 # the gradient-ball audit's, at a node
    assert ball in grid.nodes and ball < seen[0]
    return sorted(radii | set(seen)), ball


@pytest.mark.parametrize("grid", [
    build_grid(512.0, 2048, "uniform"),
    build_grid(512.0, 2047, "uniform"),
    build_grid(512.0, 2048, "geometric", stretch=1.001),
], ids=["uniform-even", "uniform-odd", "geometric"])
def test_truncated_views_equal_grids_built_from_scratch(grid):
    radii, ball = _truncation_radii(grid)
    r = grid.nodes
    values = np.sin(r / 7.0) * np.exp(-r / 50.0) + 1e-3 * np.cos(3.0 * r)
    views = 0
    for r_out in radii:
        sub = grid.truncate(r_out)
        if sub is grid:
            continue
        fresh = RadialGrid(np.array(sub.nodes), policy="truncated",
                           stretch=grid.stretch)
        m = sub.nodes.size
        is_view = sub._prefix_of is not None and sub._prefix_of() is grid
        views += is_view
        assert is_view == (r_out in r)
        assert _bits(sub.nodes) == _bits(fresh.nodes)
        for mine, theirs in zip(sub._weights(), fresh._weights()):
            assert mine.shape == theirs.shape
            assert _bits(mine) == _bits(theirs)
        for apply in ("deriv1", "deriv2"):
            assert (_bits(getattr(sub, apply)(values[:m]))
                    == _bits(getattr(fresh, apply)(values[:m])))
        assert (_bits(SampledProfile(sub, values[:m]).slopes())
                == _bits(SampledProfile(fresh, values[:m]).slopes()))
        config = CapillaryConfig(r0=r_out / 64.0, kappa0=1.0, kappa1=1.0,
                                 Q=None, s0=1.0, s1=1.0, tau=1.0, n=4,
                                 delta=0.5)
        for mine, theirs in zip(config.cutoff(sub), config.cutoff(fresh)):
            assert _bits(mine) == _bits(theirs)
            assert not mine.flags.writeable
        if is_view:
            # nodes, stencil rows and cutoff are slices of the base grid's
            assert np.shares_memory(sub.nodes, r)
            assert np.shares_memory(sub._weights()[0], grid._weights()[0])
            assert np.shares_memory(config.cutoff(sub)[0],
                                    config.cutoff(grid)[0])
            with pytest.raises(ValueError):
                sub.nodes.flags.writeable = True
            assert not sub.nodes.flags.writeable
    assert views >= 1 and ball in radii


def test_kept_truncations_outlive_their_base_grid():
    # one sub-grid per radius, kept on the grid, which refers to it while
    # it refers to the grid weakly: the grid is freed by reference counts
    # alone, and a view that outlives it evaluates what it read from it
    grid = build_grid(512.0, 2048, "uniform")
    view, appended = grid.kept_truncation(128.0), grid.kept_truncation(100.3)
    assert view._prefix_of() is grid and appended._prefix_of is None
    assert grid.kept_truncation(128.0) is view
    assert grid.kept_truncation(grid.r_max * (1.0 - 1e-15)) is grid
    assert sorted(key[1] for key in grid._keeps
                  if key[0] == "truncation") == [100.3, 128.0]
    fresh = RadialGrid(np.array(view.nodes))
    gc.disable()
    try:
        ref = weakref.ref(grid)
        del grid
        assert ref() is None
    finally:
        gc.enable()
    orphan = build_grid(512.0, 2048, "uniform").truncate(128.0)
    values = np.sin(fresh.nodes / 7.0)
    for sub in (view, orphan):
        assert sub._part_of() is None
        for apply in ("deriv1", "deriv2"):
            assert (_bits(getattr(sub, apply)(values))
                    == _bits(getattr(fresh, apply)(values)))
        assert _bits(SampledProfile(sub, values).slopes()) == _bits(
            SampledProfile(fresh, values).slopes())


def test_coarsen_keeps_every_other_node_and_r_max():
    even = build_grid(64.0, 32, "uniform")
    assert np.array_equal(even.coarsen().nodes, even.nodes[::2])
    odd = build_grid(64.0, 33, "geometric", 1.01)
    coarse = odd.coarsen()
    assert np.array_equal(coarse.nodes[:-1], odd.nodes[::2])
    assert coarse.nodes[-1] == odd.r_max and coarse.n_intervals == 17
    assert coarse.policy == "coarsened" and coarse.stretch == odd.stretch
    # one coarsening per grid, which keeps its stencils
    assert even.coarsen() is even.coarsen() and odd.coarsen() is coarse


def test_grid_keeps_its_own_read_only_nodes():
    built = build_grid(64.0, 32, "geometric", 1.01)
    given = np.linspace(0.0, 1.0, 33)
    grid = RadialGrid(given)
    for g in (built, grid, grid.truncate(0.75), grid.coarsen()):
        assert not g.nodes.flags.writeable
        with pytest.raises(ValueError):
            g.nodes[1] = 0.5
        # nor can the flag be set: the nodes view an immutable buffer
        with pytest.raises(ValueError):
            g.nodes.flags.writeable = True
        assert not g.nodes.flags.writeable
    given[1] = 0.5 * given[2]
    assert grid.nodes[1] == 1.0 / 32 and not np.shares_memory(given,
                                                              grid.nodes)
    # a grid built from another grid's nodes has its own copy too
    assert not np.shares_memory(RadialGrid(built.nodes).nodes, built.nodes)


@pytest.mark.parametrize("r_max", [1e-10, 512.0, 1e10])
def test_spacing_floor_is_where_stencil_weights_overflow(r_max):
    # whatever r_max, a first spacing just above MIN_SPACING gives finite
    # stencil weights and one just below is refused; at half of it the
    # weights would overflow
    n = 2048
    kept = build_grid(r_max, n, "geometric",
                      geometric_stretch_for(r_max, n, 1.1 * MIN_SPACING))
    assert all(np.isfinite(w).all() for w in kept._weights())
    with pytest.raises(InvalidArgument, match="below the 1.49e-154"):
        build_grid(r_max, n, "geometric",
                   geometric_stretch_for(r_max, n, 0.9 * MIN_SPACING))
    stretch = geometric_stretch_for(r_max, n, 0.5 * MIN_SPACING)
    h = r_max * (stretch - 1.0) / (stretch ** n - 1.0) * stretch ** np.arange(3)
    x = np.concatenate(([0.0], np.cumsum(h)))
    with np.errstate(over="ignore"):
        assert not np.isfinite(_three_point_weights(x[0], x[1], x[2])[1]).all()


def test_outer_third_mask():
    g = build_grid(9.0, 18, "uniform")
    mask = g.outer_third_mask()
    assert np.all(g.nodes[mask] >= 6.0)
    assert np.all(g.nodes[~mask] < 6.0)


def test_grid_rejects_bad_inputs():
    with pytest.raises(InvalidArgument):
        build_grid(-1.0, 32)
    with pytest.raises(InvalidArgument):
        build_grid(1.0, MIN_NODES - 1)
    with pytest.raises(InvalidArgument):
        build_grid(1.0, 32, "geometric")        # stretch missing
    with pytest.raises(InvalidArgument, match="below the 1.49e-154"):
        build_grid(32 * 0.9 * MIN_SPACING, 32)  # spacing under the floor
    with pytest.raises(InvalidArgument):
        RadialGrid(np.linspace(1.0, 2.0, 33))   # first node not 0
    with pytest.raises(InvalidArgument):
        nodes = np.linspace(0.0, 1.0, 33)
        nodes[5] = nodes[7]
        RadialGrid(np.sort(nodes))              # repeated node
    g = build_grid(16.0, 64, "uniform")
    with pytest.raises(InvalidArgument):
        g.truncate(g.nodes[4])                  # too few nodes left
    smallest = build_grid(16.0, MIN_NODES, "uniform")
    assert smallest.truncate(16.0) is smallest  # r_max keeps every node


@pytest.mark.parametrize("n_intervals", [2047, 2048])
@pytest.mark.parametrize("policy", ["uniform", "geometric"])
def test_trapezoid_and_simpson_equal_scipy_bit_for_bit(policy, n_intervals):
    # an odd point count (N = 2048) is Simpson's rule throughout; an even
    # one adds Cartwright's correction on the last interval
    r = build_grid(512.0, n_intervals, policy, stretch=1.001).nodes
    rng = np.random.default_rng(n_intervals)
    for y in (np.sqrt(1.0 + 1.0 / (1.0 + r) ** 2),
              rng.standard_normal(r.size) * np.exp(-r / 40.0),
              np.zeros_like(r)):
        want = np.concatenate(([0.0], cumulative_trapezoid(y, r)))
        assert np.array_equal(_cumulative_trapezoid(y, r).view(np.int64),
                              want.view(np.int64))
        assert _simpson(y, r) == float(simpson(y, x=r))
