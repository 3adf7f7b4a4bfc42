import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from janglab.errors import InvalidArgument
from janglab.grids import (MIN_NODES, RadialGrid, _three_point_weights,
                           build_grid, geometric_stretch_for)


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
    s = geometric_stretch_for(100.0, 64, 0.1)
    g = build_grid(100.0, 64, "geometric", stretch=s)
    assert abs(g.spacings[0] - 0.1) < 1e-6


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
    x = grid.nodes
    d1, d2 = grid._weights()
    loop1 = np.zeros_like(d1)
    loop2 = np.zeros_like(d2)
    for i in range(1, x.size - 1):
        loop1[i], loop2[i] = _three_point_weights(x[i - 1], x[i], x[i + 1])
    assert np.array_equal(d1[1:-1], loop1[1:-1])
    assert np.array_equal(d2[1:-1], loop2[1:-1])


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
    given[1] = 0.5 * given[2]
    assert grid.nodes[1] == 1.0 / 32 and not np.shares_memory(given,
                                                              grid.nodes)
    # a grid built from another grid's nodes has its own copy too
    assert not np.shares_memory(RadialGrid(built.nodes).nodes, built.nodes)


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
