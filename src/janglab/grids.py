"""Radial grids and finite-difference derivative stencils.

All fields live on a one-dimensional grid of radii ``0 = r_0 < r_1 < ... < r_N``.
Derivatives use three-point stencils that are exact on quadratics, so they are
second order on uniform grids and on smoothly stretched (geometric) grids.

What depends on the nodes alone, plus a key its owner chooses, is made on
first use and kept in one store on the grid for the grid's life
(``RadialGrid.kept``): the stencil weights, the coarsening, the spline
system, the Simpson weights, the capillary cutoff per r0 and the barrier
values per (r0, n).
The frame of the last dataset is kept apart, as it is replaced when the
dataset changes.  A grid truncated at one of its nodes is a view: its
nodes are a leading slice of the base grid's immutable buffer, its
interior and origin stencil rows are the base grid's, and its frame and
cutoff are slices of the base grid's.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooShort, InvalidArgument

MIN_NODES = 16
# relative distance within which a radius is taken to be r_max
TRUNCATION_TOL = 1e-14


def _three_point_weights(x0, x1, x2):
    """First/second derivative weights at x1 for nodes (x0, x1, x2)."""
    hm = x1 - x0
    hp = x2 - x1
    d1 = np.array([-hp / (hm * (hm + hp)),
                   (hp - hm) / (hm * hp),
                   hm / (hp * (hm + hp))])
    d2 = np.array([2.0 / (hm * (hm + hp)),
                   -2.0 / (hm * hp),
                   2.0 / (hp * (hm + hp))])
    return d1, d2


def _one_sided_weights(xs, x):
    """(first, second) derivative weights at x for the three nodes xs, exact
    on quadratics, as the rows of a (2, 3) array."""
    inv = np.linalg.inv(np.vander(xs - x, 3, increasing=True).T)
    return np.array([inv[:, 1], 2.0 * inv[:, 2]])


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of y from x[0] to each x[i], 0 at x[0].

    scipy's ``cumulative_trapezoid(y, x, initial=0)`` for 1-D y, with the
    same operations.
    """
    out = np.zeros(y.size)
    out[1:] = np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)
    return out


def _simpson_weights(x: np.ndarray):
    """The factors of ``_simpson`` that depend on x alone: per pair of
    intervals the factor hsum/6 and the weights of its three values, and
    for an even number of points Cartwright's three end weights (else
    None)."""
    m = x.size
    h = np.diff(x)
    stop = m - 2 if m % 2 else m - 3
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, hprod = h0 + h1, h0 * h1
    h0divh1 = h0 / h1
    pairs = (hsum / 6.0, 2.0 - 1.0 / h0divh1, hsum * (hsum / hprod),
             2.0 - h0divh1)
    if m % 2:
        return pairs, None
    # one-element arrays, so that the powers take numpy's array loops
    hm2, hm1 = h[-2:-1], h[-1:]
    alpha = (2 * hm1 ** 2 + 3 * hm2 * hm1) / (6 * (hm1 + hm2))
    beta = (hm1 ** 2 + 3.0 * hm2 * hm1) / (6 * hm2)
    eta = 1 * hm1 ** 3 / (6 * hm2 * (hm2 + hm1))
    return pairs, (alpha, beta, eta)


def _simpson(y: np.ndarray, x: np.ndarray, weights=None) -> float:
    """Composite Simpson integral of y over strictly increasing x.

    scipy 1.17's ``simpson(y, x=x)`` for 1-D y, with the same operations:
    Simpson's rule on pairs of intervals, and for an even number of points
    Cartwright's correction on the last interval.  ``weights`` are
    ``_simpson_weights(x)`` when already evaluated.
    """
    (scale, w0, w1, w2), end = (_simpson_weights(x) if weights is None
                                else weights)
    stop = 2 * w0.size - 1
    # hsum/6 (y0 w0 + y1 w1 + y2 w2), the products summed left to right
    terms = np.multiply(y[0:stop:2], w0)
    term = np.multiply(y[1:stop + 1:2], w1)
    terms += term
    terms += np.multiply(y[2:stop + 2:2], w2, out=term)
    terms *= scale
    result = np.sum(terms)
    if end is not None:
        alpha, beta, eta = end
        result = result + (alpha * y[-1] + beta * y[-2] - eta * y[-3])[0]
    return float(result)


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radii starting at 0.

    ``policy`` is "uniform" or "geometric"; a geometric grid has a constant
    ratio ``stretch`` between consecutive spacings, concentrating nodes near
    the origin.  ``nodes`` is the grid's own copy of the radii it was
    given, held in an immutable buffer: it is read-only and cannot be made
    writeable, so everything kept per grid (stencils, frame, cutoff, spline
    system, coarsening, barrier values, formatted CSV fields) stays true
    to it.  A truncation at a node (``truncate``) views the leading nodes
    of that buffer instead of copying them.
    """

    nodes: np.ndarray
    policy: str = "uniform"
    stretch: float = 1.0
    # key -> the value kept for it (``kept``)
    _keeps: dict = field(default_factory=dict, repr=False, compare=False)
    # the frame of the last dataset evaluated here (geometry.RadialFrame.on)
    _frame: object = field(default=None, repr=False, compare=False)
    # the grid whose leading nodes these are (``truncate`` at a node): the
    # nodes are a slice of that grid's
    _prefix_of: "RadialGrid | None" = field(default=None, repr=False,
                                            compare=False)
    # the grid whose even-numbered nodes these are (a weak reference: that
    # grid keeps this one as its coarsening)
    _stride_of: "weakref.ref | None" = field(default=None, repr=False,
                                             compare=False)

    def __post_init__(self):
        if self._prefix_of is not None:     # a view, made by truncate
            return
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < MIN_NODES + 1:
            raise InvalidArgument(f"need at least {MIN_NODES + 1} nodes, got {nodes.size}")
        # a copy viewed on bytes: setting its writeable flag raises
        nodes = np.frombuffer(nodes.tobytes())
        object.__setattr__(self, "nodes", nodes)
        if nodes[0] != 0.0:
            raise InvalidArgument("first node must be 0")
        if np.any(np.diff(nodes) <= 0.0):
            raise InvalidArgument("nodes must be strictly increasing")

    @property
    def n_intervals(self) -> int:
        return self.nodes.size - 1

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def spacings(self) -> np.ndarray:
        return np.diff(self.nodes)

    def _part_of(self):
        """(grid, part) when these nodes are ``grid.nodes[part]``: for a
        truncation at a node, and for the coarsening of an even N while its
        base grid lives; None otherwise."""
        if self._prefix_of is not None:
            return self._prefix_of, slice(None, self.nodes.size)
        base = self._stride_of() if self._stride_of is not None else None
        return None if base is None else (base, slice(None, None, 2))

    def kept(self, key, make):
        """The value kept on this grid for ``key``: ``make()`` on first use,
        then the same object for as long as the grid lives.  The key names
        its owner (``"spline"``, ``("barrier", r0, n)``), and the value
        depends on nothing but the nodes and the key."""
        keeps = self._keeps
        value = keeps.get(key)
        if value is None:
            value = keeps[key] = make()
        return value

    # -- derivative stencils ------------------------------------------------

    def _weights(self):
        """(d1, d2, ends): the stencil weights, evaluated once per grid.

        Column j of the (3, m - 2) arrays d1 and d2 holds the first and
        second derivative weights of interior node j + 1 on nodes j, j + 1
        and j + 2, so each row is contiguous.  ``ends[k]`` holds the
        one-sided rows of derivative k + 1 at the origin (on nodes 0, 1, 2)
        and at r_max (on the last three nodes).  A truncation at a node
        reads the base grid's interior rows and origin rows, which are its
        own, and evaluates its outer rows.
        """
        return self.kept("weights", self._evaluate_weights)

    def _evaluate_weights(self):
        x = self.nodes
        last = _one_sided_weights(x[-3:], x[-1])
        if self._prefix_of is not None:
            base_d1, base_d2, base_ends = self._prefix_of._weights()
            d1, d2 = base_d1[:, :x.size - 2], base_d2[:, :x.size - 2]
            first = base_ends[:, 0]
        else:
            d1, d2 = _three_point_weights(x[:-2], x[1:-1], x[2:])
            first = _one_sided_weights(x[:3], x[0])
        return d1, d2, np.stack((first, last), axis=1)

    def deriv1(self, values: np.ndarray) -> np.ndarray:
        """Nodal first derivative of nodal values."""
        return self._apply(values, 0)

    def deriv2(self, values: np.ndarray) -> np.ndarray:
        """Nodal second derivative of nodal values."""
        return self._apply(values, 1)

    def _apply(self, values, which):
        weights = self._weights()
        w, (first, last) = weights[which], weights[2][which]
        v = np.asarray(values, dtype=float)
        out = np.empty_like(v)
        # w0 v0 + w1 v1 + w2 v2, summed left to right into out
        mid, term = out[1:-1], np.empty(v.size - 2)
        np.multiply(w[0], v[:-2], out=mid)
        mid += np.multiply(w[1], v[1:-1], out=term)
        mid += np.multiply(w[2], v[2:], out=term)
        out[0] = first @ v[:3]
        out[-1] = last @ v[-3:]
        return out

    def even_deriv2_origin(self, values: np.ndarray) -> np.ndarray:
        """Second derivative at r=0 of an even profile (f'(0)=0 assumed)."""
        r1 = self.nodes[1]
        return 2.0 * (values[1] - values[0]) / r1 ** 2

    # -- restriction --------------------------------------------------------

    def radius_within(self, r_out: float) -> float:
        """r_out as an outer radius inside this grid: r_max when r_out lies
        within a relative ``TRUNCATION_TOL`` of it; InvalidArgument when
        r_out lies beyond that."""
        r_max = self.nodes[-1]
        if abs(r_out - r_max) <= TRUNCATION_TOL * r_max:
            return r_max
        if r_out > r_max:
            raise InvalidArgument(
                f"truncation radius {r_out!r} lies beyond r_max = {r_max!r}")
        return r_out

    def truncate(self, r_out: float) -> "RadialGrid":
        """Sub-grid covering [0, r_out]; appends r_out if it is not a node.

        A radius within a relative ``TRUNCATION_TOL`` of r_max is r_max,
        whose sub-grid is the grid itself, with everything kept on it; one
        beyond raises InvalidArgument, and one up to node ``MIN_NODES``
        GridTooShort.  When r_out is a node, the sub-grid is a view of this
        grid: its nodes are a leading slice of these (neither copied nor
        checked again), and its interior and origin stencil rows, frames
        (``geometry.RadialFrame.on``) and cutoff read this grid's.
        Otherwise a node within a relative 1e-14 of r_out is moved onto
        it, and the sub-grid is built from its own copy of the nodes.
        """
        x = self.nodes
        r_out = self.radius_within(r_out)
        if r_out == x[-1]:
            return self
        if r_out <= x[MIN_NODES]:
            raise GridTooShort(f"truncation radius {r_out:g} leaves too few nodes")
        m = int(np.searchsorted(x, r_out * (1.0 + 1e-14), "right"))
        if x[m - 1] == r_out:
            return RadialGrid(x[:m], policy="truncated", stretch=self.stretch,
                              _prefix_of=self)
        if x[m - 1] < r_out * (1.0 - 1e-14):
            keep = np.append(x[:m], r_out)
        else:
            keep = x[:m].copy()
            keep[-1] = r_out
        return RadialGrid(keep, policy="truncated", stretch=self.stretch)

    def coarsen(self) -> "RadialGrid":
        """Every other node, plus r_max when N is odd.

        Built once per grid, so its stencils and spline system are too.  For
        even N its frames read every other value of this grid's frame
        (``geometry.RadialFrame.on``); for odd N they are evaluated.
        """
        def make():
            nodes, stride_of = self.nodes[::2], weakref.ref(self)
            if self.n_intervals % 2:
                nodes, stride_of = np.append(nodes, self.nodes[-1]), None
            return RadialGrid(nodes, policy="coarsened", stretch=self.stretch,
                              _stride_of=stride_of)
        return self.kept("coarse", make)

    def _keep_frame(self, frame) -> None:
        """Hold ``frame`` as this grid's frame.  The frames of its even
        coarsenings read the frame it replaces, so they are dropped;
        ``None`` drops every coarsening's frame (at odd N a coarsening's
        frame is its own), so that no dataset stays reachable from the
        grid.  What the grid keeps (``kept``) stays."""
        object.__setattr__(self, "_frame", frame)
        coarse = self._keeps.get("coarse")
        while coarse is not None and (frame is None
                                      or coarse._stride_of is not None):
            object.__setattr__(coarse, "_frame", None)
            coarse = coarse._keeps.get("coarse")

    def outer_third_mask(self) -> np.ndarray:
        """Boolean mask selecting radii in the outer third of [0, r_max]."""
        return self.nodes >= (2.0 / 3.0) * self.r_max


# the smallest spacing a grid may have: above it the product of any two
# spacings is a normal float, so every stencil weight (at most about
# 2/(h h')) is finite
MIN_SPACING = float(np.sqrt(np.finfo(float).tiny))     # about 1.49e-154


def build_grid(r_max: float, n_intervals: int, policy: str = "uniform",
               stretch: float | None = None) -> RadialGrid:
    """Build a radial grid on [0, r_max] with N intervals.

    Geometric spacing uses ``h_{i+1} = stretch * h_i``, so nodes concentrate
    near the origin for stretch > 1.  A grid whose smallest spacing lies
    below ``MIN_SPACING`` (about 1.49e-154, the square root of the smallest
    normal float) raises InvalidArgument.  Above it every stencil weight is
    finite; from about 0.7 ``MIN_SPACING`` down, the weight -2/(h_1 h_2)
    at the first interior node overflows.  The floor is absolute, as the
    weights are.  On [0, 512] with N = 2048 it refuses stretch 1.195
    (h_1 = 3.5e-157) and keeps 1.19 (h_1 = 1.9e-153).
    """
    if r_max <= 0.0:
        raise InvalidArgument(f"r_max must be positive, got {r_max}")
    if n_intervals < MIN_NODES:
        raise InvalidArgument(f"need N >= {MIN_NODES}, got {n_intervals}")
    if policy == "uniform":
        _check_spacing(r_max / n_intervals, f"r_max {r_max} over "
                       f"{n_intervals} intervals")
        nodes = np.linspace(0.0, r_max, n_intervals + 1)
        return RadialGrid(nodes, policy="uniform", stretch=1.0)
    if policy == "geometric":
        if stretch is None or stretch <= 0.0:
            raise InvalidArgument("geometric policy needs a positive stretch factor")
        if abs(stretch - 1.0) < 1e-14:
            return build_grid(r_max, n_intervals, "uniform")
        # h0 * (s^N - 1)/(s - 1) = r_max
        try:
            h0 = r_max * (stretch - 1.0) / (stretch ** n_intervals - 1.0)
        except OverflowError:
            raise InvalidArgument(
                f"geometric stretch {stretch} overflows over {n_intervals} "
                f"intervals: stretch ** N is not a finite float") from None
        h = h0 * stretch ** np.arange(n_intervals)
        _check_spacing(h.min(), f"geometric stretch {stretch} over "
                       f"{n_intervals} intervals")
        nodes = np.concatenate(([0.0], np.cumsum(h)))
        nodes[-1] = r_max
        return RadialGrid(nodes, policy="geometric", stretch=float(stretch))
    raise InvalidArgument(f"unknown spacing policy {policy!r}")


def _check_spacing(smallest: float, what: str) -> None:
    if smallest < MIN_SPACING:
        raise InvalidArgument(
            f"{what} gives a spacing of {smallest:.3g}, below the "
            f"{MIN_SPACING:.3g} that keeps its stencil weights finite")


def geometric_stretch_for(r_max: float, n_intervals: int, h0: float) -> float:
    """Stretch factor whose geometric grid on [0, r_max] starts with spacing h0.

    The bisection stays below 2 and below 2^(1000/N), so every power
    stretch ** N it forms is finite; an h0 that only a larger stretch
    reaches raises InvalidArgument.
    """
    if not 0.0 < h0 < r_max / n_intervals:
        raise InvalidArgument("h0 must lie in (0, r_max/N)")

    def first(s):
        return r_max * (s - 1.0) / (s ** n_intervals - 1.0)
    lo, hi = 1.0 + 1e-12, min(2.0, 2.0 ** (1000.0 / n_intervals))
    if first(hi) > h0:
        raise InvalidArgument(f"h0 = {h0:g} over {n_intervals} intervals "
                              f"needs a stretch above {hi:g}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if first(mid) > h0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
