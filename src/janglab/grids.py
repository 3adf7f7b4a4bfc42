"""Radial grids and finite-difference derivative stencils.

All fields live on a one-dimensional grid of radii ``0 = r_0 < r_1 < ... < r_N``.
Derivatives use three-point stencils that are exact on quadratics, so they are
second order on uniform grids and on smoothly stretched (geometric) grids.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument

MIN_NODES = 16


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


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of y from x[0] to each x[i], 0 at x[0].

    scipy's ``cumulative_trapezoid(y, x, initial=0)`` for 1-D y, with the
    same operations.
    """
    out = np.zeros(y.size)
    out[1:] = np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)
    return out


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson integral of y over strictly increasing x.

    scipy 1.17's ``simpson(y, x=x)`` for 1-D y, with the same operations:
    Simpson's rule on pairs of intervals, and for an even number of points
    Cartwright's correction on the last interval.
    """
    m = y.size
    h = np.diff(x)
    stop = m - 2 if m % 2 else m - 3
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, hprod = h0 + h1, h0 * h1
    h0divh1 = h0 / h1
    result = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / h0divh1)
                                  + y[1:stop + 1:2] * (hsum * (hsum / hprod))
                                  + y[2:stop + 2:2] * (2.0 - h0divh1)))
    if m % 2 == 0:
        # one-element arrays, so that the powers take numpy's array loops
        hm2, hm1 = h[-2:-1], h[-1:]
        alpha = (2 * hm1 ** 2 + 3 * hm2 * hm1) / (6 * (hm1 + hm2))
        beta = (hm1 ** 2 + 3.0 * hm2 * hm1) / (6 * hm2)
        eta = 1 * hm1 ** 3 / (6 * hm2 * (hm2 + hm1))
        result = result + (alpha * y[-1] + beta * y[-2] - eta * y[-3])[0]
    return float(result)


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radii starting at 0.

    ``policy`` is "uniform" or "geometric"; a geometric grid has a constant
    ratio ``stretch`` between consecutive spacings, concentrating nodes near
    the origin.  ``nodes`` is the grid's own copy of the radii it was
    given, held in an immutable buffer: it is read-only and cannot be made
    writeable, so everything kept per grid (stencils, frame, spline system,
    coarsening, formatted CSV fields) stays true to it.
    """

    nodes: np.ndarray
    policy: str = "uniform"
    stretch: float = 1.0
    _d1: np.ndarray = field(default=None, repr=False, compare=False)
    _d2: np.ndarray = field(default=None, repr=False, compare=False)
    # the frame of the last dataset evaluated here (geometry.RadialFrame.on)
    _frame: object = field(default=None, repr=False, compare=False)
    # the not-a-knot spline system on these nodes (profiles._SplineSystem)
    _spline: object = field(default=None, repr=False, compare=False)
    # the grid whose leading nodes these are, when truncate kept them all
    _prefix_of: "RadialGrid | None" = field(default=None, repr=False,
                                            compare=False)
    # the grid whose even-numbered nodes these are (a weak reference: that
    # grid keeps this one in _coarse)
    _stride_of: "weakref.ref | None" = field(default=None, repr=False,
                                             compare=False)
    # this grid's coarsening, built on first use
    _coarse: "RadialGrid | None" = field(default=None, repr=False,
                                         compare=False)

    def __post_init__(self):
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

    # -- derivative stencils ------------------------------------------------

    def _weights(self):
        if self._d1 is not None:
            return self._d1, self._d2
        x = self.nodes
        m = x.size
        d1 = np.zeros((m, 3))
        d2 = np.zeros((m, 3))
        w1, w2 = _three_point_weights(x[:-2], x[1:-1], x[2:])
        d1[1:-1], d2[1:-1] = w1.T, w2.T
        # one-sided stencils at the ends, exact on quadratics
        for i, (j0, j1, j2) in ((0, (0, 1, 2)), (m - 1, (m - 3, m - 2, m - 1))):
            xs = x[[j0, j1, j2]]
            v = np.vander(xs - x[i], 3, increasing=True)
            inv = np.linalg.inv(v.T)
            d1[i] = inv[:, 1]
            d2[i] = 2.0 * inv[:, 2]
        object.__setattr__(self, "_d1", d1)
        object.__setattr__(self, "_d2", d2)
        return d1, d2

    def deriv1(self, values: np.ndarray) -> np.ndarray:
        """Nodal first derivative of nodal values."""
        return self._apply(values, 0)

    def deriv2(self, values: np.ndarray) -> np.ndarray:
        """Nodal second derivative of nodal values."""
        return self._apply(values, 1)

    def _apply(self, values, which):
        d1, d2 = self._weights()
        w = d1 if which == 0 else d2
        v = np.asarray(values, dtype=float)
        out = np.empty_like(v)
        out[1:-1] = (w[1:-1, 0] * v[:-2] + w[1:-1, 1] * v[1:-1]
                     + w[1:-1, 2] * v[2:])
        out[0] = w[0] @ v[:3]
        out[-1] = w[-1] @ v[-3:]
        return out

    def even_deriv2_origin(self, values: np.ndarray) -> np.ndarray:
        """Second derivative at r=0 of an even profile (f'(0)=0 assumed)."""
        r1 = self.nodes[1]
        return 2.0 * (values[1] - values[0]) / r1 ** 2

    # -- restriction --------------------------------------------------------

    def truncate(self, r_out: float) -> "RadialGrid":
        """Sub-grid covering [0, r_out]; appends r_out if it is not a node.

        At r_out = r_max it is the grid itself, with its stencils, frame and
        spline system.  When r_out is a node, the sub-grid's nodes are this
        grid's leading nodes, and its frames read this grid's
        (``geometry.RadialFrame.on``).  A node within a relative 1e-14 of
        r_out is moved onto it.
        """
        if r_out == self.nodes[-1]:
            return self
        if r_out <= self.nodes[MIN_NODES]:
            raise InvalidArgument("truncation radius leaves too few nodes")
        keep = self.nodes[self.nodes <= r_out * (1.0 + 1e-14)]
        prefix_of = self if keep[-1] == r_out else None
        if keep[-1] < r_out * (1.0 - 1e-14):
            keep = np.append(keep, r_out)
        else:
            keep[-1] = r_out
        return RadialGrid(keep, policy="truncated", stretch=self.stretch,
                          _prefix_of=prefix_of)

    def coarsen(self) -> "RadialGrid":
        """Every other node, plus r_max when N is odd.

        Built once per grid, so its stencils and spline system are too.  For
        even N its frames read every other value of this grid's frame
        (``geometry.RadialFrame.on``); for odd N they are evaluated.
        """
        if self._coarse is None:
            nodes, stride_of = self.nodes[::2], weakref.ref(self)
            if self.n_intervals % 2:
                nodes, stride_of = np.append(nodes, self.nodes[-1]), None
            object.__setattr__(self, "_coarse", RadialGrid(
                nodes, policy="coarsened", stretch=self.stretch,
                _stride_of=stride_of))
        return self._coarse

    def _keep_frame(self, frame) -> None:
        """Hold ``frame`` as this grid's frame.  The frames of its even
        coarsenings read the frame it replaces, so they are dropped."""
        object.__setattr__(self, "_frame", frame)
        coarse = self._coarse
        while coarse is not None and coarse._stride_of is not None:
            object.__setattr__(coarse, "_frame", None)
            coarse = coarse._coarse

    def outer_third_mask(self) -> np.ndarray:
        """Boolean mask selecting radii in the outer third of [0, r_max]."""
        return self.nodes >= (2.0 / 3.0) * self.r_max


def build_grid(r_max: float, n_intervals: int, policy: str = "uniform",
               stretch: float | None = None) -> RadialGrid:
    """Build a radial grid on [0, r_max] with N intervals.

    Geometric spacing uses ``h_{i+1} = stretch * h_i``, so nodes concentrate
    near the origin for stretch > 1.
    """
    if r_max <= 0.0:
        raise InvalidArgument(f"r_max must be positive, got {r_max}")
    if n_intervals < MIN_NODES:
        raise InvalidArgument(f"need N >= {MIN_NODES}, got {n_intervals}")
    if policy == "uniform":
        nodes = np.linspace(0.0, r_max, n_intervals + 1)
        return RadialGrid(nodes, policy="uniform", stretch=1.0)
    if policy == "geometric":
        if stretch is None or stretch <= 0.0:
            raise InvalidArgument("geometric policy needs a positive stretch factor")
        if abs(stretch - 1.0) < 1e-14:
            return build_grid(r_max, n_intervals, "uniform")
        # h0 * (s^N - 1)/(s - 1) = r_max
        h0 = r_max * (stretch - 1.0) / (stretch ** n_intervals - 1.0)
        h = h0 * stretch ** np.arange(n_intervals)
        nodes = np.concatenate(([0.0], np.cumsum(h)))
        nodes[-1] = r_max
        return RadialGrid(nodes, policy="geometric", stretch=float(stretch))
    raise InvalidArgument(f"unknown spacing policy {policy!r}")


def geometric_stretch_for(r_max: float, n_intervals: int, h0: float) -> float:
    """Stretch factor whose geometric grid on [0, r_max] starts with spacing h0."""
    if not 0.0 < h0 < r_max / n_intervals:
        raise InvalidArgument("h0 must lie in (0, r_max/N)")
    lo, hi = 1.0 + 1e-12, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        first = r_max * (mid - 1.0) / (mid ** n_intervals - 1.0)
        if first > h0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
