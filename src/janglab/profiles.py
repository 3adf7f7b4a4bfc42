"""Radial profiles: analytic closed forms or sampled nodal values.

A profile knows its value and first two derivatives. Analytic profiles carry
closed-form derivatives; sampled profiles interpolate and differentiate with
the not-a-knot cubic spline through their nodal values.  Its slopes and
coefficients equal scipy's ``CubicSpline``, and ``_Cubic`` evaluates it in
the operation order of scipy's ``PPoly``, so every value and derivative
carries the same bits; the coefficients are formed only on the intervals
that a read reaches.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from .grids import RadialGrid

_gttrf, _gttrs = get_lapack_funcs(("gttrf", "gttrs"), dtype=np.float64)


class AnalyticProfile:
    """Profile defined by its jet.

    ``jet(r, order)`` gives the tuple (f, f', ..., f^(order)) at r, for
    order 0, 1 or 2, from one evaluation of what they share: a frame reads
    a profile's value and derivatives through it, and f, f' and f'' are
    read from it too, so each formula lives in one place and every read
    carries the same bits.  A profile keeps no evaluated array.
    """

    def __init__(self, jet):
        self._jet = jet

    def __call__(self, r):
        return self._jet(np.asarray(r, dtype=float), 0)[0]

    def deriv1(self, r):
        return self._jet(np.asarray(r, dtype=float), 1)[1]

    def deriv2(self, r):
        return self._jet(np.asarray(r, dtype=float), 2)[2]

    def jet(self, r, order: int = 2) -> tuple:
        """(f, f', ..., f^(order)) at r, for order 0, 1 or 2."""
        return self._jet(np.asarray(r, dtype=float), order)

    def deriv2_origin(self) -> float:
        """f''(0) of an even profile."""
        return float(self.deriv2(np.zeros(1))[0])


class SampledProfile:
    """Profile given by nodal values on a grid.

    The not-a-knot slopes come from one tridiagonal solve
    (``_SplineSystem.slopes``): f and f' at the grid's nodes, and at the
    nodes of its coarsening, are read from the values and the slopes.  A
    read between the nodes, or of f'', forms the spline's coefficients on
    the intervals from the first to the last that it reaches.
    """

    def __init__(self, grid: RadialGrid, values):
        self.grid = grid
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != grid.nodes.shape:
            raise ValueError("values must match grid nodes")
        self._slopes = None

    def _system(self) -> "_SplineSystem":
        grid = self.grid    # one spline system per grid
        return grid.kept("spline", lambda: _SplineSystem(grid.nodes))

    def slopes(self) -> np.ndarray:
        """The spline's slopes at the nodes, solved for once."""
        if self._slopes is None:
            self._slopes = self._system().slopes(self.values)
        return self._slopes

    def __call__(self, r):
        return self._eval(r, 0)

    def deriv1(self, r):
        return self._eval(r, 1)

    def deriv2(self, r):
        return self._eval(r, 2)

    def _eval(self, r, order):
        r = np.asarray(r, dtype=float)
        grid, coarse = self.grid, self.grid._keeps.get("coarse")
        if r is grid.nodes:
            return self._at_nodes(order)
        if coarse is not None and r is coarse.nodes:
            # every other node, plus r_max when N is odd
            out = self._at_nodes(order)
            if grid.n_intervals % 2:
                return np.append(out[::2], out[-1])
            return out[::2].copy()
        return self._spline_on(r)(r, order)

    def _spline_on(self, r) -> "_Cubic":
        """The spline on the intervals that the radii r fall in, from the
        first to the last; on every interval when r is empty or holds NaN."""
        x = self.grid.nodes
        lo, hi = 0, x.size - 1
        r_min, r_max = r.min(initial=np.inf), r.max(initial=-np.inf)
        if r_min <= r_max:
            ends = np.searchsorted(x, (r_min, r_max), side="right") - 1
            lo, hi = (np.clip(ends, 0, x.size - 2) + (0, 1)).tolist()
        return self._system().spline(self.values, self.slopes(), lo, hi)

    def _at_nodes(self, order) -> np.ndarray:
        """f, f' or f'' at every node, bit for bit the spline's.

        At r_i, i < N, the spline is its interval polynomial at offset 0,
        which ``_Cubic`` evaluates as 0.0 + c, so the zero signs agree too:
        f and f' are the values and the slopes, and only f'' needs the
        coefficients.  The last node lies at the end of the last interval,
        whose cubic is evaluated there.
        """
        y, s = self.values, self.slopes()
        if order == 2:
            out = np.empty_like(y)
            out[:-1] = 2.0 * self._system().spline(y, s).c[1] + 0.0
        else:
            out = (y if order == 0 else s) + 0.0
        last = self._system().spline(y, s, self.grid.n_intervals - 1)
        out[-1:] = last(self.grid.nodes[-1:], order)
        return out

    def deriv2_origin(self) -> float:
        """f''(0) of an even profile, from the first two nodal values."""
        return float(self.grid.even_deriv2_origin(self.values))


class _Cubic:
    """The piecewise cubic ``c[0] s^3 + c[1] s^2 + c[2] s + c[3]``,
    ``s = r - x[i]`` on ``[x[i], x[i+1]]``: scipy's ``PPoly(c, x)`` for
    breakpoints ``x`` and coefficients ``c`` of shape ``(4, x.size - 1)``.

    A radius r takes the interval with x[i] <= r < x[i+1], the last one at
    r = x[-1]; beyond either end it takes the end interval, so the cubic
    extrapolates.  The terms are summed in the order and grouping of
    PPoly's compiled ``evaluate_poly1``, with the same derivative factors,
    so values and first and second derivatives are PPoly's bit for bit.
    """

    def __init__(self, c: np.ndarray, x: np.ndarray):
        self.c, self.x = c, x

    def __call__(self, r, order: int = 0) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        x = self.x
        i = np.clip(np.searchsorted(x, r, side="right") - 1, 0, x.size - 2)
        s = r - x[i]
        c0, c1, c2, c3 = self.c[:, i]
        with np.errstate(invalid="ignore", over="ignore"):  # PPoly is silent
            if order == 0:
                out = 0.0 + c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)
            elif order == 1:
                out = 0.0 + c2 + c1 * s * 2.0 + c0 * (s * s) * 3.0
            elif order == 2:
                out = 0.0 + c1 * 2.0 + c0 * s * 6.0
            else:
                raise ValueError(f"derivative order {order} is not 0, 1 or 2")
        return np.asarray(out)


class _SplineSystem:
    """scipy's not-a-knot ``CubicSpline`` on one grid's nodes.

    The spacings, end factors and matrix depend on the nodes alone, so a
    grid builds them once and keeps them (``SampledProfile._system``).
    The matrix is factored once, with LAPACK's ``gttrf``, and ``slopes(y)``
    assembles CubicSpline's right-hand side and solves with ``gttrs`` on
    that factor.  The two run the elimination and the substitutions of
    ``gtsv``, which CubicSpline's ``solve_banded((1, 1), ...)`` calls, in
    the same order; ``spline(y, s)`` forms its Hermite coefficients: the
    result equals ``CubicSpline(nodes, y)`` bit for bit.  The factor holds
    four float arrays and one int32 array of the grid's size, about 36
    bytes per node (1.2 MB at N = 32768), for as long as the grid lives.
    """

    def __init__(self, x: np.ndarray):
        dx = np.diff(x)
        m, d0, d1 = x.size, x[2] - x[0], x[-1] - x[-3]
        self.x, self.dx, self.d0, self.d1 = x, dx, d0, d1
        # the end rows' node factors, grouped as CubicSpline's expressions are
        self.k = ((dx[0] + 2 * d0) * dx[1], dx[0] ** 2,
                  dx[-1] ** 2, (2 * d1 + dx[-1]) * dx[-2])
        # (sub, diagonal, super) as solve_banded slices them from its band
        sub, diag, sup = np.empty(m - 1), np.empty(m), np.empty(m - 1)
        sub[:-1], diag[1:-1], sup[1:] = dx[1:], 2 * (dx[:-1] + dx[1:]), dx[:-1]
        sub[-1], diag[0], diag[-1], sup[0] = d1, dx[1], dx[-2], d0
        *self._factor, self._info = _gttrf(sub, diag, sup, True, True, True)

    def slopes(self, y: np.ndarray) -> np.ndarray:
        """The not-a-knot slopes at the nodes through the values y."""
        if not np.all(np.isfinite(y)):
            raise ValueError("`y` must contain only finite values.")
        if self._info > 0:
            raise LinAlgError("singular matrix")
        dx, m, (k0, k1, k2, k3) = self.dx, self.x.size, self.k
        slope = np.diff(y) / dx
        b = np.empty(m)
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        b[0] = (k0 * slope[0] + k1 * slope[1]) / self.d0
        b[-1] = (k2 * slope[-2] + k3 * slope[-1]) / self.d1
        s, _ = _gttrs(*self._factor, b, overwrite_b=True)
        return s

    def spline(self, y: np.ndarray, s: np.ndarray, lo: int = 0,
               hi: int | None = None) -> _Cubic:
        """The cubic Hermite spline through values y with slopes s, on the
        intervals ``lo`` to ``hi - 1`` (all of them by default)."""
        hi = self.dx.size if hi is None else hi
        x, dx = self.x[lo:hi + 1], self.dx[lo:hi]
        y, s = y[lo:hi + 1], s[lo:hi + 1]
        slope = np.diff(y) / dx
        t = (s[:-1] + s[1:] - 2 * slope) / dx   # CubicHermiteSpline from here
        c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))
        return _Cubic(c, x)


def constant_profile(value: float):
    c = float(value)
    return AnalyticProfile(lambda r, order: (
        np.full_like(r, c), *(np.zeros_like(r) for _ in range(order))))
