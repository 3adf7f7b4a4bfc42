"""Radial profiles: analytic closed forms or sampled nodal values.

A profile knows its value and first two derivatives. Analytic profiles carry
closed-form derivatives; sampled profiles interpolate and differentiate with
scipy's not-a-knot cubic spline through their nodal values, formed only as
far as a read needs it.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import PPoly
from scipy.linalg import LinAlgError, get_lapack_funcs

from .grids import RadialGrid

_gtsv = get_lapack_funcs("gtsv", dtype=np.float64)


class AnalyticProfile:
    """Profile defined by callables for f, f', f''."""

    def __init__(self, f, d1, d2):
        self._f = f
        self._d1 = d1
        self._d2 = d2

    def __call__(self, r):
        return self._f(np.asarray(r, dtype=float))

    def deriv1(self, r):
        return self._d1(np.asarray(r, dtype=float))

    def deriv2(self, r):
        return self._d2(np.asarray(r, dtype=float))

    def deriv2_origin(self) -> float:
        """f''(0) of an even profile."""
        return float(self.deriv2(np.zeros(1))[0])


class SampledProfile:
    """Profile given by nodal values on a grid.

    The not-a-knot slopes come from one tridiagonal solve
    (``_SplineSystem.slopes``): f and f' at the grid's nodes, and at the
    nodes of its coarsening, are read from the values and the slopes.  The
    spline's coefficients are formed on the first read between the nodes or
    of f''.
    """

    def __init__(self, grid: RadialGrid, values):
        self.grid = grid
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != grid.nodes.shape:
            raise ValueError("values must match grid nodes")
        self._slopes = None
        self._spline = None

    def _system(self) -> "_SplineSystem":
        grid = self.grid
        if grid._spline is None:   # one spline system per grid
            object.__setattr__(grid, "_spline", _SplineSystem(grid.nodes))
        return grid._spline

    def slopes(self) -> np.ndarray:
        """The spline's slopes at the nodes, solved for once."""
        if self._slopes is None:
            self._slopes = self._system().slopes(self.values)
        return self._slopes

    def _get_spline(self) -> PPoly:
        if self._spline is None:
            self._spline = self._system().spline(self.values, self.slopes())
        return self._spline

    def __call__(self, r):
        return self._eval(r, 0)

    def deriv1(self, r):
        return self._eval(r, 1)

    def deriv2(self, r):
        return self._eval(r, 2)

    def _eval(self, r, order):
        r = np.asarray(r, dtype=float)
        grid, coarse = self.grid, self.grid._coarse
        if r is grid.nodes:
            return self._at_nodes(order)
        if coarse is not None and r is coarse.nodes:
            # every other node, plus r_max when N is odd
            out = self._at_nodes(order)
            if grid.n_intervals % 2:
                return np.append(out[::2], out[-1])
            return out[::2].copy()
        return self._get_spline()(r, order)

    def _at_nodes(self, order) -> np.ndarray:
        """f, f' or f'' at every node, bit for bit the spline's.

        At r_i, i < N, the spline is its interval polynomial at offset 0,
        which PPoly evaluates as 0.0 + c, so the zero signs agree too: f and
        f' are the values and the slopes, and only f'' needs the
        coefficients.  The last node lies at the end of the last interval,
        whose cubic is evaluated there.
        """
        y, s = self.values, self.slopes()
        if order == 2:
            out = np.empty_like(y)
            out[:-1] = 2.0 * self._get_spline().c[1] + 0.0
        else:
            out = (y if order == 0 else s) + 0.0
        last = self._system().spline(y, s, last=True)
        out[-1:] = last(self.grid.nodes[-1:], order)
        return out

    def deriv2_origin(self) -> float:
        """f''(0) of an even profile, from the first two nodal values."""
        return float(self.grid.even_deriv2_origin(self.values))


class _SplineSystem:
    """scipy's not-a-knot ``CubicSpline`` on one grid's nodes.

    The spacings and end factors depend on the nodes alone, so a grid
    builds them once (``RadialGrid._spline``).  ``slopes(y)`` assembles
    CubicSpline's right-hand side and calls the LAPACK routine
    (``gtsv``) that its ``solve_banded((1, 1), ...)`` calls, and
    ``spline(y, s)`` forms its Hermite coefficients: the result equals
    ``CubicSpline(nodes, y)`` bit for bit.  The three diagonals are formed
    per solve, which overwrites them: keeping them would hold three arrays
    of the grid's size for as long as the grid lives.
    """

    def __init__(self, x: np.ndarray):
        dx = np.diff(x)
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        self.x, self.dx, self.d0, self.d1 = x, dx, d0, d1
        # the end rows' node factors, grouped as CubicSpline's expressions are
        self.k = ((dx[0] + 2 * d0) * dx[1], dx[0] ** 2,
                  dx[-1] ** 2, (2 * d1 + dx[-1]) * dx[-2])

    def slopes(self, y: np.ndarray) -> np.ndarray:
        """The not-a-knot slopes at the nodes through the values y."""
        if not np.all(np.isfinite(y)):
            raise ValueError("`y` must contain only finite values.")
        dx, m, (k0, k1, k2, k3) = self.dx, self.x.size, self.k
        slope = np.diff(y) / dx
        b = np.empty(m)
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        b[0] = (k0 * slope[0] + k1 * slope[1]) / self.d0
        b[-1] = (k2 * slope[-2] + k3 * slope[-1]) / self.d1
        # (sub, diagonal, super) as solve_banded slices them from its band
        sub, diag, sup = np.empty(m - 1), np.empty(m), np.empty(m - 1)
        sub[:-1], diag[1:-1], sup[1:] = dx[1:], 2 * (dx[:-1] + dx[1:]), dx[:-1]
        sub[-1], diag[0], diag[-1], sup[0] = self.d1, dx[1], dx[-2], self.d0
        *_, s, info = _gtsv(sub, diag, sup, b, True, True, True, True)
        if info > 0:
            raise LinAlgError("singular matrix")
        return s

    def spline(self, y: np.ndarray, s: np.ndarray, last: bool = False) -> PPoly:
        """The cubic Hermite spline through values y with slopes s; with
        ``last``, only its last interval."""
        x, dx = self.x, self.dx
        if last:
            x, dx, y, s = x[-2:], dx[-1:], y[-2:], s[-2:]
        slope = np.diff(y) / dx
        t = (s[:-1] + s[1:] - 2 * slope) / dx   # CubicHermiteSpline from here
        c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))
        return PPoly.construct_fast(c, x)


def constant_profile(value: float):
    c = float(value)
    return AnalyticProfile(lambda r: np.full_like(r, c),
                           lambda r: np.zeros_like(r),
                           lambda r: np.zeros_like(r))
