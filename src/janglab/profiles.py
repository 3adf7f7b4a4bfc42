"""Radial profiles: analytic closed forms or sampled nodal values.

A profile knows its value and first two derivatives. Analytic profiles carry
closed-form derivatives; sampled profiles interpolate and differentiate with
scipy's not-a-knot cubic spline through their nodal values.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import PPoly
from scipy.linalg import solve_banded

from .grids import RadialGrid


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
    """Profile given by nodal values on a grid."""

    def __init__(self, grid: RadialGrid, values):
        self.grid = grid
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != grid.nodes.shape:
            raise ValueError("values must match grid nodes")
        self._spline = None

    def _get_spline(self):
        if self._spline is None:
            grid = self.grid
            if grid._spline is None:   # one spline system per grid
                object.__setattr__(grid, "_spline", _SplineSystem(grid.nodes))
            self._spline = grid._spline.spline(self.values)
        return self._spline

    def __call__(self, r):
        return self._eval(r, 0)

    def deriv1(self, r):
        return self._eval(r, 1)

    def deriv2(self, r):
        return self._eval(r, 2)

    def _eval(self, r, order):
        spline = self._get_spline()
        r = np.asarray(r, dtype=float)
        if r is not self.grid.nodes:
            return spline(r, order)
        # At its own nodes r_i, i < N, the spline is its interval polynomial
        # at offset 0: the result is the constant term of the derivative,
        # formed as PPoly forms it (0.0 + c) so the bits and zero signs agree.
        # The last node lies at the end of the last interval.
        c = spline.c
        out = np.empty_like(r)
        if order == 0:
            out[:-1] = c[3] + 0.0
        elif order == 1:
            out[:-1] = c[2] + 0.0
        else:
            out[:-1] = 2.0 * c[1] + 0.0
        out[-1:] = spline(r[-1:], order)
        return out

    def deriv2_origin(self) -> float:
        """f''(0) of an even profile, from the first two nodal values."""
        return float(self.grid.even_deriv2_origin(self.values))


class _SplineSystem:
    """scipy's not-a-knot ``CubicSpline`` on one grid's nodes.

    The banded matrix depends on the nodes alone, so a grid builds it once
    (``RadialGrid._spline``).  ``spline(y)`` uses CubicSpline's expressions
    and LAPACK call: it equals ``CubicSpline(nodes, y)`` bit for bit.
    """

    def __init__(self, x: np.ndarray):
        dx = np.diff(x)
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        ab = np.zeros((3, x.size))
        ab[0, 2:], ab[1, 1:-1], ab[2, :-2] = dx[:-1], 2 * (dx[:-1] + dx[1:]), dx[1:]
        ab[0, 1], ab[1, 0], ab[1, -1], ab[2, -2] = d0, dx[1], dx[-2], d1
        self.x, self.dx, self.ab, self.d0, self.d1 = x, dx, ab, d0, d1
        # the end rows' node factors, grouped as CubicSpline's expressions are
        self.k = ((dx[0] + 2 * d0) * dx[1], dx[0] ** 2,
                  dx[-1] ** 2, (2 * d1 + dx[-1]) * dx[-2])

    def spline(self, y: np.ndarray) -> PPoly:
        if not np.all(np.isfinite(y)):
            raise ValueError("`y` must contain only finite values.")
        dx, m, (k0, k1, k2, k3) = self.dx, self.x.size, self.k
        slope = np.diff(y) / dx
        b = np.empty(m)
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        b[0] = (k0 * slope[0] + k1 * slope[1]) / self.d0
        b[-1] = (k2 * slope[-2] + k3 * slope[-1]) / self.d1
        s = solve_banded((1, 1), self.ab, b.reshape(m, -1),
                         check_finite=False).reshape(m)
        t = (s[:-1] + s[1:] - 2 * slope) / dx   # CubicHermiteSpline from here
        c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))
        return PPoly.construct_fast(c, self.x)


def constant_profile(value: float):
    c = float(value)
    return AnalyticProfile(lambda r: np.full_like(r, c),
                           lambda r: np.zeros_like(r),
                           lambda r: np.zeros_like(r))
