"""Capillary parameter selection: cutoff zeta, kappa_0, kappa_1, Q, s0, s1, tau.

The cutoff is 1 inside r <= 4 r0 and 0 outside r >= 8 r0 (quintic smoothstep
in between).  kappa_0, kappa_1 absorb a quarter of the strict-DEC margin each,
Q takes 45% of what is left and is capped by a (1+r)^{-n-2 delta} tail, and
s1, tau are solved from the collar and smallness constraints in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigFailure, DecViolation, GridTooShort
from .geometry import (RadialFrame, RadialInitialData, constraint_fields,
                       evaluate_constraint_fields)
from .grids import RadialGrid
from .verdicts import nodewise


def smoothstep(x):
    """Quintic smoothstep: 0 for x<=0, 1 for x>=1, C^2 at both ends."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return x ** 3 * (6.0 * x ** 2 - 15.0 * x + 10.0)


def smoothstep_d1(x):
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 1.0)
    xx = np.clip(x, 0.0, 1.0)
    return np.where(inside, 30.0 * xx ** 2 * (xx - 1.0) ** 2, 0.0)


@dataclass
class CapillaryConfig:
    """Fixed parameters of the capillary term and the shielding collar.

    ``Q`` holds the density's values at the nodes of the grid it was
    selected on.
    """

    r0: float
    kappa0: float
    kappa1: float
    Q: np.ndarray
    s0: float
    s1: float
    tau: float
    n: int
    delta: float

    @property
    def E0_threshold(self) -> float:
        """Inner radius of the exterior region E0 = {r > 8 r0}."""
        return 8.0 * self.r0

    @property
    def smallness_budget(self) -> float:
        """Right side of the tau constraint: min(kappa0/tau, kappa1/tau^2)/2."""
        return 0.5 * min(self.kappa0 / self.tau, self.kappa1 / self.tau ** 2)

    @property
    def collar_width_total(self) -> float:
        return self.s1 + 2.0 * self.s0

    def _collar(self, r):
        """r as an array, 4 r0, and the flat indices of r in the collar.

        The collar is 4 r0 < r < 8 r0.  Elsewhere ``np.clip`` makes the
        quintic exactly 0 or 1, so only the collar needs it.
        """
        r = np.asarray(r, dtype=float)
        lo = 4.0 * self.r0
        return r, lo, np.flatnonzero(~((r <= lo) | (r >= 2.0 * lo)))

    def zeta(self, r):
        """Cutoff: 1 on r <= 4 r0, 0 on r >= 8 r0, quintic in between."""
        r, lo, collar = self._collar(r)
        out = np.where(r >= 2.0 * lo, 0.0, 1.0)
        out.flat[collar] = 1.0 - smoothstep((r.flat[collar] - lo) / lo)
        return out

    def zeta_d1(self, r):
        r, lo, collar = self._collar(r)
        d1 = np.zeros(r.shape)
        d1.flat[collar] = smoothstep_d1((r.flat[collar] - lo) / lo)
        return -d1 / lo

    def cutoff(self, grid: RadialGrid):
        """(zeta, zeta') at the grid's nodes, read-only.

        They depend on r0 and on the functions ``zeta`` and ``zeta_d1``
        alone, so the grid keeps them per such key: configs of one r0
        share them, and one whose ``zeta`` or ``zeta_d1`` is replaced on
        the instance evaluates its own.  A truncation at a node and an
        even coarsening read slices of their base grid's.
        """
        def make():
            whole = grid._part_of()
            if whole is not None:
                return tuple(v[whole[1]] for v in self.cutoff(whole[0]))
            zeta, zeta_d1 = self.zeta(grid.nodes), self.zeta_d1(grid.nodes)
            zeta.flags.writeable = zeta_d1.flags.writeable = False
            return zeta, zeta_d1
        key = ("cutoff", self.r0, *(getattr(fn, "__func__", fn)
                                    for fn in (self.zeta, self.zeta_d1)))
        return grid.kept(key, make)

    def dzeta_norm_sq(self, data: RadialInitialData, grid: RadialGrid):
        """|d zeta|_g^2 = zeta'^2 / a at the grid's nodes."""
        return self.cutoff(grid)[1] ** 2 / RadialFrame.on(data, grid).a


def _collar_mask(data, grid, r_in, width):
    """Nodes outside {r > r_in} within g-distance `width` of it.

    The distance is measured by the frame's ``length``: evaluated once per
    dataset, and read by the selector and the checker alike, each with its
    own r_in and width.
    """
    r = grid.nodes
    length = RadialFrame.on(data, grid).length
    return (r <= r_in) & (np.interp(r_in, r, length) - length <= width)


def select_capillary_config(data: RadialInitialData, r0: float,
                            grid: RadialGrid) -> CapillaryConfig:
    """Construct a capillary configuration for a strict-DEC dataset.

    Raises GridTooShort when the grid ends before 64 r0 or has no node in
    (4 r0, 8 r0), DecViolation when min(margin) <= 0 and ConfigFailure when
    the constructed parameters fail the independent invariant check.
    """
    if grid.r_max < 64.0 * r0:
        raise GridTooShort(
            f"capillary selection at r0 = {r0:g} needs a grid reaching "
            f"r_max >= 64 r0 = {64.0 * r0:g}; it ends at r_max = "
            f"{grid.r_max:g}")
    fields = constraint_fields(data, grid)
    margin = fields.margin
    n = data.n
    r = grid.nodes
    dec = nodewise(margin, r, strict=True, show={"margin": margin})
    if not dec.passed:
        raise DecViolation("strict DEC fails: margin {margin:.3e} at "
                           "r = {node_radius!r}".format(**dec.first_violation))
    cfg = CapillaryConfig(r0=r0, kappa0=1.0, kappa1=1.0, Q=None,
                          s0=r0 / 4.0, s1=0.0, tau=1.0, n=n, delta=data.delta)

    frame = RadialFrame.on(data, grid)
    dz2 = cfg.dzeta_norm_sq(data, grid)
    zeta = cfg.cutoff(grid)[0]
    supp = dz2 > 0.0
    if not np.any(supp):
        h = np.diff(r)[np.searchsorted(r, 4.0 * r0, "right") - 1]
        raise GridTooShort(f"capillary selection at r0 = {r0:g} has no node "
                           f"in the collar (4 r0, 8 r0), node spacing {h:g}")
    cfg.kappa0 = float(np.sqrt(np.min(margin[supp] / (4.0 * dz2[supp]))))

    qn = frame.q_norm
    act = (zeta > 0.0) & (qn > 0.0)
    if np.any(act):
        cfg.kappa1 = float(np.min(margin[act] / (4.0 * zeta[act] ** 2 * n * qn[act])))
    else:
        cfg.kappa1 = 1.0

    # Q: 45% of the margin, capped by the declared decay tail, then smoothed
    tail = (1.0 + r) ** (-n - 2.0 * data.delta)
    m_q = float(np.max(margin / tail))
    q_raw = 0.45 * np.minimum(margin, m_q * tail)
    q_vals = q_raw.copy()
    q_vals[1:-1] = 0.25 * q_raw[:-2] + 0.5 * q_raw[1:-1] + 0.25 * q_raw[2:]
    # smoothing must not eat into the Eq.(2.2) slack
    q_vals = np.minimum(q_vals, 0.45 * margin)
    cfg.Q = q_vals

    collar = _collar_mask(data, grid, 8.0 * r0, 2.0 * cfg.s0)
    q_collar_min = float(np.min(q_vals[collar])) if np.any(collar) else float(np.min(q_vals))
    cfg.s1 = max(cfg.s0, 256.0 / (cfg.s0 * q_collar_min))

    L = 2.0 ** (10 - 3 * n) * r0 + cfg.s1 + 2.0 * cfg.s0
    cfg.tau = min(cfg.kappa0 / (2.0 * L), float(np.sqrt(cfg.kappa1 / (2.0 * L))))

    problems = check_capillary_config(cfg, data, grid)
    if problems:
        raise ConfigFailure("; ".join(problems))
    return cfg


def check_capillary_config(cfg: CapillaryConfig, data: RadialInitialData,
                           grid: RadialGrid) -> list[str]:
    """Independent invariant audit of a capillary configuration.

    Re-evaluates every defining inequality directly from the stored fields;
    shares no construction logic with select_capillary_config.  It reads
    the evaluated inputs kept per grid (the frame coefficients, among them
    the scalar curvature and the g-length ``length`` that measures the
    collar, and the cutoff), and evaluates its own margin.
    Returns a list of violation descriptions (empty = pass), each nodewise
    one naming the first radius where it fails.
    """
    problems = []
    r = grid.nodes
    n = cfg.n

    def check(what, margin, radii, **rule):
        fails = nodewise(margin, radii, **rule).first_violation
        if fails is not None:
            problems.append(f"{what} (first at r = {fails['node_radius']!r})")

    zeta = cfg.cutoff(grid)[0]
    check("zeta leaves [0, 1]", np.minimum(zeta, 1.0 - zeta), r)
    if np.any(zeta[r > 8.0 * cfg.r0] != 0.0):
        problems.append("zeta must vanish on r > 8 r0")
    if np.any(zeta[r <= 4.0 * cfg.r0] != 1.0):
        problems.append("zeta must be 1 on r <= 4 r0")

    q_vals = cfg.Q
    if np.shape(q_vals) != r.shape:
        problems.append("Q must have one value per grid node")
        return problems
    frame = RadialFrame.on(data, grid)
    margin = evaluate_constraint_fields(frame).margin
    check("Q must be strictly positive", q_vals, r, strict=True)
    lhs = (margin - cfg.kappa0 ** 2 * cfg.dzeta_norm_sq(data, grid)
           - cfg.kappa1 * zeta ** 2 * n * frame.q_norm)
    check("margin - kappa terms >= Q fails", lhs - q_vals, r)

    # Q <= C (1+r)^{-n-2 delta}: the ratio to the tail must stay bounded on
    # the outer third (no growth beyond its inner-edge value)
    outer = grid.outer_third_mask()
    ratio = q_vals[outer] * (1.0 + r[outer]) ** (n + 2.0 * cfg.delta)
    check("Q does not respect the (1+r)^{-n-2 delta} tail bound",
          2.0 * ratio[0] + 1e-300 - ratio, r[outer])

    if cfg.s1 < cfg.s0:
        problems.append("s1 < s0")
    collar = _collar_mask(data, grid, 8.0 * cfg.r0, 2.0 * cfg.s0)
    check("collar condition Q > 128/(s1 s0) fails",
          q_vals[collar] - 128.0 / (cfg.s1 * cfg.s0), r[collar], strict=True)

    L = 2.0 ** (10 - 3 * n) * cfg.r0 + cfg.s1 + 2.0 * cfg.s0
    if L > cfg.smallness_budget * (1.0 + 1e-12):
        problems.append("tau smallness constraint fails")
    return problems
