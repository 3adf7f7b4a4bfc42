"""Capillary parameter selection: cutoff zeta, kappa_0, kappa_1, Q, s0, s1, tau.

The cutoff is 1 inside r <= 4 r0 and 0 outside r >= 8 r0 (quintic smoothstep
in between).  kappa_0, kappa_1 absorb a quarter of the strict-DEC margin each,
Q takes 45% of what is left and is capped by a (1+r)^{-n-2 delta} tail, and
s1, tau are solved from the collar and smallness constraints in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigFailure, DecViolation, InvalidArgument
from .geometry import (RadialFrame, RadialInitialData, constraint_fields,
                       radius_at_distance)
from .grids import RadialGrid
from .profiles import SampledProfile


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
    """Fixed parameters of the capillary term and the shielding collar."""

    r0: float
    kappa0: float
    kappa1: float
    Q: SampledProfile
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

    def zeta(self, r):
        """Cutoff: 1 on r <= 4 r0, 0 on r >= 8 r0, quintic in between."""
        return 1.0 - smoothstep((np.asarray(r, dtype=float) - 4.0 * self.r0)
                                / (4.0 * self.r0))

    def zeta_d1(self, r):
        return -smoothstep_d1((np.asarray(r, dtype=float) - 4.0 * self.r0)
                              / (4.0 * self.r0)) / (4.0 * self.r0)

    def dzeta_norm_sq(self, frame: RadialFrame):
        """|d zeta|_g^2 = zeta'^2 / a at the frame's radii."""
        return self.zeta_d1(frame.r) ** 2 / frame.a


def _collar_mask(data, grid, r_in, width):
    """Nodes outside {r > r_in} within g-distance `width` of it."""
    r = grid.nodes
    r_edge = radius_at_distance(data, r_in, width)
    return (r <= r_in) & (r >= r_edge)


def select_capillary_config(data: RadialInitialData, r0: float,
                            grid: RadialGrid) -> CapillaryConfig:
    """Construct a capillary configuration for a strict-DEC dataset.

    Raises DecViolation when min(margin) <= 0 and ConfigFailure when the
    constructed parameters fail the independent invariant check.
    """
    if grid.r_max < 64.0 * r0:
        raise InvalidArgument("grid must cover [0, 64 r0] for capillary selection")
    fields = constraint_fields(data, grid)
    margin = fields.margin
    if not np.all(np.isfinite(margin)) or np.min(margin) <= 0.0:
        raise DecViolation(
            f"strict DEC fails: min margin = {np.nanmin(margin):.3e}")
    n = data.n
    r = grid.nodes
    cfg = CapillaryConfig(r0=r0, kappa0=1.0, kappa1=1.0, Q=None,
                          s0=r0 / 4.0, s1=0.0, tau=1.0, n=n, delta=data.delta)

    frame = RadialFrame.on(data, grid)
    dz2 = cfg.dzeta_norm_sq(frame)
    zeta = cfg.zeta(r)
    supp = dz2 > 0.0
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
    cfg.Q = SampledProfile(grid, q_vals, label="Q")

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
    shares no construction logic with select_capillary_config.  Returns a
    list of violation descriptions (empty = pass).
    """
    problems = []
    r = grid.nodes
    n = cfg.n
    zeta = cfg.zeta(r)
    if np.any((zeta < 0.0) | (zeta > 1.0)):
        problems.append("zeta leaves [0, 1]")
    if np.any(zeta[r > 8.0 * cfg.r0] != 0.0):
        problems.append("zeta must vanish on r > 8 r0")
    if np.any(zeta[r <= 4.0 * cfg.r0] != 1.0):
        problems.append("zeta must be 1 on r <= 4 r0")

    margin = constraint_fields(data, grid).margin
    q_vals = cfg.Q(r)
    if np.any(q_vals <= 0.0):
        problems.append("Q must be strictly positive")
    frame = RadialFrame.on(data, grid)
    lhs = (margin - cfg.kappa0 ** 2 * cfg.dzeta_norm_sq(frame)
           - cfg.kappa1 * zeta ** 2 * n * frame.q_norm)
    if np.any(lhs < q_vals):
        problems.append("margin - kappa terms >= Q fails at some node")

    # Q <= C (1+r)^{-n-2 delta}: the ratio to the tail must stay bounded on
    # the outer third (no growth beyond its inner-edge value)
    outer = grid.outer_third_mask()
    ratio = q_vals[outer] * (1.0 + r[outer]) ** (n + 2.0 * cfg.delta)
    if np.max(ratio) > 2.0 * ratio[0] + 1e-300:
        problems.append("Q does not respect the (1+r)^{-n-2 delta} tail bound")

    if cfg.s1 < cfg.s0:
        problems.append("s1 < s0")
    collar = _collar_mask(data, grid, 8.0 * cfg.r0, 2.0 * cfg.s0)
    if np.any(collar) and not np.all(q_vals[collar] > 128.0 / (cfg.s1 * cfg.s0)):
        problems.append("collar condition Q > 128/(s1 s0) fails")

    L = 2.0 ** (10 - 3 * n) * cfg.r0 + cfg.s1 + 2.0 * cfg.s0
    if L > cfg.smallness_budget * (1.0 + 1e-12):
        problems.append("tau smallness constraint fails")
    return problems
