"""Radial supersolution barrier for the capillary Jang problems.

The barrier is ``b(s) = r0 * Int_{s/r0}^inf (t^{2n-4} - 1)^{-1/2} dt`` with
closed-form derivative ``b'(s) = -((s/r0)^{2n-4} - 1)^{-1/2}``.  With
p = 2n - 4 the substitution x = t^{-p} turns the integral into an incomplete
beta function (DLMF 8.17):

    b(s) = (r0/p) B(1/2 - 1/p, 1/2) I_x(1/2 - 1/p, 1/2),   x = (s/r0)^{-p}.

b, b' and b'' are all evaluated in closed form, which makes the second-order
ODE satisfied by b a pure audit target rather than part of the construction.
On a grid they depend on the nodes, r0 and n alone, so the grid keeps them
per (r0, n) for its life (``BarrierProfile.on_grid``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import beta, betainc

from .errors import DomainError, NoAdmissibleR0
from .geometry import (RadialFrame, RadialInitialData, graph_combination,
                       graph_terms)
from .grids import RadialGrid
from .report import _float_csv
from .verdicts import nodewise

_REL_EDGE = 1e-9


@dataclass(frozen=True)
class BarrierProfile:
    """Barrier data: inner radius r0 and dimension n."""

    r0: float
    n: int

    def __post_init__(self):
        if self.r0 <= 0.0:
            raise DomainError(f"r0 must be positive, got {self.r0}")
        if self.n < 4:
            raise DomainError(f"barrier needs n >= 4, got {self.n}")

    # -- closed forms ------------------------------------------------------

    def bprime(self, s):
        """b'(s) = -((s/r0)^{2n-4} - 1)^{-1/2}, valid for s > r0."""
        rho = np.asarray(s, dtype=float) / self.r0
        return -((rho ** (2 * self.n - 4) - 1.0) ** -0.5)

    def bsecond(self, s):
        """b''(s), obtained by differentiating the closed form for b'."""
        rho = np.asarray(s, dtype=float) / self.r0
        p = 2 * self.n - 4
        return ((self.n - 2) * rho ** (p - 1) / self.r0
                * (rho ** p - 1.0) ** -1.5)

    def b(self, s):
        """b(s) via the regularized incomplete beta function.

        A scalar argument returns a float, an array argument an array.
        """
        scalar = np.ndim(s) == 0
        # a scalar goes through the same array loops, so it gets the same bits
        s = np.atleast_1d(np.asarray(s, dtype=float))
        self._check_domain(s)
        p = 2 * self.n - 4
        a = 0.5 - 1.0 / p
        val = (self.r0 / p) * beta(a, 0.5) * betainc(a, 0.5, (s / self.r0) ** -p)
        return float(val[0]) if scalar else val

    def on_grid(self, grid: RadialGrid, names, count=None):
        """The closed forms ``names`` ("b", "bprime", "bsecond") at the
        first ``count`` grid nodes in (r0 (1 + 1e-9), r_max], all of them
        when None: one read-only array per name.

        The grid keeps them per (r0, n) for its life
        (``RadialGrid.kept``).  Each name is evaluated on the nodes asked
        for, and again on more nodes when more are asked for.  The closed
        forms are nodewise, so the values are bit for bit those of an
        evaluation at the nodes asked for.
        """
        values = grid.kept(("barrier", self.r0, self.n), dict)
        nodes = grid.nodes
        start = int(np.searchsorted(nodes, self.r0 * (1.0 + _REL_EDGE),
                                    "right"))
        stop = nodes.size if count is None else start + count
        out = []
        for name in names:
            have = values.get(name)
            if have is None or have.size < stop - start:
                have = values[name] = getattr(self, name)(nodes[start:stop])
                have.flags.writeable = False
            out.append(have[:stop - start])
        return out

    def _check_domain(self, s):
        if np.any(s - self.r0 < _REL_EDGE * self.r0):
            raise DomainError(
                f"barrier needs s > r0 (s={np.min(s)}, r0={self.r0})")


def ode_residual(bp: BarrierProfile, s):
    """Pointwise residual of s b'' + (n-1)(1+b'^2) b' + (1+b'^2)^{3/2} r0^{n-2} s^{2-n}."""
    s = np.asarray(s, dtype=float)
    b1 = bp.bprime(s)
    b2 = bp.bsecond(s)
    one = 1.0 + b1 ** 2
    return (s * b2 + (bp.n - 1) * one * b1
            + one ** 1.5 * bp.r0 ** (bp.n - 2) * s ** (2.0 - bp.n))


def ode_residual_audit(bp: BarrierProfile, samples) -> float:
    """Max absolute ODE residual over the sample radii (0 for no samples)."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        return 0.0
    if np.any(samples <= bp.r0 * (1.0 + 1e-6)):
        raise DomainError("ODE audit samples must satisfy s > r0 (1 + 1e-6)")
    return float(np.max(np.abs(ode_residual(bp, samples))))


def barrier_inequality_audit(data: RadialInitialData, bp: BarrierProfile, r):
    """Both strict-inequality left-hand sides (-q and +q) at radii r > r0.

    Each is the capillary Jang operator at the radial graph of the barrier,
    Upsilon = b o r, reduced to the warped-product frame.  The audit passes
    when both profiles are strictly negative at every radius.  On a grid
    ``r``, the grid's frame and barrier values are read at the nodes in
    (r0 (1 + 1e-9), r_max].
    """
    if isinstance(r, RadialGrid):
        frame = RadialFrame.on(data, r).beyond(bp.r0 * (1.0 + _REL_EDGE))
        return _inequalities(frame, bp, r)
    frame = RadialFrame(data, r)
    if np.any(frame.r <= bp.r0):
        raise DomainError("audit radii must all satisfy r > r0")
    return _inequalities(frame, bp)


def _inequalities(frame: RadialFrame, bp: BarrierProfile, grid=None):
    """(-q, +q) left-hand sides at the frame's radii, node by node.

    With ``grid``, the frame holds the leading nodes of the grid's in
    (r0 (1 + 1e-9), r_max], and b', b'' are the grid's kept values there.
    """
    if grid is None:
        b1, b2 = bp.bprime(frame.r), bp.bsecond(frame.r)
    else:
        b1, b2 = bp.on_grid(grid, ("bprime", "bsecond"), frame.r.size)
    # -q is lambda = 1, +q is lambda = -1; both share b's graph terms
    terms = graph_terms(frame, b1, b2)
    return (graph_combination(frame, terms, 1.0),
            graph_combination(frame, terms, -1.0))


def find_r0(data: RadialInitialData, grid: RadialGrid, candidates) -> float:
    """Smallest candidate inner radius making both barrier inequalities pass.

    The audit runs on the grid nodes in (r0 (1 + 1e-9), r_max].
    """
    return _search_r0(data, grid, candidates)[0]


def _search_r0(data: RadialInitialData, grid: RadialGrid, candidates):
    """``find_r0``'s r0 with the passing audit there: (r0, minus, plus,
    verdict), as ``barrier_inequality_audit`` returns them at r0 on the
    grid, and the verdict on -max(minus, plus) > 0.

    The operator is nodewise, so a violation at a candidate's nodes in
    (r0, 2 r0], where the barrier is steepest, rejects it before the whole
    grid is evaluated; a candidate that passes there is evaluated in full.
    b' and b'' are the grid's kept values (``BarrierProfile.on_grid``), so
    a rejected candidate evaluates them on its head only.
    """
    candidates = sorted(float(c) for c in candidates)
    if not candidates:
        raise NoAdmissibleR0("empty candidate list")
    for r0 in candidates:
        if (0.0 < r0 < grid.r_max
                and np.count_nonzero(grid.nodes > r0 * (1.0 + _REL_EDGE)) >= 8):
            bp = BarrierProfile(r0, data.n)
            frame = RadialFrame.on(data, grid).beyond(r0 * (1.0 + _REL_EDGE))
            head = frame._part(slice(
                int(np.searchsorted(frame.r, 2.0 * r0, "right"))))
            if nodewise(-np.maximum(*_inequalities(head, bp, grid)), head.r,
                        strict=True).passed:
                minus, plus = _inequalities(frame, bp, grid)
                verdict = nodewise(-np.maximum(minus, plus), frame.r,
                                   strict=True)
                if verdict.passed:
                    return r0, minus, plus, verdict
    raise NoAdmissibleR0(
        "no candidate passes the barrier inequalities; decay hypotheses "
        "may fail or the grid may be too short")


def default_r0_candidates(grid: RadialGrid):
    """Powers of two below r_max / 8."""
    cands = []
    r0 = 1.0
    while r0 < grid.r_max / 8.0:
        cands.append(r0)
        r0 *= 2.0
    return cands


def barrier_csv(bp: BarrierProfile, samples) -> str:
    """CSV export 's,b,bprime,bsecond,ode_residual' for plotting."""
    s = np.asarray(samples, dtype=float)
    return _float_csv(("s", "b", "bprime", "bsecond", "ode_residual"),
                      (s, bp.b(s), bp.bprime(s), bp.bsecond(s), ode_residual(bp, s)))
