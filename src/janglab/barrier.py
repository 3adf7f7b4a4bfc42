"""Radial supersolution barrier for the capillary Jang problems.

The barrier is ``b(s) = r0 * Int_{s/r0}^inf (t^{2n-4} - 1)^{-1/2} dt`` with
closed-form derivative ``b'(s) = -((s/r0)^{2n-4} - 1)^{-1/2}``.  The integral
has an integrable endpoint singularity at t = 1 which the substitution
t = 1 + v^2 removes.  b' and b'' are evaluated in closed form, which makes the
second-order ODE satisfied by b a pure audit target rather than part of the
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, NoAdmissibleR0, QuadratureFailure
from .geometry import RadialFrame, RadialInitialData, graph_operator
from .grids import RadialGrid

_REL_EDGE = 1e-9


@dataclass(frozen=True)
class BarrierProfile:
    """Barrier data: inner radius r0, dimension n, quadrature tolerance."""

    r0: float
    n: int
    quad_tol: float = 1e-10

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

    # -- quadrature --------------------------------------------------------

    def b(self, s) -> float:
        """b(s) by adaptive quadrature after the substitution t = 1 + v^2."""
        s = float(s)
        self._check_domain(s)
        rho = s / self.r0
        p = 2 * self.n - 4

        def integrand(v):
            t = 1.0 + v * v
            return 2.0 * v / math.sqrt(t ** p - 1.0)

        v0 = math.sqrt(rho - 1.0)
        val, err = quad(integrand, v0, np.inf, epsrel=self.quad_tol,
                        epsabs=0.0, limit=400)
        if not math.isfinite(val) or (val > 0 and err > 50.0 * self.quad_tol * val):
            raise QuadratureFailure(
                f"barrier quadrature at s={s}: estimate {val}, error {err}")
        return self.r0 * val

    def _check_domain(self, s):
        if s - self.r0 < _REL_EDGE * self.r0:
            raise DomainError(f"barrier needs s > r0 (s={s}, r0={self.r0})")


def eval_barrier(bp: BarrierProfile, s: float):
    """(b, b', b'') at radius s > r0."""
    bp._check_domain(float(s))
    return bp.b(s), float(bp.bprime(s)), float(bp.bsecond(s))


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


def graph_operator_at_barrier(data: RadialInitialData, bp: BarrierProfile,
                              r: np.ndarray, q_sign: float) -> np.ndarray:
    """LHS of the barrier inequality with Upsilon = b o r and +/- q.

    This is the capillary Jang operator evaluated at the radial graph of the
    barrier, reduced to the warped-product frame.
    """
    frame = RadialFrame(data, r)
    # the operator carries (... - lambda q); +q corresponds to lambda = -1
    return graph_operator(frame, bp.bprime(frame.r), bp.bsecond(frame.r), -q_sign)


def barrier_inequality_audit(data: RadialInitialData, bp: BarrierProfile, r):
    """Both strict-inequality left-hand sides (-q and +q) at radii r > r0.

    The audit passes when both profiles are strictly negative at every radius.
    """
    frame = RadialFrame(data, r)
    if np.any(frame.r <= bp.r0):
        raise DomainError("audit radii must all satisfy r > r0")
    b1, b2 = bp.bprime(frame.r), bp.bsecond(frame.r)
    # -q is lambda = 1, +q is lambda = -1
    return graph_operator(frame, b1, b2, 1.0), graph_operator(frame, b1, b2, -1.0)


def barrier_audit_passes(data, bp, r) -> bool:
    minus, plus = barrier_inequality_audit(data, bp, r)
    return bool(np.all(minus < 0.0) and np.all(plus < 0.0))


def find_r0(data: RadialInitialData, grid: RadialGrid, candidates) -> float:
    """Smallest candidate inner radius making both barrier inequalities pass.

    The audit runs on the grid nodes in (r0 (1 + 1e-9), r_max].
    """
    candidates = sorted(float(c) for c in candidates)
    if not candidates:
        raise NoAdmissibleR0("empty candidate list")
    r = grid.nodes
    for r0 in candidates:
        if r0 <= 0.0 or r0 >= grid.r_max:
            continue
        bp = BarrierProfile(r0=r0, n=data.n)
        sel = r > r0 * (1.0 + _REL_EDGE)
        if np.count_nonzero(sel) < 8:
            continue
        if barrier_audit_passes(data, bp, r[sel]):
            return r0
    raise NoAdmissibleR0(
        "no candidate passes the barrier inequalities; decay hypotheses "
        "may fail or the grid may be too short")


def default_r0_candidates(grid: RadialGrid, scale: float = 1.0):
    """Powers of two times a characteristic radius, inside the grid."""
    cands = []
    r0 = scale
    while r0 < grid.r_max / 8.0:
        cands.append(r0)
        r0 *= 2.0
    return cands


def barrier_csv(bp: BarrierProfile, samples) -> str:
    """CSV export 's,b,bprime,bsecond,ode_residual' for plotting."""
    lines = ["s,b,bprime,bsecond,ode_residual"]
    for s in np.asarray(samples, dtype=float):
        b, b1, b2 = eval_barrier(bp, float(s))
        res = float(ode_residual(bp, np.array([s]))[0])
        lines.append(",".join(repr(float(v)) for v in (s, b, b1, b2, res)))
    return "\n".join(lines) + "\n"
