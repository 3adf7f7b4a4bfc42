"""Radial initial data sets and constraint quantities.

The metric is the warped product ``g = a(r) dr^2 + c(r) r^2 sigma`` with
``sigma`` the round unit (n-1)-sphere, and the symmetric 2-tensor q is stored
through its orthonormal-frame eigenvalues (q_rad, q_tan).  Everything reduces
to closed-form radial expressions:

* ``|q|^2 = q_rad^2 + (n-1) q_tan^2``,  ``tr q = q_rad + (n-1) q_tan``
* scalar curvature from the warping radius f(r) = r sqrt(c(r))
* momentum density J has a single radial frame component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GenerationFailure, InvalidArgument, NumericalDegeneracy
from .grids import RadialGrid, build_grid
from .profiles import AnalyticProfile, SampledProfile, constant_profile
from .report import _float_csv

@dataclass
class RadialInitialData:
    """Rotationally symmetric initial data set (M, g, q)."""

    n: int
    a: object
    c: object
    q_rad: object
    q_tan: object
    alpha_decl: float | None = None       # None means "unknown"
    delta: float = 0.5
    family: str = "sampled"
    params: dict = field(default_factory=dict)
    seed: int | None = None
    origin_regular: bool = True

    def __post_init__(self):
        if self.n < 4:
            raise InvalidArgument(f"dimension must satisfy n >= 4, got {self.n}")
        if self.delta <= 0.0:
            raise InvalidArgument("decay exponent delta must be positive")

    # -- serialization -----------------------------------------------------

    def spec_dict(self, grid: RadialGrid) -> dict:
        return {
            "family": self.family,
            "n": int(self.n),
            "params": dict(self.params),
            "grid": {"r_max": grid.r_max, "N": grid.n_intervals,
                     "policy": grid.policy, "stretch": grid.stretch},
            "seed": -1 if self.seed is None else int(self.seed),
        }

    def profiles_csv(self, grid: RadialGrid) -> str:
        r = grid.nodes
        return _float_csv(("r", "a", "c", "q_rad", "q_tan"),
                          (r, self.a(r), self.c(r), self.q_rad(r), self.q_tan(r)))


@dataclass(frozen=True)
class ConstraintFields:
    """Energy/momentum constraint quantities on a grid."""

    R_g: np.ndarray
    mu: np.ndarray
    J_rad: np.ndarray
    margin: np.ndarray


# ---------------------------------------------------------------------------
# dataset families
# ---------------------------------------------------------------------------

def _conformal_power(m, n, regularized):
    """Profile (1 + (m/2) rho^{2-n})^{4/(n-2)} with rho = r or sqrt(1+r^2)."""
    p = 4.0 / (n - 2)
    k = -(n - 2) / 2.0    # phi = 1 + (m/2) w^k, w = r^2 or 1+r^2

    def parts(r):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w = 1.0 + r ** 2 if regularized else r ** 2
            wk = w ** k
            phi = 1.0 + 0.5 * m * wk
            dphi = 0.5 * m * k * wk / w * 2.0 * r
            d2phi = 0.5 * m * (2.0 * k * wk / w
                               + 4.0 * k * (k - 1.0) * r ** 2 * wk / w ** 2)
        return phi, dphi, d2phi

    def jet(r, order):
        phi, dphi, d2phi = parts(r)
        out = [phi ** p]
        if order >= 1:
            dpow = p * phi ** (p - 1.0)
            out.append(dpow * dphi)
        if order >= 2:
            out.append(p * (p - 1.0) * phi ** (p - 2.0) * dphi ** 2
                       + dpow * d2phi)
        return tuple(out)

    return AnalyticProfile(jet)


def _tail_sum_profile(terms):
    """1 + sum_i amp_i (1+r^2)^{e_i/2} with closed-form derivatives."""

    def jet(r, order):
        w = 1.0 + r ** 2
        out = np.ones_like(w)
        for amp, e in terms:
            out = out + amp * w ** (0.5 * e)
        if order < 1:
            return (out,)
        d1 = np.zeros_like(w)
        for amp, e in terms:
            d1 = d1 + amp * e * r * w ** (0.5 * e - 1.0)
        if order < 2:
            return out, d1
        d2 = np.zeros_like(w)
        for amp, e in terms:
            d2 = d2 + amp * e * (w ** (0.5 * e - 1.0)
                                 + (e - 2.0) * r ** 2 * w ** (0.5 * e - 2.0))
        return out, d1, d2

    return AnalyticProfile(jet)


def _even_gaussian(amp0, amp2, width):
    """(amp0 + amp2 u) e^{-u} with u = (r/width)^2; even, rapidly decaying."""

    def jet(r, order):
        u = (r / width) ** 2
        e = np.exp(-u)
        out = [(amp0 + amp2 * u) * e]
        if order >= 1:
            fu = (amp2 - amp0 - amp2 * u) * e
            out.append(fu * 2.0 * r / width ** 2)
        if order >= 2:
            fuu = (amp0 - 2.0 * amp2 + amp2 * u) * e
            out.append(fuu * (2.0 * r / width ** 2) ** 2
                       + fu * 2.0 / width ** 2)
        return tuple(out)

    return AnalyticProfile(jet)


def make_dataset(family: str, n: int, params: dict | None = None,
                 grid: RadialGrid | None = None,
                 seed: int | None = None) -> RadialInitialData:
    """Generate a radial initial data set from a named family.

    Families: flat, schwarzschild(m), conformal(alpha, delta, beta),
    perturbed-dec(m, amplitude).  perturbed-dec q is halved, at most 40 times,
    until the strict DEC margin is positive (else GenerationFailure).
    """
    params = dict(params or {})
    one = constant_profile(1.0)
    zero = constant_profile(0.0)

    if family == "flat":
        return RadialInitialData(n=n, a=one, c=one, q_rad=zero, q_tan=zero,
                                 alpha_decl=0.0, family="flat", params=params,
                                 seed=seed)

    if family == "schwarzschild":
        m = params.get("m", 1.0)
        if m < 0:
            raise InvalidArgument(f"schwarzschild mass must be nonnegative, got {m}")
        prof = _conformal_power(m, n, regularized=False)
        return RadialInitialData(n=n, a=prof, c=prof, q_rad=zero, q_tan=zero,
                                 alpha_decl=2.0 * m / (n - 2), family="schwarzschild",
                                 params={"m": m}, seed=seed, origin_regular=False)

    if family == "conformal":
        alpha = params.get("alpha", 0.3)
        delta = params.get("delta", 0.5)
        beta = params.get("beta", 0.0)
        terms = [(alpha, 2 - n)]
        if beta != 0.0:
            terms.append((beta, 2 - n - 2 * delta))
        prof = _tail_sum_profile(terms)
        return RadialInitialData(n=n, a=prof, c=prof, q_rad=zero, q_tan=zero,
                                 alpha_decl=alpha, delta=delta, family="conformal",
                                 params={"alpha": alpha, "delta": delta, "beta": beta},
                                 seed=seed)

    if family == "perturbed-dec":
        if grid is None:
            raise InvalidArgument("perturbed-dec generation needs a grid for the DEC check")
        m = params.get("m", 1.0)
        if m < 0:
            raise InvalidArgument(f"mass parameter must be nonnegative, got {m}")
        amplitude = params.get("amplitude", 0.05)
        rng = np.random.default_rng(0 if seed is None else seed)
        base = _conformal_power(m, n, regularized=True)
        width = float(rng.uniform(1.5, 3.5))
        a0 = float(rng.uniform(-1.0, 1.0))
        a2r = float(rng.uniform(-1.0, 1.0))
        a2t = float(rng.uniform(-1.0, 1.0))

        def dataset(eps):
            return RadialInitialData(
                n=n, a=base, c=base,
                q_rad=_even_gaussian(eps * a0, eps * a2r, width),
                q_tan=_even_gaussian(eps * a0, eps * a2t, width),
                alpha_decl=2.0 * m / (n - 2), family="perturbed-dec",
                params={"m": m, "amplitude": amplitude}, seed=seed)

        # Trial k's q_rad, q_tan and q_tan' are exactly 2^-k times those at
        # eps = amplitude; where all three vanish the margin is R/2 for any k.
        full = RadialFrame.on(dataset(amplitude), grid)
        idle = (full.q_rad == 0.0) & (full.q_tan == 0.0) & (full.dq_tan == 0.0)
        for k in range(40):
            margin = evaluate_constraint_fields(full._rescaled_q(0.5 ** k)).margin
            if np.min(margin) > 0.0:
                return full.data if k == 0 else dataset(amplitude * 0.5 ** k)
            stuck = np.flatnonzero(idle & (margin <= 0.0))
            if stuck.size:
                break
        i = stuck[0] if stuck.size else int(np.argmin(margin))
        why = ", where q vanishes" if stuck.size else " after 40 rescales of q"
        raise GenerationFailure(
            f"DEC margin {margin[i]:.3g} at r = {grid.nodes[i]:.2f}{why}")

    raise InvalidArgument(f"unknown family {family!r}")


def dataset_from_samples(grid: RadialGrid, a, c, q_rad, q_tan, n: int,
                         alpha_decl=None, delta=0.5) -> RadialInitialData:
    """Wrap sampled nodal profiles as a dataset (cubic-spline interpolation)."""
    return RadialInitialData(
        n=n,
        a=SampledProfile(grid, a),
        c=SampledProfile(grid, c),
        q_rad=SampledProfile(grid, q_rad),
        q_tan=SampledProfile(grid, q_tan),
        alpha_decl=alpha_decl, delta=delta, family="sampled")


def dataset_from_json(spec: dict) -> tuple[RadialInitialData, RadialGrid]:
    """Rebuild (dataset, grid) from the dataset JSON schema."""
    for key in ("family", "n", "grid"):
        if key not in spec:
            raise InvalidArgument(f"dataset spec missing {key!r}")
    g = spec["grid"]
    grid = build_grid(float(g["r_max"]), int(g["N"]), g.get("policy", "uniform"),
                      g.get("stretch"))
    seed = spec.get("seed", -1)
    data = make_dataset(spec["family"], int(spec["n"]), spec.get("params", {}),
                        grid=grid, seed=None if seed in (-1, None) else int(seed))
    return data, grid


# ---------------------------------------------------------------------------
# curvature and constraints
# ---------------------------------------------------------------------------

def _profiles(data: RadialInitialData) -> dict:
    return {"a": data.a, "c": data.c, "q_rad": data.q_rad, "q_tan": data.q_tan}


def _coefficient(fn):
    """A frame coefficient: evaluated on first use, kept, and read-only; a
    frame cut by ``beyond`` or ``_part`` reads a slice of its whole frame's."""
    def get(self):
        if self._whole is not None:
            return getattr(self._whole[0], prop.attrname)[self._whole[1]]
        return _read_only(fn(self))
    get.__doc__ = fn.__doc__
    prop = cached_property(get)
    return prop


def _read_only(values) -> np.ndarray:
    """``values`` as an array that cannot be written through; a read-only
    one (another coefficient) as it is."""
    out = np.asarray(values)
    if out.flags.writeable:
        out = out.view()
        out.flags.writeable = False
    return out


# the coefficients of a, c, n and origin_regular
_METRIC = ("a", "da", "half_dlog_a", "c", "dc", "d2c", "_sc", "f", "f1",
           "f2", "warp", "warp_a", "origin_d2", "R")
# the coefficients that one jet of each profile gives, in order
_JETS = {"a": ("a", "da"), "c": ("c", "dc", "d2c"),
         "q_rad": ("q_rad", "dq_rad"), "q_tan": ("q_tan", "dq_tan")}


def _jet_coefficient(profile: str, name: str):
    """A frame coefficient that the jet of ``profile`` gives."""
    return _coefficient(lambda self: self._jet(profile)[name])


@dataclass(frozen=True, eq=False)
class RadialFrame:
    """Warped-product frame coefficients of a dataset at fixed radii.

    Each profile is read through one ``profile.jet(r, order)``, which
    gives its value and derivatives together: a, a' (and c'' when c is
    a), c, c', c'', q_rad, q_rad', q_tan, q_tan'.  A profile without a
    jet (a ``SampledProfile``, or any object with the three calls) is read
    through ``profile(r)``, ``.deriv1(r)`` and ``.deriv2(r)``.  Every
    coefficient is evaluated on first use, kept and read-only, so one frame
    can serve many operator evaluations on the same radii.  The profiles
    are taken from the dataset when the frame is built; when c is a, the
    arrays c and c' are a and a'.  ``f = r sqrt(c)`` is the warping radius and
    ``warp = f'/f = c'/(2c) + 1/r`` (infinite at r = 0, where every caller
    substitutes its own origin closure); ``R`` is the scalar curvature.
    """

    data: RadialInitialData
    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        object.__setattr__(self, "_profiles", _profiles(self.data))
        object.__setattr__(self, "_whole", None)
        object.__setattr__(self, "_c_is_a", self.data.c is self.data.a)
        # (r_start, dist) -> radius_at_distance(data, r_start, dist)
        object.__setattr__(self, "_edges", {})

    @classmethod
    def on(cls, data: RadialInitialData, grid: RadialGrid) -> "RadialFrame":
        """The frame of ``data`` at the nodes of ``grid``, kept on the grid.

        The grid holds the frame of the last dataset evaluated on it.  It is
        reused while ``data`` and its a, c, q_rad, q_tan are the same
        objects, and replaced otherwise, keeping the metric coefficients
        evaluated so far (the curvature among them) when a, c, n and
        ``origin_regular`` are unchanged.  On a grid whose nodes lead
        another grid's (``RadialGrid.truncate`` at a node), or are every
        other node of another grid (``RadialGrid.coarsen`` of an even N),
        the frame reads slices of that grid's frame.
        """
        old = grid._frame
        if old is not None and old._reads(data):
            return old
        whole = grid._part_of()
        if whole is not None:
            frame = cls.on(data, whole[0])._part(whole[1])
        else:
            frame = cls(data, grid.nodes)
            if (old is not None and old.n == data.n
                    and old.data.origin_regular == data.origin_regular
                    and old._profiles["a"] is data.a
                    and old._profiles["c"] is data.c):
                vars(frame).update((k, vars(old)[k]) for k in _METRIC
                                   if k in vars(old))
        grid._keep_frame(frame)
        return frame

    def _reads(self, data: RadialInitialData) -> bool:
        mine = self._profiles
        return self.data is data and all(
            mine[name] is prof for name, prof in _profiles(data).items())

    def beyond(self, r_min: float) -> "RadialFrame":
        """This frame at its radii above ``r_min``, as read-only slices."""
        return self._part(slice(int(np.searchsorted(self.r, r_min, "right")),
                                None))

    def _part(self, part: slice) -> "RadialFrame":
        """This frame at the radii ``r[part]``, as read-only slices."""
        frame = RadialFrame(self.data, self.r[part])
        object.__setattr__(frame, "_whole", (self, part))
        return frame

    def _rescaled_q(self, scale: float) -> "RadialFrame":
        """This frame's metric, with q_rad, q_tan and their slopes times
        ``scale``; its ``data`` still names the unscaled q profiles."""
        frame = RadialFrame(self.data, self.r)
        vars(frame).update((name, getattr(self, name)) for name in _METRIC)
        for name in ("q_rad", "q_tan", "dq_rad", "dq_tan"):
            vars(frame)[name] = values = getattr(self, name) * scale
            values.flags.writeable = False
        return frame

    @property
    def n(self) -> int:
        return self.data.n

    def radius_at_distance(self, r_start: float, dist: float) -> float:
        """``radius_at_distance(data, r_start, dist)``, an evaluated input
        of the metric: kept with the frame per (r_start, dist).  A cut
        frame asks its whole frame.
        """
        if self._whole is not None:
            return self._whole[0].radius_at_distance(r_start, dist)
        edges = self._edges
        if (r_start, dist) not in edges:
            edges[r_start, dist] = radius_at_distance(self.data, r_start, dist)
        return edges[r_start, dist]

    def _jet(self, profile: str) -> dict:
        """Evaluate one jet of ``profile`` at r and keep each of its arrays
        as the coefficient it is (when c is a, a's jet also gives c'')."""
        names = _JETS[profile]
        if profile == "a" and self._c_is_a:
            names += ("d2c",)
        prof, order = self._profiles[profile], len(names) - 1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if hasattr(prof, "jet"):
                values = prof.jet(self.r, order)
            else:
                values = [fn(self.r) for fn in (prof, prof.deriv1,
                                                prof.deriv2)[:order + 1]]
        kept = vars(self)
        for name, value in zip(names, values):
            if name not in kept:
                kept[name] = _read_only(value)
        return kept

    a = _jet_coefficient("a", "a")
    da = _jet_coefficient("a", "da")
    c = _coefficient(lambda self: self.a if self._c_is_a
                     else self._jet("c")["c"])
    dc = _coefficient(lambda self: self.da if self._c_is_a
                      else self._jet("c")["dc"])
    d2c = _coefficient(lambda self: self._jet(
        "a" if self._c_is_a else "c")["d2c"])
    q_rad = _jet_coefficient("q_rad", "q_rad")
    q_tan = _jet_coefficient("q_tan", "q_tan")
    dq_rad = _jet_coefficient("q_rad", "dq_rad")
    dq_tan = _jet_coefficient("q_tan", "dq_tan")

    @_coefficient
    def _sc(self):
        with np.errstate(invalid="ignore"):
            return np.sqrt(self.c)

    @_coefficient
    def f(self):
        with np.errstate(invalid="ignore"):
            return self.r * self._sc

    @_coefficient
    def f1(self):
        r, dc, sc = self.r, self.dc, self._sc
        with np.errstate(divide="ignore", invalid="ignore"):
            return sc + r * dc / (2.0 * sc)

    @_coefficient
    def f2(self):
        r, c, dc, sc = self.r, self.c, self.dc, self._sc
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return dc / sc + r * self.d2c / (2.0 * sc) - r * dc ** 2 / (4.0 * c * sc)

    @_coefficient
    def half_dlog_a(self):
        """a'/(2a), the Christoffel symbol of the radial direction."""
        return self.da / (2.0 * self.a)

    @_coefficient
    def warp(self):
        r, c, dc = self.r, self.c, self.dc
        with np.errstate(divide="ignore", invalid="ignore"):
            return dc / (2.0 * c) + 1.0 / r

    @_coefficient
    def warp_a(self):
        """B'/(2aB) with B = c r^2, the tangential graph-Hessian weight; 0 at r = 0."""
        with np.errstate(invalid="ignore"):
            out = self.warp / self.a
        out[self.r == 0.0] = 0.0
        return out

    @_coefficient
    def R(self):
        """Scalar curvature of g (NaN at r = 0 for origin-singular data);
        raises NumericalDegeneracy where a or c is tiny or non-finite."""
        self.check_metric()
        return warped_scalar_curvature(self, self.a, self.da,
                                       self.origin_d2[0])

    @_coefficient
    def q_norm(self):
        """|q|_g = sqrt(q_rad^2 + (n-1) q_tan^2)."""
        return np.sqrt(self.q_rad ** 2 + (self.n - 1) * self.q_tan ** 2)

    @cached_property
    def constraints(self) -> ConstraintFields:
        """mu, J_rad and the strict-DEC margin: evaluated once, read-only.

        A frame cut by ``_part`` from the origin on (a truncated or coarsened
        grid's) reads slices of its whole frame's: only the origin rows are
        not nodewise."""
        if self._whole is not None and self._whole[1].start is None:
            whole, part = self._whole
            return ConstraintFields(**{name: values[part] for name, values
                                       in vars(whole.constraints).items()})
        fields = evaluate_constraint_fields(self)
        for values in vars(fields).values():
            values.flags.writeable = False
        return fields

    @cached_property
    def origin_d2(self):
        """(a''(0), c''(0)) at a smooth center; NaN for origin-singular data."""
        if not self.data.origin_regular:
            return math.nan, math.nan
        return (self._profiles["a"].deriv2_origin(),
                self._profiles["c"].deriv2_origin())

    def check_metric(self):
        """Raise NumericalDegeneracy where a or c is tiny or non-finite."""
        lo = 1 if not self.data.origin_regular else 0
        a, c = self.a[lo:], self.c[lo:]
        if np.any(~np.isfinite(a) | ~np.isfinite(c) | (a < 1e-10) | (c < 1e-10)):
            raise NumericalDegeneracy("metric coefficients below 1e-10 or non-finite")


@dataclass(frozen=True, eq=False)
class GraphTerms:
    """The lambda-free pieces of the graph operator at slopes p = w', s = w''.

    ``P = 1 + p^2/a``, its powers ``P^{-3/2}`` and ``P^{-1/2}``, and the
    radial Hessian numerator ``hess = s - a'/(2a) p``.
    """

    p: np.ndarray
    P: np.ndarray
    P_m32: np.ndarray
    P_m12: np.ndarray
    hess: np.ndarray


def graph_terms(frame: RadialFrame, p, s) -> GraphTerms:
    """Evaluate the lambda-free pieces of ``graph_operator`` once.

    Each array is written in place, with the operations of
    ``1 + p^2/a`` and ``s - a'/(2a) p`` in that order.
    """
    P = np.square(p)
    P /= frame.a
    P += 1.0
    if not np.all(np.isfinite(P)):
        raise NumericalDegeneracy("1 + |dw|^2 overflowed")
    hess = np.multiply(frame.half_dlog_a, p)
    np.subtract(s, hess, out=hess)
    return GraphTerms(p=p, P=P, P_m32=np.power(P, -1.5),
                      P_m12=np.power(P, -0.5), hess=hess)


def graph_combination(frame: RadialFrame, t: GraphTerms, lam: float,
                      lam_q=None) -> np.ndarray:
    """Combine precomputed graph terms with the momentum coupling lam.

    ``lam_q`` is (lam q_rad, lam q_tan) when already formed.  The sum

        P^{-3/2} hess / a - lam q_rad / P
            + (n - 1) (P^{-1/2} warp_a p - lam q_tan)

    is accumulated in place, in that order.
    """
    lam_qr, lam_qt = ((lam * frame.q_rad, lam * frame.q_tan)
                      if lam_q is None else lam_q)
    out = np.multiply(t.P_m32, t.hess)
    out /= frame.a
    term = np.divide(lam_qr, t.P)
    out -= term
    np.multiply(t.P_m12, frame.warp_a, out=term)
    term *= t.p
    term -= lam_qt
    term *= frame.n - 1
    out += term
    return out


def graph_operator(frame: RadialFrame, p, s, lam: float) -> np.ndarray:
    """Mean curvature of the graph of w minus lam tr q, at slopes p = w', s = w''.

    The warped-product reduction of H(graph w) - lam tr_g q in the frame of
    ``a dr^2 + c r^2 sigma``; rows at r = 0 need the caller's origin closure.
    """
    return graph_combination(frame, graph_terms(frame, p, s), lam)


def _origin_curvature(frame: RadialFrame, A0, A2):
    """Even-profile limit of the scalar curvature at r = 0 (A(0), A''(0))."""
    n = frame.n
    return n * (n - 1) * (A2 - 3.0 * frame.origin_d2[1]) / (2.0 * A0 ** 2)


def _warped_curvature(frame: RadialFrame, A, dA):
    """(1 - f'^2/A, f''/A - f' A'/(2A^2)) of ``A dr^2 + c r^2 sigma`` at the
    frame radii, with the warping radius f = r sqrt(c).

    The first over f^2 is the sectional curvature of a tangential plane,
    minus the second over f that of a radial plane; every curvature of the
    metric is built from these two.
    """
    f1 = frame.f1
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 - f1 ** 2 / A, frame.f2 / A - f1 * dA / (2.0 * A ** 2)


def warped_scalar_curvature(frame: RadialFrame, A, dA, A2_origin) -> np.ndarray:
    """Scalar curvature of ``A dr^2 + c r^2 sigma`` at the frame radii (r_0 = 0).

    With the warping radius f = r sqrt(c):
        R = (n-1)(n-2) (1 - f'^2/A)/f^2 - 2(n-1) (f''/A - f' A'/(2A^2))/f
    and the even-profile limit at r = 0.  Origin-singular data get NaN there.
    """
    n, f = frame.n, frame.f
    tangential, radial = _warped_curvature(frame, A, dA)
    with np.errstate(divide="ignore", invalid="ignore"):
        R = ((n - 1) * (n - 2) * tangential / f ** 2
             - 2.0 * (n - 1) * radial / f)
    R[0] = _origin_curvature(frame, A[0], A2_origin)
    return R


def scalar_curvature(data: RadialInitialData, grid: RadialGrid) -> np.ndarray:
    """Scalar curvature of g = a dr^2 + c r^2 sigma at the grid nodes.

    Origin-singular families (exact Schwarzschild) get NaN at the first node.
    The array is the grid's frame coefficient ``R``: read-only, and
    evaluated once per metric.
    """
    return RadialFrame.on(data, grid).R


def constraint_fields(data: RadialInitialData, grid: RadialGrid) -> ConstraintFields:
    """Energy density mu, radial momentum J_rad, and the strict-DEC margin.

    Kept on the grid's frame: evaluated once per dataset and grid.
    """
    return RadialFrame.on(data, grid).constraints


def evaluate_constraint_fields(frame: RadialFrame) -> ConstraintFields:
    """A fresh evaluation of mu, J_rad and the margin from the frame
    coefficients; R_g is the frame's curvature, a metric coefficient."""
    n, data = frame.n, frame.data
    R = frame.R
    qr, qt = frame.q_rad, frame.q_tan
    q2 = qr ** 2 + (n - 1) * qt ** 2
    tr = qr + (n - 1) * qt
    mu = 0.5 * (R - q2 + tr ** 2)
    with np.errstate(invalid="ignore"):
        J = (n - 1) * (frame.warp * (qr - qt) - frame.dq_tan) / np.sqrt(frame.a)
    # smooth origin: (q_rad - q_tan)/r -> (q_rad - q_tan)'(0) = 0 and q_tan'(0) = 0
    J[0] = 0.0 if data.origin_regular else np.nan
    margin = mu - np.abs(J)
    return ConstraintFields(R_g=R, mu=mu, J_rad=J, margin=margin)


# the Gauss-Kronrod (7, 15) pair on [-1, 1] (QUADPACK's qk15), symmetric
# about 0: per node from -1 to 0, the node, its Kronrod weight, and its
# Gauss weight (0 at the nodes that Kronrod adds)
_GK = np.array([
    (-0.991455371120812639206854697526329, 0.022935322010529224963732008058970,
     0.0),
    (-0.949107912342758524526189684047851, 0.063092092629978553290700663189204,
     0.129484966168869693270611432679082),
    (-0.864864423359769072789712788640926, 0.104790010322250183839876322541518,
     0.0),
    (-0.741531185599394439863864773280788, 0.140653259715525918745189590510238,
     0.279705391489276667901467771423780),
    (-0.586087235467691130294144845693013, 0.169004726639267902826583426598550,
     0.0),
    (-0.405845151377397166906606412076961, 0.190350578064785409913256402421014,
     0.381830050505118944950369775488975),
    (-0.207784955007898467600689403773245, 0.204432940075298892414161999234649,
     0.0),
    (0.0, 0.209482141084727828012999174891714,
     0.417959183673469387755102040816327)])
_GK_X, _K15_W, _G7_W = np.concatenate((_GK, _GK[-2::-1] * (-1, 1, 1))).T
_PANEL_LIMIT = 200


def _sqrt_a_integral(data: RadialInitialData, lo: float, hi: float,
                     epsrel: float, epsabs: float = 0.0) -> float:
    """int_lo^hi sqrt(a) dr (negative for hi < lo), by adaptive quadrature.

    Each panel carries a 15-point Kronrod sum K and the 7-point Gauss sum G
    nested in it, with |K - G| as its error.  The integral is the sum of K
    once the errors sum to at most max(epsabs, epsrel |integral|).  Until
    then, the panels with the largest errors are bisected, as few as leave
    the others' errors within half that tolerance, and a is read at all
    the new nodes in one call.  Needing more than ``_PANEL_LIMIT`` panels
    raises NumericalDegeneracy, as does a non-finite sqrt(a).
    """
    if hi < lo:
        return -_sqrt_a_integral(data, hi, lo, epsrel, epsabs)
    left, right = np.array([lo]), np.array([hi])
    K = err = np.empty(0)
    while True:
        half = 0.5 * (right[K.size:] - left[K.size:])
        r = (left[K.size:] + half)[:, None] + half[:, None] * _GK_X
        with np.errstate(invalid="ignore", over="ignore"):
            f = np.sqrt(np.asarray(data.a(r.ravel()), dtype=float))
            f = f.reshape(r.shape)
            K_new = half * np.sum(f * _K15_W, axis=1)
            G_new = half * np.sum(f * _G7_W, axis=1)
            K = np.concatenate((K, K_new))
            err = np.concatenate((err, np.abs(K_new - G_new)))
        if not np.all(np.isfinite(err)):
            raise NumericalDegeneracy(
                f"sqrt(a) is not finite on the radial segment [{lo}, {hi}]")
        integral, err_sum = float(np.sum(K)), float(np.sum(err))
        tol = max(epsabs, epsrel * abs(integral))
        if err_sum <= tol:
            return integral
        worst = np.argsort(err)[::-1]
        count = int(np.searchsorted(np.cumsum(err[worst]),
                                    err_sum - 0.5 * tol)) + 1
        if K.size + count > _PANEL_LIMIT:
            raise NumericalDegeneracy(
                f"the length of [{lo}, {hi}] missed its tolerance "
                f"{tol:.3g} within {_PANEL_LIMIT} quadrature panels")
        split, keep = worst[:count], worst[count:]
        mid = 0.5 * (left[split] + right[split])
        left = np.concatenate((left[keep], left[split], mid))
        right = np.concatenate((right[keep], mid, right[split]))
        K, err = K[keep], err[keep]


def geodesic_distance(data: RadialInitialData, r_from: float,
                      r_to: float) -> float:
    """g-geodesic length of the radial segment [r_from, r_to]."""
    if r_from < 0 or r_to < r_from:
        raise InvalidArgument(f"need 0 <= r_from <= r_to, got ({r_from}, {r_to})")
    if r_to == r_from:
        return 0.0
    return _sqrt_a_integral(data, r_from, r_to, epsrel=1e-11)


def radius_at_distance(data: RadialInitialData, r_start: float,
                       dist: float) -> float:
    """Radius at geodesic distance `dist` inward of r_start.

    Newton's method on L(r) = int_r^{r_start} sqrt(a) = dist, L' = -sqrt(a),
    bisecting when a step leaves the bracket; L is carried from iterate to
    iterate, one short quadrature at a time.  Clipped at r = 0.
    """
    root_a = lambda s: math.sqrt(float(data.a(s)))
    xtol = 1e-12 * max(1.0, r_start)
    # L(hi) <= dist < L(lo) once lo is evaluated, and r is the end evaluated
    # last; the origin is evaluated when a step first reaches it
    lo, hi, r, L, origin_seen = 0.0, r_start, r_start, 0.0, False
    for _ in range(100):
        step = (L - dist) / root_a(r)
        if abs(step) <= xtol:
            return r + step
        r_new = r + step
        if r_new <= 0.0 and not origin_seen:
            r_new, origin_seen = 0.0, True
        elif not lo < r_new < hi:
            r_new = 0.5 * (lo + hi)
        L += _sqrt_a_integral(data, r_new, r, epsrel=1e-10, epsabs=1e-14)
        r = r_new
        if L > dist:
            lo = r
        elif r == 0.0:
            return 0.0
        else:
            hi = r
    raise NumericalDegeneracy(f"no radius at distance {dist} from {r_start}")


def ricci_eigenvalues(data: RadialInitialData, grid: RadialGrid):
    """(radial, tangential) orthonormal-frame Ricci eigenvalues at the nodes."""
    n = data.n
    frame = RadialFrame.on(data, grid)
    frame.check_metric()
    a, f = frame.a, frame.f
    tangential, radial = _warped_curvature(frame, a, frame.da)
    with np.errstate(divide="ignore", invalid="ignore"):
        fss_over_f = radial / f
        ric_rad = -(n - 1) * fss_over_f
        ric_tan = -fss_over_f + (n - 2) * tangential / f ** 2
    # isotropy at a smooth center: every Ricci eigenvalue equals R/n there
    ric_rad[0] = ric_tan[0] = _origin_curvature(frame, a[0], frame.origin_d2[0]) / n
    return ric_rad, ric_tan


def dq_frame_norm(data: RadialInitialData, grid: RadialGrid) -> np.ndarray:
    """|Dq|_g at the nodes (orthonormal-frame covariant derivative norm)."""
    n = data.n
    frame = RadialFrame.on(data, grid)
    with np.errstate(invalid="ignore"):
        mixed = frame.warp * (frame.q_rad - frame.q_tan)
    mixed[0] = 0.0
    sq = (frame.dq_rad ** 2 + (n - 1) * frame.dq_tan ** 2
          + 2.0 * (n - 1) * mixed ** 2) / frame.a
    return np.sqrt(sq)


# ---------------------------------------------------------------------------
# invariant checks
# ---------------------------------------------------------------------------

def _line_fit(x, y):
    """Least-squares line y ~ slope x + intercept, in closed form.

    slope = sum (x - x_m)(y - y_m) / sum (x - x_m)^2 and
    intercept = y_m - slope x_m, with the means x_m, y_m: every sum is
    np.sum, so no BLAS call (and no thread count) enters the result.
    """
    x_m = np.sum(x) / x.size
    y_m = np.sum(y) / y.size
    dx = x - x_m
    slope = np.sum(dx * (y - y_m)) / np.sum(dx * dx)
    return float(slope), float(y_m - slope * x_m)


def loglog_slope(r, y, floor: float):
    """Slope of log|y| against log r over nodes with r > 0 and |y| > floor.

    None when fewer than 8 nodes qualify.
    """
    mask = (r > 0) & (np.abs(y) > floor)
    if np.count_nonzero(mask) < 8:
        return None
    return _line_fit(np.log(r[mask]), np.log(np.abs(y[mask])))[0]


def _mass_term_fit(r, y, n: int) -> float:
    """alpha of the least-squares fit y ~ alpha r^{2-n} + beta r^{-n}.

    The second term takes up the next order of the expansion, which a
    one-term fit would fold into alpha.  The 2 x 2 normal equations are
    solved in closed form; every sum is np.sum, so no BLAS call enters.
    """
    x1, x2 = r ** (2.0 - n), r ** (-float(n))
    s11, s12, s22 = np.sum(x1 * x1), np.sum(x1 * x2), np.sum(x2 * x2)
    t1, t2 = np.sum(x1 * y), np.sum(x2 * y)
    return float((t1 * s22 - t2 * s12) / (s11 * s22 - s12 * s12))


def validate_dataset(data: RadialInitialData, grid: RadialGrid) -> dict:
    """Check the structural and asymptotic invariants of a dataset.

    Hard violations raise InvalidArgument; decay checks are reported as
    fitted slopes (None when the profile is at the numerical floor).
    """
    n = data.n
    r = grid.nodes
    frame = RadialFrame.on(data, grid)
    a, c = frame.a, frame.c
    lo = 0 if data.origin_regular else 1
    if np.any(a[lo:] <= 0.0) or np.any(c[lo:] <= 0.0):
        raise InvalidArgument("metric profiles must be positive at every node")
    report = {"origin_regular": data.origin_regular}
    if data.origin_regular:
        if abs(a[0] - c[0]) > 1e-10 * max(1.0, abs(a[0])):
            raise InvalidArgument("smooth origin needs a(0) = c(0)")
        for name, vals in (("a", a), ("c", c), ("q_rad", frame.q_rad),
                           ("q_tan", frame.q_tan)):
            prof = getattr(data, name)
            d0 = float(np.atleast_1d(prof.deriv1(np.array([0.0])))[0])
            scale = max(1.0, float(np.max(np.abs(vals))))
            if abs(d0) > 1e-6 * scale:
                raise InvalidArgument(f"profile {name} must have vanishing slope at r=0")
    # metric decay toward (1 + alpha r^{2-n}) at rate r^{2-n-2delta}
    outer = grid.outer_third_mask() & (r > 0)
    alpha = data.alpha_decl
    if alpha is None:
        # a - 1 and c - 1 must decay at least like the mass term: the
        # two-term fit would take any slower tail into alpha and beta
        for name, vals in (("a", a), ("c", c)):
            slope = loglog_slope(r[outer], vals[outer] - 1.0, floor=1e-13)
            if slope is not None and slope > 2.5 - n:
                raise InvalidArgument(
                    f"profile {name} decays at rate {slope:.2f} toward 1, "
                    f"need {2 - n:.2f}")
        alpha = _mass_term_fit(r[outer], a[outer] - 1.0, n)
    resid_a = a[outer] - 1.0 - alpha * r[outer] ** (2.0 - n)
    resid_c = c[outer] - 1.0 - alpha * r[outer] ** (2.0 - n)
    want = -(n - 2 + 2 * data.delta)
    for name, resid in (("a", resid_a), ("c", resid_c)):
        slope = loglog_slope(r[outer], resid, floor=1e-13)
        report[f"slope_{name}"] = slope
        if slope is not None and slope > want + 0.5:
            raise InvalidArgument(
                f"profile {name} decays at rate {slope:.2f}, declared {want:.2f}")
    slope_q = loglog_slope(r[outer], frame.q_norm[outer], floor=1e-13)
    report["slope_q"] = slope_q
    if slope_q is not None and slope_q > -(n - 1) + 0.5:
        raise InvalidArgument(f"|q| decays at rate {slope_q:.2f}, need ~{1 - n}")
    report["alpha"] = alpha
    return report
