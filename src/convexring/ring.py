"""Convex boundary curves and the blended annular grid between them.

A ring is the region between two closed strictly convex curves, the inner one
strictly contained in the outer one.  Every curve, whatever its kind, is
parametrized counterclockwise by an angle theta in [0, 2pi) through one formula,

    gamma(theta) = c + r(theta) * (a cos theta, b sin theta),

and the grid between them blends boundary positions linearly,

    x(s, theta) = (1 - s) * gamma_outer(theta) + s * gamma_inner(theta),

so the s = 0 row lies exactly on the outer boundary and s = 1 exactly on the
inner one.  The ``map_*`` methods broadcast s against theta: given s[:, None]
and a row of angles they evaluate each curve once per angle.  Convexity,
containment, and grid folding are all validated at construction time by
dense sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .spaceform import SpaceFormChart, _log_lambda_derivatives

TWO_PI = 2.0 * np.pi
VALIDATION_SAMPLES = 720
# the angles every curve and ring validation samples; read-only, shared
VALIDATION_THETA = np.linspace(0.0, TWO_PI, VALIDATION_SAMPLES, endpoint=False)
VALIDATION_THETA.flags.writeable = False


class ConvexityError(ValueError):
    """A boundary curve fails strict convexity (chart or geodesic)."""


class ContainmentError(ValueError):
    """The inner curve is not strictly inside the outer curve."""


class GridFoldError(ValueError):
    """The blended grid map degenerates (Jacobian determinant changes sign)."""


# the theta-derivatives of cos(k theta) and sin(k theta) of order 0, 1, 2
# are sign * wave(k theta) * k^order
_COS_DERIVATIVES = ((1.0, np.cos), (-1.0, np.sin), (-1.0, np.cos))
_SIN_DERIVATIVES = ((1.0, np.sin), (1.0, np.cos), (-1.0, np.sin))


@dataclass(frozen=True)
class ConvexCurve:
    """Closed convex curve x(theta) = c + r(theta) * (a cos theta, b sin theta).

    One formula serves every kind, with
    r(theta) = r0 + sum_k cos_coeffs[k-1] cos(k theta) + sin_coeffs[k-1] sin(k theta):
    a circle has r0 = radius and axes (a, b) = (1, 1), an ellipse r0 = 1 and
    axes = its semiaxes, a fourier curve its series and axes (1, 1).  ``kind``
    only names the config and snapshot format.  ``point``, ``d1`` and ``d2``
    take theta of any shape and append an axis of length 2, so the grid's
    ``map_*`` methods broadcast over (s, theta) and evaluate each curve once
    per angle.  Use :func:`make_curve`, which validates convexity; the
    constructor itself does not.
    """

    kind: str
    center: tuple[float, float] = (0.0, 0.0)
    axes: tuple[float, float] = (1.0, 1.0)
    r0: float = 1.0
    cos_coeffs: tuple[float, ...] = ()        # amplitudes of cos(k theta), k >= 1
    sin_coeffs: tuple[float, ...] = ()

    def _radius(self, theta, order: int):
        """The order-th theta-derivative of r; a scalar without a series."""
        r = self.r0 if order == 0 else 0.0
        for coeffs, derivatives in ((self.cos_coeffs, _COS_DERIVATIVES),
                                    (self.sin_coeffs, _SIN_DERIVATIVES)):
            sign, wave = derivatives[order]
            for k, c in enumerate(coeffs, start=1):
                amp = sign * c
                for _ in range(order):  # rounds as c * k * k, not as c * k**2
                    amp *= k
                r = r + amp * wave(k * theta)
        return r

    def _frame(self, theta):
        """theta with a trailing axis, e = (a cos, b sin) and e' = (-a sin, b cos)."""
        theta = np.asarray(theta, dtype=float)
        a, b = self.axes
        cos, sin = np.cos(theta), np.sin(theta)
        e = np.stack([a * cos, b * sin], axis=-1)
        de = np.stack([-a * sin, b * cos], axis=-1)
        return theta[..., None], e, de

    def point(self, theta) -> np.ndarray:
        t, e, _ = self._frame(theta)
        return np.asarray(self.center) + self._radius(t, 0) * e

    def d1(self, theta) -> np.ndarray:
        """First parametric derivative r' e + r e'."""
        t, e, de = self._frame(theta)
        return self._radius(t, 1) * e + self._radius(t, 0) * de

    def d2(self, theta) -> np.ndarray:
        """Second parametric derivative (r'' - r) e + 2 r' e', as e'' = -e."""
        t, e, de = self._frame(theta)
        return (self._radius(t, 2) - self._radius(t, 0)) * e + (2.0 * self._radius(t, 1)) * de

    def chart_curvature(self, theta) -> np.ndarray:
        """Signed curvature in chart coordinates; positive for convex CCW curves."""
        g1 = self.d1(theta)
        g2 = self.d2(theta)
        speed2 = np.sum(g1 * g1, axis=-1)
        cross = g1[..., 0] * g2[..., 1] - g1[..., 1] * g2[..., 0]
        return cross / speed2**1.5

    def outward_normal(self, theta) -> np.ndarray:
        """Unit normal pointing away from the enclosed region."""
        g1 = self.d1(theta)
        n = np.stack([g1[..., 1], -g1[..., 0]], axis=-1)
        return n / np.linalg.norm(n, axis=-1, keepdims=True)

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"kind": self.kind, "center": list(self.center)}
        if self.kind == "circle":
            d["radius"] = self.r0
        elif self.kind == "ellipse":
            d["radii"] = list(self.axes)
        else:
            d["r0"] = self.r0
            d["cos_coeffs"] = list(self.cos_coeffs)
            d["sin_coeffs"] = list(self.sin_coeffs)
        return d


def curve_from_dict(d: dict[str, Any]) -> ConvexCurve:
    """The curve of a config or snapshot spec {"kind": ..., parameters}."""
    params = dict(d)
    return make_curve(params.pop("kind"), **params)


_REQUIRED_PARAMETER = {"circle": "radius", "ellipse": "radii", "fourier": "r0"}


def make_curve(kind: str, **params) -> ConvexCurve:
    """Build a curve and validate strict convexity by dense sampling.

    Supported kinds and parameters:
      circle   -- center, radius
      ellipse  -- center, radii=(a, b)
      fourier  -- center, r0, cos_coeffs, sin_coeffs
                  (radius r(theta) = r0 + sum_k a_k cos(k theta) + b_k sin(k theta))

    A missing or non-finite parameter is a ValueError naming the kind.
    """
    if kind not in _REQUIRED_PARAMETER:
        raise ValueError(f"unknown curve kind {kind!r}")
    if _REQUIRED_PARAMETER[kind] not in params:
        raise ValueError(f"{kind} curve is missing {_REQUIRED_PARAMETER[kind]!r}")
    center = tuple(float(c) for c in params.pop("center", (0.0, 0.0)))
    if kind == "circle":
        radius = float(params.pop("radius"))
        if radius <= 0:
            raise ValueError("circle radius must be positive")
        curve = ConvexCurve(kind="circle", center=center, r0=radius)
    elif kind == "ellipse":
        a, b = (float(v) for v in params.pop("radii"))
        if a <= 0 or b <= 0:
            raise ValueError("ellipse semiaxes must be positive")
        curve = ConvexCurve(kind="ellipse", center=center, axes=(a, b))
    else:
        curve = ConvexCurve(
            kind="fourier", center=center, r0=float(params.pop("r0")),
            cos_coeffs=tuple(float(v) for v in params.pop("cos_coeffs", ())),
            sin_coeffs=tuple(float(v) for v in params.pop("sin_coeffs", ())),
        )
    if params:
        raise ValueError(f"unexpected parameters for {kind}: {sorted(params)}")
    values = (*curve.center, *curve.axes, curve.r0, *curve.cos_coeffs, *curve.sin_coeffs)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{kind} curve parameters must be finite")

    if np.min(curve._radius(VALIDATION_THETA, 0)) <= 0:
        raise ConvexityError("fourier radius function must stay positive")
    kappa = curve.chart_curvature(VALIDATION_THETA)
    k_min = float(np.min(kappa))
    if k_min <= 0:
        at = float(VALIDATION_THETA[int(np.argmin(kappa))])
        raise ConvexityError(
            f"curve is not strictly convex: min curvature {k_min:.6g} at theta={at:.4f}"
        )
    return curve


def geodesic_curvature(curve: ConvexCurve, chart: SpaceFormChart, theta) -> np.ndarray:
    """Geodesic curvature of the curve in the chart metric.

    Conformal transformation of curvature: for g = lambda^2 * delta,
    kappa_g = (kappa_chart + d_nu log lambda) / lambda with nu the outward
    chart normal.  Reduces to the chart curvature when eps = 0.
    """
    pts = chart.validate_points(curve.point(theta))
    lam, dlog = _log_lambda_derivatives(chart, pts)
    nu = curve.outward_normal(theta)
    return (curve.chart_curvature(theta) + np.sum(dlog * nu, axis=-1)) / lam


@dataclass(frozen=True)
class ConvexRing:
    """Validated ring domain between two convex curves inside a chart."""

    chart: SpaceFormChart
    outer: ConvexCurve
    inner: ConvexCurve

    def to_dict(self) -> dict[str, Any]:
        return {
            "chart": {
                "epsilon": self.chart.epsilon,
                "dim": self.chart.dim,
                "chart_radius": self.chart.chart_radius,
            },
            "outer": self.outer.to_dict(),
            "inner": self.inner.to_dict(),
        }


def ring_from_dict(d: dict[str, Any]) -> ConvexRing:
    c = d["chart"]
    chart = SpaceFormChart(
        epsilon=c["epsilon"], dim=c.get("dim", 2), chart_radius=c.get("chart_radius"),
        allow_negative_curvature=c["epsilon"] < 0,
    )
    return make_ring(chart, curve_from_dict(d["outer"]), curve_from_dict(d["inner"]))


def containment_margin(outer: ConvexCurve, inner: ConvexCurve) -> float:
    """Minimum signed distance from inner-curve samples to the outer curve's
    supporting half-planes; positive iff the inner curve is strictly inside."""
    q = outer.point(VALIDATION_THETA)            # (m, 2)
    nu = outer.outward_normal(VALIDATION_THETA)  # (m, 2)
    p = inner.point(VALIDATION_THETA)            # (m, 2)
    # signed gap of every inner sample against every supporting line
    offsets = np.einsum("mk,mk->m", nu, q)
    gaps = offsets[None, :] - np.einsum("mk,pk->pm", nu, p)
    return float(np.min(gaps))


def make_ring(chart: SpaceFormChart, outer: ConvexCurve, inner: ConvexCurve) -> ConvexRing:
    """Validate containment, chart bounds, and (for curved charts) geodesic
    convexity, then return the ring."""
    # both curves must live inside the accepted chart ball
    chart.validate_points(outer.point(VALIDATION_THETA))
    chart.validate_points(inner.point(VALIDATION_THETA))

    margin = containment_margin(outer, inner)
    if margin <= 0:
        raise ContainmentError(
            f"inner curve is not strictly inside the outer curve (margin {margin:.6g})"
        )
    if chart.epsilon != 0.0:
        for name, curve in (("outer", outer), ("inner", inner)):
            kg = geodesic_curvature(curve, chart, VALIDATION_THETA)
            kg_min = float(np.min(kg))
            if kg_min <= 0:
                raise ConvexityError(
                    f"{name} curve loses geodesic convexity in the curved chart "
                    f"(min geodesic curvature {kg_min:.6g})"
                )
    return ConvexRing(chart=chart, outer=outer, inner=inner)


def boundary_convexity_report(ring: ConvexRing) -> dict[str, Any]:
    """Curvature extremes of both boundary curves plus the containment margin."""
    report: dict[str, Any] = {}
    for name, curve in (("outer", ring.outer), ("inner", ring.inner)):
        kappa = curve.chart_curvature(VALIDATION_THETA)
        kg = geodesic_curvature(curve, ring.chart, VALIDATION_THETA)
        report[name] = {
            "chart_kappa_min": float(np.min(kappa)),
            "chart_kappa_max": float(np.max(kappa)),
            "geodesic_kappa_min": float(np.min(kg)),
        }
    report["containment_margin"] = containment_margin(ring.outer, ring.inner)
    return report


class AnnularGrid:
    """Structured grid blending the two boundary curves of a ring.

    Node (i, j) sits at x(s_i, theta_j) with s_i = i/(ns-1) and
    theta_j = 2 pi j / ntheta; the theta direction is periodic.  The blend
    map, its Jacobian, and its second derivatives are analytic and can be
    evaluated anywhere, which the solvers use for face-centered fluxes.
    """

    def __init__(self, ring: ConvexRing, ns: int, ntheta: int):
        if ns < 4:
            raise ValueError("ns must be at least 4 (one-sided stencils need 4 rows)")
        if ntheta < 8:
            raise ValueError("ntheta must be at least 8")
        self.ring = ring
        self.ns = int(ns)
        self.ntheta = int(ntheta)
        self.s = np.linspace(0.0, 1.0, ns)
        self.theta = TWO_PI * np.arange(ntheta) / ntheta
        self.hs = 1.0 / (ns - 1)
        self.htheta = TWO_PI / ntheta

        # (s[:, None], theta) broadcasts: each curve is evaluated at ntheta angles
        self.nodes = self.map_point(self.s[:, None], self.theta)   # (ns, ntheta, 2)
        jac = self.map_jacobian(self.s[:, None], self.theta)
        self.det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
        self._validate_determinants(self.det)

        ds = np.linalg.norm(np.diff(self.nodes, axis=0), axis=-1)
        dt = np.linalg.norm(np.roll(self.nodes, -1, axis=1) - self.nodes, axis=-1)
        self.max_spacing = float(max(ds.max(), dt.max()))

    @staticmethod
    def _validate_determinants(det: np.ndarray) -> None:
        scale = float(np.max(np.abs(det)))
        if scale == 0.0 or float(np.min(np.abs(det))) < 1e-12 * scale:
            i, j = np.unravel_index(int(np.argmin(np.abs(det))), det.shape)
            raise GridFoldError(f"blend map degenerates at node ({i}, {j})")
        if np.min(det) < 0 < np.max(det):
            sign = np.sign(det.flat[0])
            bad = np.argwhere(np.sign(det) != sign)
            i, j = bad[0]
            raise GridFoldError(f"blend map folds at node ({i}, {j})")

    # -- analytic blend map -------------------------------------------------

    def map_point(self, s, theta) -> np.ndarray:
        s = np.asarray(s, dtype=float)[..., None]
        return (1.0 - s) * self.ring.outer.point(theta) + s * self.ring.inner.point(theta)

    def map_jacobian(self, s, theta) -> np.ndarray:
        """d(x)/d(s, theta), shape (..., 2, 2); columns are x_s and x_theta."""
        s = np.asarray(s, dtype=float)[..., None]
        x_s = self.ring.inner.point(theta) - self.ring.outer.point(theta)
        x_t = (1.0 - s) * self.ring.outer.d1(theta) + s * self.ring.inner.d1(theta)
        return np.stack(np.broadcast_arrays(x_s, x_t), axis=-1)

    def map_jacobian_inverse(self, s, theta) -> tuple[np.ndarray, np.ndarray]:
        """(J^{-1}, det J) of the blend map; J^{-1} has shape (..., 2, 2),
        rows d(s)/d(x) and d(theta)/d(x)."""
        jac = self.map_jacobian(s, theta)
        det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
        jinv = np.empty_like(jac)
        jinv[..., 0, 0] = jac[..., 1, 1]
        jinv[..., 0, 1] = -jac[..., 0, 1]
        jinv[..., 1, 0] = -jac[..., 1, 0]
        jinv[..., 1, 1] = jac[..., 0, 0]
        jinv /= det[..., None, None]
        return jinv, det

    def map_second(self, s, theta):
        """Second derivatives of the blend map: (x_ss, x_st, x_tt).

        x_ss vanishes identically (the blend is linear in s); x_ss and x_st
        depend on theta alone and keep its shape."""
        s = np.asarray(s, dtype=float)[..., None]
        x_st = self.ring.inner.d1(theta) - self.ring.outer.d1(theta)
        x_tt = (1.0 - s) * self.ring.outer.d2(theta) + s * self.ring.inner.d2(theta)
        return np.zeros_like(x_st), x_st, x_tt

    def refine(self) -> "AnnularGrid":
        """Halve both spacings; existing nodes are a subset of the new ones."""
        return AnnularGrid(self.ring, 2 * self.ns - 1, 2 * self.ntheta)


def build_grid(ring: ConvexRing, ns: int, ntheta: int) -> AnnularGrid:
    return AnnularGrid(ring, ns, ntheta)
