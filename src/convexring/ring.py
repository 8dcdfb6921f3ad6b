"""Convex boundary curves and the blended annular grid between them.

A ring is the region between two closed strictly convex curves, the inner one
strictly contained in the outer one.  Curves are parametrized
counterclockwise by an angle theta in [0, 2pi); the grid between them blends
boundary positions linearly,

    x(s, theta) = (1 - s) * gamma_outer(theta) + s * gamma_inner(theta),

so the s = 0 row lies exactly on the outer boundary and s = 1 exactly on the
inner one.  Convexity, containment, and grid folding are all validated at
construction time by dense sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .spaceform import SpaceFormChart, conformal_factor

TWO_PI = 2.0 * np.pi
VALIDATION_SAMPLES = 720


class ConvexityError(ValueError):
    """A boundary curve fails strict convexity (chart or geodesic)."""


class ContainmentError(ValueError):
    """The inner curve is not strictly inside the outer curve."""


class GridFoldError(ValueError):
    """The blended grid map degenerates (Jacobian determinant changes sign)."""


@dataclass(frozen=True)
class ConvexCurve:
    """Closed convex curve with analytic parametric derivatives.

    kind is one of "circle", "ellipse", "fourier".  Use :func:`make_curve`,
    which validates convexity; the constructor itself does not.
    """

    kind: str
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 0.0                       # circle
    radii: tuple[float, float] = (0.0, 0.0)   # ellipse semiaxes (a, b)
    r0: float = 0.0                           # fourier base radius
    cos_coeffs: tuple[float, ...] = ()        # fourier cos(k theta) amplitudes, k >= 1
    sin_coeffs: tuple[float, ...] = ()

    def _radial(self, theta):
        """Radius function and its first two derivatives (fourier kind)."""
        r = np.full_like(theta, self.r0, dtype=float)
        dr = np.zeros_like(r)
        d2r = np.zeros_like(r)
        for k, a in enumerate(self.cos_coeffs, start=1):
            r += a * np.cos(k * theta)
            dr += -a * k * np.sin(k * theta)
            d2r += -a * k * k * np.cos(k * theta)
        for k, b in enumerate(self.sin_coeffs, start=1):
            r += b * np.sin(k * theta)
            dr += b * k * np.cos(k * theta)
            d2r += -b * k * k * np.sin(k * theta)
        return r, dr, d2r

    def point(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        c = np.asarray(self.center)
        if self.kind == "circle":
            e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            return c + self.radius * e
        if self.kind == "ellipse":
            a, b = self.radii
            return c + np.stack([a * np.cos(theta), b * np.sin(theta)], axis=-1)
        if self.kind == "fourier":
            r, _, _ = self._radial(theta)
            e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            return c + r[..., None] * e
        raise ValueError(f"unknown curve kind {self.kind!r}")

    def d1(self, theta) -> np.ndarray:
        """First parametric derivative d(gamma)/d(theta)."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == "circle":
            return self.radius * np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
        if self.kind == "ellipse":
            a, b = self.radii
            return np.stack([-a * np.sin(theta), b * np.cos(theta)], axis=-1)
        if self.kind == "fourier":
            r, dr, _ = self._radial(theta)
            e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            ep = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
            return dr[..., None] * e + r[..., None] * ep
        raise ValueError(f"unknown curve kind {self.kind!r}")

    def d2(self, theta) -> np.ndarray:
        """Second parametric derivative."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == "circle":
            return -self.radius * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        if self.kind == "ellipse":
            a, b = self.radii
            return np.stack([-a * np.cos(theta), -b * np.sin(theta)], axis=-1)
        if self.kind == "fourier":
            r, dr, d2r = self._radial(theta)
            e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            ep = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
            return (d2r - r)[..., None] * e + (2.0 * dr)[..., None] * ep
        raise ValueError(f"unknown curve kind {self.kind!r}")

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
            d["radius"] = self.radius
        elif self.kind == "ellipse":
            d["radii"] = list(self.radii)
        else:
            d["r0"] = self.r0
            d["cos_coeffs"] = list(self.cos_coeffs)
            d["sin_coeffs"] = list(self.sin_coeffs)
        return d


def curve_from_dict(d: dict[str, Any]) -> ConvexCurve:
    kind = d["kind"]
    kwargs: dict[str, Any] = {"center": tuple(d.get("center", (0.0, 0.0)))}
    if kind == "circle":
        kwargs["radius"] = d["radius"]
    elif kind == "ellipse":
        kwargs["radii"] = tuple(d["radii"])
    elif kind == "fourier":
        kwargs["r0"] = d["r0"]
        kwargs["cos_coeffs"] = tuple(d.get("cos_coeffs", ()))
        kwargs["sin_coeffs"] = tuple(d.get("sin_coeffs", ()))
    else:
        raise ValueError(f"unknown curve kind {kind!r}")
    return make_curve(kind, **kwargs)


def make_curve(kind: str, **params) -> ConvexCurve:
    """Build a curve and validate strict convexity by dense sampling.

    Supported kinds and parameters:
      circle   -- center, radius
      ellipse  -- center, radii=(a, b)
      fourier  -- center, r0, cos_coeffs, sin_coeffs
                  (radius r(theta) = r0 + sum_k a_k cos(k theta) + b_k sin(k theta))
    """
    center = tuple(float(c) for c in params.pop("center", (0.0, 0.0)))
    if kind == "circle":
        radius = float(params.pop("radius"))
        if radius <= 0:
            raise ValueError("circle radius must be positive")
        curve = ConvexCurve(kind="circle", center=center, radius=radius)
    elif kind == "ellipse":
        a, b = (float(v) for v in params.pop("radii"))
        if a <= 0 or b <= 0:
            raise ValueError("ellipse semiaxes must be positive")
        curve = ConvexCurve(kind="ellipse", center=center, radii=(a, b))
    elif kind == "fourier":
        r0 = float(params.pop("r0"))
        cos_coeffs = tuple(float(v) for v in params.pop("cos_coeffs", ()))
        sin_coeffs = tuple(float(v) for v in params.pop("sin_coeffs", ()))
        curve = ConvexCurve(
            kind="fourier", center=center, r0=r0,
            cos_coeffs=cos_coeffs, sin_coeffs=sin_coeffs,
        )
    else:
        raise ValueError(f"unknown curve kind {kind!r}")
    if params:
        raise ValueError(f"unexpected parameters for {kind}: {sorted(params)}")

    theta = np.linspace(0.0, TWO_PI, VALIDATION_SAMPLES, endpoint=False)
    if kind == "fourier":
        r, _, _ = curve._radial(theta)
        if np.min(r) <= 0:
            raise ConvexityError("fourier radius function must stay positive")
    kappa = curve.chart_curvature(theta)
    k_min = float(np.min(kappa))
    if k_min <= 0:
        at = float(theta[int(np.argmin(kappa))])
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
    theta = np.asarray(theta, dtype=float)
    pts = curve.point(theta)
    nu = curve.outward_normal(theta)
    lam = conformal_factor(chart, pts)
    # d(log lambda) = -(eps/2) * lambda * x
    dlog = -0.5 * chart.epsilon * np.asarray(lam)[..., None] * pts
    kappa = curve.chart_curvature(theta)
    return (kappa + np.sum(dlog * nu, axis=-1)) / lam


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


def containment_margin(outer: ConvexCurve, inner: ConvexCurve,
                       samples: int = VALIDATION_SAMPLES) -> float:
    """Minimum signed distance from inner-curve samples to the outer curve's
    supporting half-planes; positive iff the inner curve is strictly inside."""
    theta = np.linspace(0.0, TWO_PI, samples, endpoint=False)
    q = outer.point(theta)            # (m, 2)
    nu = outer.outward_normal(theta)  # (m, 2)
    p = inner.point(theta)            # (m, 2)
    # signed gap of every inner sample against every supporting line
    offsets = np.einsum("mk,mk->m", nu, q)
    gaps = offsets[None, :] - np.einsum("mk,pk->pm", nu, p)
    return float(np.min(gaps))


def make_ring(chart: SpaceFormChart, outer: ConvexCurve, inner: ConvexCurve) -> ConvexRing:
    """Validate containment, chart bounds, and (for curved charts) geodesic
    convexity, then return the ring."""
    theta = np.linspace(0.0, TWO_PI, VALIDATION_SAMPLES, endpoint=False)
    # both curves must live inside the accepted chart ball
    chart.validate_points(outer.point(theta))
    chart.validate_points(inner.point(theta))

    margin = containment_margin(outer, inner)
    if margin <= 0:
        raise ContainmentError(
            f"inner curve is not strictly inside the outer curve (margin {margin:.6g})"
        )
    if chart.epsilon != 0.0:
        for name, curve in (("outer", outer), ("inner", inner)):
            kg = geodesic_curvature(curve, chart, theta)
            kg_min = float(np.min(kg))
            if kg_min <= 0:
                raise ConvexityError(
                    f"{name} curve loses geodesic convexity in the curved chart "
                    f"(min geodesic curvature {kg_min:.6g})"
                )
    return ConvexRing(chart=chart, outer=outer, inner=inner)


def boundary_convexity_report(ring: ConvexRing,
                              samples: int = VALIDATION_SAMPLES) -> dict[str, Any]:
    """Curvature extremes of both boundary curves plus the containment margin."""
    theta = np.linspace(0.0, TWO_PI, samples, endpoint=False)
    report: dict[str, Any] = {}
    for name, curve in (("outer", ring.outer), ("inner", ring.inner)):
        kappa = curve.chart_curvature(theta)
        kg = geodesic_curvature(curve, ring.chart, theta)
        report[name] = {
            "chart_kappa_min": float(np.min(kappa)),
            "chart_kappa_max": float(np.max(kappa)),
            "geodesic_kappa_min": float(np.min(kg)),
        }
    report["containment_margin"] = containment_margin(ring.outer, ring.inner, samples)
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

        ss, tt = np.meshgrid(self.s, self.theta, indexing="ij")
        self.nodes = self.map_point(ss, tt)              # (ns, ntheta, 2)
        jac = self.map_jacobian(ss, tt)
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
        return np.stack([x_s, x_t], axis=-1)

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

        x_ss vanishes identically (the blend is linear in s)."""
        s = np.asarray(s, dtype=float)[..., None]
        x_st = self.ring.inner.d1(theta) - self.ring.outer.d1(theta)
        x_tt = (1.0 - s) * self.ring.outer.d2(theta) + s * self.ring.inner.d2(theta)
        return np.zeros_like(x_st), x_st, x_tt

    def refine(self) -> "AnnularGrid":
        """Halve both spacings; existing nodes are a subset of the new ones."""
        return AnnularGrid(self.ring, 2 * self.ns - 1, 2 * self.ntheta)


def build_grid(ring: ConvexRing, ns: int, ntheta: int) -> AnnularGrid:
    return AnnularGrid(ring, ns, ntheta)
