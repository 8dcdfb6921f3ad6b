"""Convex boundary curves and the blended annular grid between them.

A ring is the region between two closed strictly convex curves, the inner one
strictly contained in the outer one.  Every curve, whatever its kind, is
parametrized counterclockwise by an angle theta in [0, 2pi) through one formula,

    gamma(theta) = c + r(theta) * (a cos theta, b sin theta),

and the grid between them blends boundary positions linearly,

    x(s, theta) = (1 - s) * gamma_outer(theta) + s * gamma_inner(theta),

so the s = 0 row lies exactly on the outer boundary and s = 1 exactly on the
inner one.  The grid's map and its Jacobian broadcast s against theta: given
s[:, None] and a row of angles they evaluate each curve once per angle, and
the Jacobian comes as component arrays.  Every construction check is decided
from the boundary: convexity from dense samples of each curve, containment
from the support values of the inner curve's sample polygon at the outer
curve's sample normals, and grid folding from det J on the two boundary rows,
which is exact because det J is linear in s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from .spaceform import SpaceFormChart, _log_lambda_derivatives, _real, _whole

TWO_PI = 2.0 * np.pi
VALIDATION_SAMPLES = 720
# the angles every curve and ring validation samples; read-only, shared
VALIDATION_THETA = np.linspace(0.0, TWO_PI, VALIDATION_SAMPLES, endpoint=False)
VALIDATION_THETA.flags.writeable = False
# the smallest and largest length a curve may have
_LENGTH_SCALES = (1e-100, 1e100)
# samples per block of the grid's nodes and node geometry, of the grid jet
# table and of levelgeom.rank_scan: about 8192 keeps every temporary of a
# block in cache (the block-size sweep of BENCH_blocked_geometry.json)
_BLOCK = 8192


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
    blend map and its derivatives broadcast over (s, theta) and evaluate each
    curve once per angle.  Use :func:`make_curve`, which validates
    convexity; the constructor itself does not.
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
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError(f'a curve must be an object with a "kind", got {d!r}')
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

    A missing parameter, a value that is not a finite number, and a curve
    whose extent or speed leaves [1e-100, 1e100] are a ValueError naming the
    kind.
    """
    if kind not in _REQUIRED_PARAMETER:
        raise ValueError(f"unknown curve kind {kind!r}")
    if _REQUIRED_PARAMETER[kind] not in params:
        raise ValueError(f"{kind} curve is missing {_REQUIRED_PARAMETER[kind]!r}")
    what = f"{kind} curve parameters"
    cx, cy = (_real(c, what) for c in params.pop("center", (0.0, 0.0)))
    if kind == "circle":
        radius = _real(params.pop("radius"), what)
        if radius <= 0:
            raise ValueError("circle radius must be positive")
        curve = ConvexCurve(kind="circle", center=(cx, cy), r0=radius)
    elif kind == "ellipse":
        a, b = (_real(v, what) for v in params.pop("radii"))
        if a <= 0 or b <= 0:
            raise ValueError("ellipse semiaxes must be positive")
        curve = ConvexCurve(kind="ellipse", center=(cx, cy), axes=(a, b))
    else:
        curve = ConvexCurve(
            kind="fourier", center=(cx, cy), r0=_real(params.pop("r0"), what),
            cos_coeffs=tuple(_real(v, what) for v in params.pop("cos_coeffs", ())),
            sin_coeffs=tuple(_real(v, what) for v in params.pop("sin_coeffs", ())),
        )
    if params:
        raise ValueError(f"unexpected parameters for {kind}: {sorted(params)}")

    # lengths enter the chart squared and the curvature cubed: beyond this
    # band of scales they overflow or underflow
    with np.errstate(over="ignore", invalid="ignore"):
        extent = np.max(np.abs(curve.point(VALIDATION_THETA)))
        speed = np.linalg.norm(curve.d1(VALIDATION_THETA), axis=-1)
    low, high = _LENGTH_SCALES
    if not (extent <= high and low <= np.min(speed) and np.max(speed) <= high):
        raise ValueError(f"{kind} curve lengths must lie between {low:g} and {high:g}")
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
            "chart": {"epsilon": self.chart.epsilon, "dim": self.chart.dim},
            "outer": self.outer.to_dict(),
            "inner": self.inner.to_dict(),
        }


def ring_from_dict(d: dict[str, Any]) -> ConvexRing:
    # the chart is its epsilon and dim; any other key an older snapshot holds
    # is ignored
    chart = SpaceFormChart(d["chart"]["epsilon"], d["chart"]["dim"])
    return make_ring(chart, curve_from_dict(d["outer"]), curve_from_dict(d["inner"]))


def containment_margin(outer: ConvexCurve, inner: ConvexCurve) -> float:
    """Minimum signed distance from inner-curve samples to the outer curve's
    supporting half-planes; positive iff the inner curve is strictly inside.

    Both curves are strictly convex, as :func:`make_curve` returns them, so
    the inner samples, counterclockwise, are the vertices of a convex
    polygon, and the largest nu . p over them (the polygon's support value
    at an outer normal nu) is taken at the vertex between the two edges whose
    outward normals bracket nu's angle.  ``np.searchsorted`` finds that
    vertex among the edge-normal angles, and it is evaluated with its two
    neighbours, which covers a near tie that rounding decides: the margin is
    the minimum over all m x m sample pairs, bit for bit, in O(m log m)."""
    q = outer.point(VALIDATION_THETA)            # (m, 2)
    nu = outer.outward_normal(VALIDATION_THETA)  # (m, 2)
    p = inner.point(VALIDATION_THETA)            # (m, 2)
    offsets = np.einsum("mk,mk->m", nu, q)
    # edge j runs from vertex j to vertex j + 1, with outward normal (dy, -dx);
    # angles are taken from edge 0's, so they increase over [0, 2 pi)
    edge = np.roll(p, -1, axis=0) - p
    start = np.arctan2(-edge[0, 0], edge[0, 1])
    normal_angles = (np.arctan2(-edge[:, 0], edge[:, 1]) - start) % TWO_PI
    angles = (np.arctan2(nu[:, 1], nu[:, 0]) - start) % TWO_PI
    # vertex k lies between edges k - 1 and k
    vertex = np.searchsorted(normal_angles, angles, side="right")
    near = p[(vertex[:, None] + np.arange(-1, 2)) % len(p)]  # (m, 3, 2)
    support = np.max(np.einsum("mk,mck->mc", nu, near), axis=1)
    return float(np.min(offsets - support))


def make_ring(chart: SpaceFormChart, outer: ConvexCurve, inner: ConvexCurve) -> ConvexRing:
    """Validate containment, chart bounds, and (for curved charts) geodesic
    convexity, then return the ring.  Rings are built in dimension 2 only."""
    if chart.dim != 2:
        raise ValueError(f"rings are built in dimension 2 only, got a chart of dim {chart.dim}")
    # both curves must lie in the chart's domain
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


@dataclass(frozen=True)
class _NodeGeometry:
    """The grid's blend map at its nodes, one array per component.

    ``jinv[k][a]`` is d(s, theta)_k / dx_a and ``x_tt`` is (ns, ntheta);
    ``x_st`` depends on theta alone, (ntheta,).  It holds nothing of the
    chart: a curved jet table takes lambda and grad log lambda of each block
    of nodes as it converts that block, and a flat one needs neither.
    """

    jinv: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    x_st: tuple[np.ndarray, np.ndarray]
    x_tt: tuple[np.ndarray, np.ndarray]


def _check_grid_size(ns: int, ntheta: int, what: str) -> None:
    """ValueError, opening with ``what``, unless the solver's Jacobian on an
    ns x ntheta grid, 9 (ns - 2) ntheta entries at most, fits the int32
    indices of its sparse pattern (the index type SuperLU takes)."""
    if 9 * (ns - 2) * ntheta > np.iinfo(np.int32).max:
        raise ValueError(f"{what} too large: an ns x ntheta grid needs 9 (ns - 2) ntheta "
                         f"Jacobian entries, at most 2**31 - 1 (int32 sparse indices)")


def _blend(s, outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """The blend (1 - s) outer + s inner of two point arrays (..., 2)."""
    s = np.asarray(s, dtype=float)[..., None]
    return (1.0 - s) * outer + s * inner


class AnnularGrid:
    """Structured grid blending the two boundary curves of a ring.

    Node (i, j) sits at x(s_i, theta_j) with s_i = i/(ns-1) and
    theta_j = 2 pi j / ntheta; the theta direction is periodic.  The blend
    map and its Jacobian are analytic and can be evaluated anywhere: the
    fold check takes det J on the boundary rows, the solver det J at the
    interior nodes and J^{-1} at the face centres, and the node geometry of
    the jet tables J^{-1} and the second derivatives at the nodes, all as
    component arrays.  The grid keeps its nodes and no det J array.
    """

    def __init__(self, ring: ConvexRing, ns: int, ntheta: int):
        ns, ntheta = _whole(ns, "ns"), _whole(ntheta, "ntheta")
        if ns < 4:
            raise ValueError("ns must be at least 4 (one-sided stencils need 4 rows)")
        if ntheta < 8:
            raise ValueError("ntheta must be at least 8")
        _check_grid_size(ns, ntheta, "ns" if ns >= ntheta else "ntheta")
        self.ring = ring
        self.ns = ns
        self.ntheta = ntheta
        self.s = np.linspace(0.0, 1.0, ns)
        self.theta = TWO_PI * np.arange(ntheta) / ntheta
        self.hs = 1.0 / (ns - 1)
        self.htheta = TWO_PI / ntheta

        # det J = x_s x ((1 - s) d1_out + s d1_in) is linear in s, so on each
        # column its largest |det J| lies at an end, and it keeps one sign and
        # stays clear of zero iff it does at both ends: rows 0 and ns - 1
        # decide the fold check.  A grid that fails there fails in full too,
        # and only then is det J evaluated at every node, to name the first
        # node at fault
        _, _, end_det = self._jacobian(self.s[[0, -1], None], self.theta)
        try:
            self._validate_determinants(end_det)
        except GridFoldError:
            self._validate_determinants(self._jacobian(self.s[:, None], self.theta)[2])
            raise

        # the nodes in blocks of rows, so that no temporary is the size of
        # the grid; each curve is evaluated at ntheta angles
        step = max(1, _BLOCK // ntheta)
        p_out, p_in = ring.outer.point(self.theta), ring.inner.point(self.theta)
        self.nodes = np.empty((ns, ntheta, 2))
        for r0 in range(0, ns, step):
            self.nodes[r0:r0 + step] = _blend(self.s[r0:r0 + step, None], p_out, p_in)

    @staticmethod
    def _validate_determinants(det: np.ndarray) -> None:
        """GridFoldError naming the first node, in C order, where det J
        nearly vanishes or takes the other sign than at node (0, 0)."""
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
        return _blend(s, self.ring.outer.point(theta), self.ring.inner.point(theta))

    def _jacobian(self, s, theta):
        """The blend map's Jacobian columns x_s and x_theta, each a pair of
        components, and det J.  x_s depends on theta alone."""
        outer, inner = self.ring.outer, self.ring.inner
        p_out, p_in = outer.point(theta), inner.point(theta)
        d1_out, d1_in = outer.d1(theta), inner.d1(theta)
        x_s = tuple(p_in[..., k] - p_out[..., k] for k in range(2))
        x_t = tuple((1.0 - s) * d1_out[..., k] + s * d1_in[..., k] for k in range(2))
        return x_s, x_t, x_s[0] * x_t[1] - x_t[0] * x_s[1]

    def _jacobian_inverse(self, s, theta):
        """The rows of J^{-1}, d(s)/d(x) and d(theta)/d(x) as component pairs,
        and det J."""
        x_s, x_t, det = self._jacobian(s, theta)
        return ((x_t[1] / det, -x_t[0] / det), (-x_s[1] / det, x_s[0] / det)), det

    @cached_property
    def _node_geometry(self) -> _NodeGeometry:
        """J^{-1}, x_st and x_tt at the nodes: built by the first jet table
        on this grid and kept for the grid's life.  x_ss vanishes (the blend
        is linear in s) and x_st depends on theta alone.

        Every node passes ``chart.validate_points``, and J^{-1} and x_tt are
        written into their component arrays in blocks of
        max(1, _BLOCK // ntheta) rows, J^{-1} by :meth:`_jacobian_inverse`
        on the block's rows, so no temporary is the size of the grid.  Each
        entry's arithmetic is the same in any block.
        """
        ns, ntheta, theta = self.ns, self.ntheta, self.theta
        outer, inner = self.ring.outer, self.ring.inner
        d1_out, d1_in = outer.d1(theta), inner.d1(theta)
        d2_out, d2_in = outer.d2(theta), inner.d2(theta)
        x_st = tuple(d1_in[..., k] - d1_out[..., k] for k in range(2))
        jinv = tuple(tuple(np.empty((ns, ntheta)) for _ in range(2)) for _ in range(2))
        x_tt = tuple(np.empty((ns, ntheta)) for _ in range(2))
        step = max(1, _BLOCK // ntheta)
        for r0 in range(0, ns, step):
            rows = slice(r0, r0 + step)
            self.ring.chart.validate_points(self.nodes[rows])
            s = self.s[rows, None]
            for out, block in zip(jinv, self._jacobian_inverse(s, theta)[0]):
                for a in range(2):
                    out[a][rows] = block[a]
            for k in range(2):
                np.add((1.0 - s) * d2_out[..., k], s * d2_in[..., k], out=x_tt[k][rows])
        return _NodeGeometry(jinv=jinv, x_st=x_st, x_tt=x_tt)

    def refine(self) -> "AnnularGrid":
        """Halve both spacings; existing nodes are a subset of the new ones."""
        return AnnularGrid(self.ring, 2 * self.ns - 1, 2 * self.ntheta)


def build_grid(ring: ConvexRing, ns: int, ntheta: int) -> AnnularGrid:
    return AnnularGrid(ring, ns, ntheta)
