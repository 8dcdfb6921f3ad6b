"""Conformal chart for the simply connected space forms of curvature eps >= 0.

The model metric is g = lambda(x)^2 * (dx_1^2 + ... + dx_n^2) on a coordinate
ball, with

    lambda(x) = 1 / (1 + (eps/4) |x|^2).

eps = 0 is Euclidean space and the chart takes every finite point.  eps > 0
is the round sphere of curvature eps in stereographic coordinates, and the
chart takes the open ball |x| < 2/sqrt(eps) inside the equator: the open
hemisphere.  eps < 0 is rejected.

All tensor components returned by this module are expressed in the orthonormal
frame e_a = lambda^{-1} d/dx_a unless a docstring says otherwise.  The two
readers here, ``_real`` and ``_whole``, are the only ones for numbers that
come from a caller or a config; each such number passes one of them once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


class ChartDomainError(ValueError):
    """A point is not finite, or (epsilon > 0) lies at or beyond the equator."""


def _real(value, what: str) -> float:
    """``value`` as a finite float; a bool, a non-number, +-inf and NaN raise ValueError."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):  # np.bool_ is no Real
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return number


def _whole(value, what: str) -> int:
    """``value`` as an int, for sizes and counts: 17.0 reads as 17, and a bool,
    a fraction, +-inf, NaN or a non-number raise ValueError (int() would
    truncate 17.9 to 17 and overflow on inf)."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or float(value).is_integer())):
        return int(value)
    raise ValueError(f"{what} must be a whole number, got {value!r}")


@dataclass(frozen=True)
class SpaceFormChart:
    """Curvature parameter and ambient dimension of the model.

    Parameters
    ----------
    epsilon : float
        Sectional curvature of the model, >= 0.  For epsilon > 0 the chart
        accepts points strictly inside the equator |x| = 2/sqrt(epsilon).
    dim : int
        Ambient dimension, 2 or 3.
    """

    epsilon: float
    dim: int = 2

    def __post_init__(self):
        dim = _whole(self.dim, "dim")
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        eps = _real(self.epsilon, "epsilon")
        if eps < 0:
            raise ValueError(f"epsilon must be >= 0, got {eps}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "epsilon", eps)

    def validate_points(self, x) -> np.ndarray:
        """Return ``x`` as an array of shape (..., dim), rejecting non-finite
        points and, for epsilon > 0, points at or beyond the equator."""
        pts = np.asarray(x, dtype=float)
        if pts.shape[-1] != self.dim:
            raise ChartDomainError(
                f"expected points with last axis {self.dim}, got shape {pts.shape}"
            )
        r = np.sqrt(np.sum(pts * pts, axis=-1))
        rmax = float(np.max(r)) if r.size else 0.0  # NaN propagates
        if not np.isfinite(rmax):
            raise ChartDomainError(f"point radius {rmax} is not finite")
        equator = 2.0 / math.sqrt(self.epsilon) if self.epsilon > 0 else math.inf
        if rmax >= equator:
            raise ChartDomainError(
                f"point radius {rmax:.6g} reaches the equator radius {equator:.6g}")
        return pts


@dataclass(frozen=True)
class PointJet:
    """Second-order data of a scalar, in the orthonormal frame.

    ``grad`` and ``hess`` are the covariant gradient and Hessian expressed in
    the frame e_a = lambda^{-1} d/dx_a.  A jet may carry leading axes: a
    stack of points (..., n) has values (...), gradients (..., n) and
    Hessians (..., n, n).
    """

    point: np.ndarray
    value: float | np.ndarray
    grad: np.ndarray
    hess: np.ndarray


def _lambda(chart: SpaceFormChart, pts: np.ndarray):
    # the one expression for lambda; pts are already validated
    return 1.0 / (1.0 + 0.25 * chart.epsilon * np.sum(pts * pts, axis=-1))


def conformal_factor(chart: SpaceFormChart, x) -> np.ndarray | float:
    """lambda(x) = 1/(1 + (eps/4)|x|^2), broadcasting over leading axes."""
    lam = _lambda(chart, chart.validate_points(x))
    return float(lam) if lam.ndim == 0 else lam


def _log_lambda_derivatives(chart: SpaceFormChart, pts: np.ndarray):
    """lambda and the coordinate gradient of log(lambda),

    d(log lambda)_a = -(eps/2) x_a lambda.
    """
    lam = _lambda(chart, pts)
    return lam, -0.5 * chart.epsilon * pts * lam[..., None]


def christoffel(chart: SpaceFormChart, x) -> np.ndarray:
    """Christoffel symbols Gamma^c_{ab} of the conformal metric in chart
    coordinates, shape (..., dim, dim, dim) indexed [c, a, b].

    Gamma^c_{ab} = delta_ca phi_b + delta_cb phi_a - delta_ab phi_c
    with phi = log(lambda).
    """
    _, phi = _log_lambda_derivatives(chart, chart.validate_points(x))
    eye = np.eye(chart.dim)
    return (
        eye[:, :, None] * phi[..., None, None, :]
        + eye[:, None, :] * phi[..., None, :, None]
        - eye[None, :, :] * phi[..., :, None, None]
    )


def _to_frame(lam, dlog, du, d2u, grad, hess) -> None:
    """The frame conversion of :func:`frame_components` on components.

    ``lam`` and the n components ``dlog[c]`` of grad log(lambda) come from the
    caller, with ``du[c]`` and the n x n nested ``d2u[a][b]``; all broadcast
    elementwise.  The frame tensors are written into the arrays ``grad``
    (n, ...) and ``hess`` (n, n, ...), component axes first, which may hold
    the very arrays of ``du`` and ``d2u``: every Hessian entry is written
    before the gradient.  An entry below the diagonal whose input is the very
    array above it is converted once, and the entry above copied there.  On a
    flat chart (lambda = 1, grad log lambda = 0) the conversion changes no
    value, and the grid jet tables skip it.
    """
    n = len(du)
    dot = dlog[0] * du[0]
    for c in range(1, n):
        dot = dot + dlog[c] * du[c]
    lam2 = lam * lam
    for a in range(n):
        for b in range(n):
            if b < a and d2u[a][b] is d2u[b][a]:
                hess[a, b, ...] = hess[b, a, ...]
                continue
            correction = dlog[a] * du[b] + dlog[b] * du[a]
            if a == b:
                correction = correction - dot
            np.divide(d2u[a][b] - correction, lam2, out=hess[a, b, ...])
    for a in range(n):
        np.divide(du[a], lam, out=grad[a, ...])


def frame_components(chart: SpaceFormChart, x, coord_grad, coord_hess):
    """Convert coordinate derivatives of a scalar to frame components.

    Takes the plain coordinate gradient du and Hessian d2u, applies the
    Christoffel correction u_{;ab} = d2u_ab - Gamma^c_{ab} du_c, contracted in
    closed form with phi = log(lambda),

        Gamma^c_{ab} du_c = phi_a du_b + phi_b du_a - delta_ab (phi . du),

    and rescales both tensors into the orthonormal frame lambda^{-1} *
    (coordinate basis): grad = du / lambda, hess = u_{;ab} / lambda^2.
    Broadcasts over leading axes.  This is the analytic route
    (:func:`covariant_jet`); the grid jet tables of ``convexring.field`` run
    the same component kernel with lambda and phi kept by their grid, and
    skip it on a flat chart.
    """
    pts = chart.validate_points(x)
    du = np.asarray(coord_grad, dtype=float)
    d2u = np.asarray(coord_hess, dtype=float)
    lam, phi = _log_lambda_derivatives(chart, pts)
    n = range(chart.dim)
    lead = np.broadcast_shapes(lam.shape, du.shape[:-1])
    grad = np.empty(lead + (chart.dim,))
    hess = np.empty(np.broadcast_shapes(lead, d2u.shape[:-2]) + (chart.dim, chart.dim))
    _to_frame(lam, [phi[..., c] for c in n], [du[..., c] for c in n],
              [[d2u[..., a, b] for b in n] for a in n],
              np.moveaxis(grad, -1, 0), np.moveaxis(hess, (-2, -1), (0, 1)))
    return grad, hess


def covariant_jet(chart: SpaceFormChart, sampler, x) -> PointJet:
    """Evaluate the covariant jet of an analytic scalar at points (..., n).

    ``sampler(x)`` is called once with all the points and must return
    ``(value, grad, hess)`` in plain chart coordinates, shaped (...), (..., n)
    and (..., n, n) or broadcasting against them; the result is a jet over the
    same leading axes, in frame components.
    """
    pts = chart.validate_points(x)
    value, du, d2u = sampler(pts)
    grad, hess = frame_components(chart, pts, du, d2u)
    value = np.broadcast_to(np.asarray(value, dtype=float), pts.shape[:-1])[()]
    return PointJet(point=pts, value=value, grad=grad, hess=hess)


def sectional_curvature_probe(chart: SpaceFormChart, x) -> np.ndarray | float:
    """Sectional curvature of the chart metric at points ``x`` (..., n).

    Uses the conformal-curvature formula for g = e^{2 phi} delta with flat
    background: the coordinate plane (a, b) has

        K_ab = -lambda^{-2} (phi_aa + phi_bb + |dphi|^2 - phi_a^2 - phi_b^2),

    where phi = log(lambda) has phi_a = -(eps/2) lambda x_a and the diagonal
    second derivatives phi_aa = -(eps/2) lambda + (eps^2/4) lambda^2 x_a^2.
    All planes agree for this chart; the mean over coordinate planes is
    returned and should equal epsilon to rounding.
    """
    pts = chart.validate_points(x)
    lam, d1 = _log_lambda_derivatives(chart, pts)
    eps = chart.epsilon
    diag = -0.5 * eps * lam[..., None] + 0.25 * eps**2 * (lam**2)[..., None] * pts * pts
    sq = d1 * d1
    a, b = np.triu_indices(chart.dim, 1)
    k = -(diag[..., a] + diag[..., b] + np.sum(sq, axis=-1)[..., None]
          - sq[..., a] - sq[..., b]) / (lam**2)[..., None]
    return np.mean(k, axis=-1)[()]
