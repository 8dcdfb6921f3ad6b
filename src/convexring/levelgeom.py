"""Level-set geometry of scalar fields: curvature, sigma_k, rank, structure.

Two independent computational routes to the elementary symmetric functions of
the level-set principal curvatures are kept deliberately separate:

* :func:`second_fundamental_form` builds h_ij = -u_{;ij}/|grad u| in an
  adapted tangent frame and exposes its eigenvalues (the principal
  curvatures of the level set with respect to the normal grad u / |grad u|).
  This frame route evaluates stacked jets over leading axes, so
  :func:`extract_level` and :func:`rank_scan` make one call each.
* :func:`sigma_k_level` never touches the tangent frame: it contracts the
  gradient with the Newton transformation of the full covariant Hessian,

      sigma_k[level] = (-1)^k  g^T T_k(D2u) g / |g|^(k+2),

  where T_k(A) = sum_{j<=k} (-1)^j sigma_{k-j}(A) A^j and the sigma_j(A) come
  from trace identities, not eigenvalues.

The sigma_k route stays scalar (one jet per call) and separate: agreement of
the two routes is a nontrivial identity enforced by the test suite; do not
collapse them into one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod
from typing import Any, Callable, Sequence

import numpy as np

from .field import ScalarField
from .spaceform import PointJet, SpaceFormChart, frame_components

GRAD_FLOOR = 1e-8


class SingularGradientError(ValueError):
    """|grad u| fell below the floor where a level-set frame was needed."""


class LevelRangeError(ValueError):
    """Requested level value is not strictly between the boundary values."""


class TopologyError(RuntimeError):
    """A level curve failed to cross each radial grid line exactly once."""


# -- frames and curvature -----------------------------------------------------


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b along the last axis; stacked matmul makes np.dot's BLAS call per
    vector, so values match np.dot and np.linalg.norm bit for bit."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _tangent_frame(unit_normal: np.ndarray) -> np.ndarray:
    """Gram-Schmidt tangent bases seeded from coordinate axes, over leading axes.

    Axes are taken in order of increasing |axis . normal| (ties resolved by
    lowest index), which makes the frame deterministic.
    Returns (..., n-1, n) arrays of orthonormal tangent vectors.
    """
    n = unit_normal.shape[-1]
    order = np.argsort(np.abs(unit_normal), axis=-1, kind="stable")
    frame: list[np.ndarray] = []
    for k in range(n - 1):
        v = (np.arange(n) == order[..., k:k + 1]).astype(float)
        for t in [unit_normal, *frame]:
            v = v - _dot(v, t)[..., None] * t
        norm = np.sqrt(_dot(v, v))
        if np.any(norm < 1e-12):
            raise SingularGradientError("degenerate tangent frame")
        frame.append(v / norm[..., None])
    return np.stack(frame, axis=-2)


def _level_forms(points: np.ndarray, grad: np.ndarray, hess: np.ndarray,
                 grad_floor: float) -> np.ndarray:
    """h = -T D2u T^T / |grad u| over leading axes, T the tangent frames.

    Raises SingularGradientError naming the first point, in C order, where
    |grad u| is below the floor."""
    norm = np.sqrt(_dot(grad, grad))
    low = np.flatnonzero(norm < grad_floor)
    if low.size:
        point = np.reshape(points, (norm.size, -1))[low[0]].tolist()
        raise SingularGradientError(
            f"|grad u| = {norm.flat[low[0]]:.3e} below floor {grad_floor:.1e} at {point}")
    tangents = _tangent_frame(grad / norm[..., None])
    h = -tangents @ hess @ np.swapaxes(tangents, -1, -2) / norm[..., None, None]
    return 0.5 * (h + np.swapaxes(h, -1, -2))


def second_fundamental_form(jet: PointJet, grad_floor: float = GRAD_FLOOR) -> np.ndarray:
    """h_ij = -u_{;ij} / |grad u| on the tangent space of the level set.

    Eigenvalues are the principal curvatures with respect to the unit normal
    grad u / |grad u|; they are positive when the level set is convex toward
    increasing u.
    """
    return _level_forms(jet.point, np.asarray(jet.grad, dtype=float),
                        np.asarray(jet.hess, dtype=float), grad_floor)


def principal_curvatures(jet: PointJet, grad_floor: float = GRAD_FLOOR) -> np.ndarray:
    """Sorted eigenvalues of the second fundamental form."""
    return np.linalg.eigvalsh(second_fundamental_form(jet, grad_floor))


# -- sigma_k: two routes ------------------------------------------------------


def elementary_symmetric(values: Sequence[float], k: int) -> float:
    """e_k of a small list of numbers (direct sum over k-subsets)."""
    if k == 0:
        return 1.0
    vals = list(values)
    if k > len(vals):
        return 0.0
    return float(sum(prod(c) for c in combinations(vals, k)))


def _sigma_traces(a: np.ndarray, k_max: int) -> list[float]:
    """sigma_0..sigma_k_max of a symmetric matrix from trace identities.

    Eigenvalue-free on purpose: p1 = tr A, p2 = tr A^2, p3 = tr A^3 give
    sigma_1 = p1, sigma_2 = (p1^2 - p2)/2, sigma_3 = (p1^3 - 3 p1 p2 + 2 p3)/6.
    """
    if k_max > 3:
        raise ValueError("trace route implemented for sigma_0..sigma_3")
    out = [1.0]
    if k_max >= 1:
        p1 = float(np.trace(a))
        out.append(p1)
    if k_max >= 2:
        p2 = float(np.trace(a @ a))
        out.append((p1 * p1 - p2) / 2.0)
    if k_max >= 3:
        p3 = float(np.trace(a @ a @ a))
        out.append((p1**3 - 3.0 * p1 * p2 + 2.0 * p3) / 6.0)
    return out


def sigma_k_level(jet: PointJet, k: int, grad_floor: float = GRAD_FLOOR) -> float:
    """k-th elementary symmetric function of the level-set curvatures,
    evaluated through the full covariant Hessian (no tangent frame).

    Valid for 1 <= k <= n-1.
    """
    g = np.asarray(jet.grad, dtype=float)
    n = g.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    norm = float(np.linalg.norm(g))
    if norm < grad_floor:
        raise SingularGradientError(
            f"|grad u| = {norm:.3e} below floor {grad_floor:.1e} at {jet.point.tolist()}"
        )
    a = np.asarray(jet.hess, dtype=float)
    sigmas = _sigma_traces(a, k)
    # Newton transformation T_k(A) = sum_{j=0..k} (-1)^j sigma_{k-j}(A) A^j
    t_k = np.zeros_like(a)
    power = np.eye(n)
    for j in range(k + 1):
        t_k = t_k + (-1.0) ** j * sigmas[k - j] * power
        power = power @ a
    quad = float(g @ t_k @ g)
    return (-1.0) ** k * quad / norm ** (k + 2)


def phi_test(jet: PointJet, l: int, grad_floor: float = GRAD_FLOOR) -> float:
    """phi = |grad u|^(l+3) * sigma_{l+1}(principal curvatures), 0 <= l <= n-2.

    The quantity whose sign encodes strict convexity of the level set at
    curvature rank l+1; computed on the eigenvalue route.
    """
    g = np.asarray(jet.grad, dtype=float)
    n = g.shape[0]
    if not 0 <= l <= n - 2:
        raise ValueError(f"l must be in [0, {n - 2}], got {l}")
    norm = float(np.linalg.norm(g))
    if norm < grad_floor:
        raise SingularGradientError(f"|grad u| below floor at {jet.point.tolist()}")
    curvatures = principal_curvatures(jet, grad_floor)
    return norm ** (l + 3) * elementary_symmetric(curvatures, l + 1)


# -- level extraction ---------------------------------------------------------


@dataclass
class LevelSetReport:
    """Extracted level polyline with pointwise curvature."""

    level: float
    points: np.ndarray      # (m+1, 2), closed: last row repeats the first
    kappa: np.ndarray       # (m+1,)
    kappa_min: float
    grad_min: float


def _check_level(f: ScalarField, c: float) -> None:
    """Raise LevelRangeError unless c lies strictly between the boundary
    values (the field's extremes when it has none)."""
    if f.boundary_values is not None:
        lo, hi = sorted(f.boundary_values)
    else:
        lo, hi = float(f.values.min()), float(f.values.max())
    if not lo < c < hi:
        raise LevelRangeError(f"level {c} outside the open range ({lo}, {hi})")


def extract_level(f: ScalarField, c: float,
                  grad_floor: float = GRAD_FLOOR) -> LevelSetReport:
    """Trace the level set {u = c} through the grid.

    Finds in every theta column the unique radial edge where u crosses c
    (linear interpolation in s), and evaluates curvature from the
    linearly interpolated covariant jet.  The returned polyline is ordered by
    theta and closed.
    """
    _check_level(f, c)
    grid = f.grid
    d = f.values - c
    crosses = d[:-1] * d[1:] <= 0
    # an exact hit at node i > 0 shows up in edges i-1 and i; keep edge i-1
    crosses[1:] &= d[1:-1] != 0
    counts = crosses.sum(axis=0)
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        raise TopologyError(f"level {c} crosses theta column {bad[0]} {counts[bad[0]]} times")

    cols = np.arange(grid.ntheta)
    i = np.argmax(crosses, axis=0)
    denom = d[i, cols] - d[i + 1, cols]
    t = np.divide(d[i, cols], denom, out=np.zeros(grid.ntheta), where=denom != 0)
    pts = grid.map_point(grid.s[i] + t * grid.hs, grid.theta)
    table = f.jet_table()
    tg, th = t[:, None], t[:, None, None]
    grad = (1 - tg) * table["grad"][i, cols] + tg * table["grad"][i + 1, cols]
    hess = (1 - th) * table["hess"][i, cols] + th * table["hess"][i + 1, cols]
    kap = _level_forms(pts, grad, hess, grad_floor)[:, 0, 0]
    pts = np.vstack([pts, pts[:1]])
    kap = np.append(kap, kap[0])
    return LevelSetReport(
        level=float(c), points=pts, kappa=kap, kappa_min=float(np.min(kap)),
        grad_min=float(np.min(np.sqrt(_dot(grad, grad)))),
    )


# -- rank scans ---------------------------------------------------------------


@dataclass
class RankScan:
    """Curvature-rank census over a set of sample jets."""

    samples: int
    min_rank: int
    max_rank: int
    lambda_min: float
    location: np.ndarray
    threshold: float

    @property
    def constant_rank(self) -> bool:
        return self.min_rank == self.max_rank


def rank_scan(source, levels: Sequence[float] | None = None,
              rank_threshold: float | None = None,
              points: np.ndarray | None = None,
              grad_floor: float = GRAD_FLOOR) -> RankScan:
    """Count principal curvatures above a threshold across many samples.

    ``source`` is either a :class:`ScalarField` (samples every interior node,
    optionally restricted to nodes whose value lies inside the band spanned
    by ``levels``) or a callable ``x -> PointJet`` (requires ``points``).
    The default threshold is 10 h^2 for fields and 1e-8 for analytic jets.
    """
    if isinstance(source, ScalarField):
        grid = source.grid
        if rank_threshold is None:
            rank_threshold = 10.0 * grid.max_spacing**2
        table = source.jet_table()
        keep = np.ones((grid.ns - 2, grid.ntheta), dtype=bool)
        if levels is not None:
            value = table["value"][1:-1]
            keep = (min(levels) <= value) & (value <= max(levels))
        points, grad, hess = (a[1:-1][keep] for a in (grid.nodes, table["grad"], table["hess"]))
    else:
        if points is None:
            raise ValueError("analytic source needs explicit sample points")
        if rank_threshold is None:
            rank_threshold = 1e-8
        jets = [source(np.asarray(p, dtype=float)) for p in points]
        points, grad, hess = (np.array([getattr(jet, key) for jet in jets], dtype=float)
                              for key in ("point", "grad", "hess"))
    if len(points) == 0:
        raise ValueError("rank scan has no sample points")

    eigs = np.linalg.eigvalsh(_level_forms(points, grad, hess, grad_floor))
    ranks = np.sum(eigs > rank_threshold, axis=-1)
    k = int(np.argmin(eigs[:, 0]))
    return RankScan(
        samples=len(eigs), min_rank=int(ranks.min()), max_rank=int(ranks.max()),
        lambda_min=float(eigs[k, 0]), location=points[k], threshold=float(rank_threshold),
    )


# -- structure condition ------------------------------------------------------


@dataclass
class StructureReport:
    """Pointwise PSD test of M = 2 H Hess(H) - 3 dH x dH - 4 eps H^2 I."""

    points_checked: int
    passed: bool
    min_eigenvalue: float
    worst_point: np.ndarray
    per_point: list[float]


def fd_scalar_sampler(fn: Callable[[np.ndarray], float], step: float = 1e-5):
    """Wrap a plain callable into a (value, grad, hess) sampler by central
    differences, for use where analytic derivatives are not available."""

    def sampler(x: np.ndarray):
        x = np.asarray(x, dtype=float)
        n = x.shape[0]
        value = float(fn(x))
        grad = np.empty(n)
        hess = np.empty((n, n))
        for a in range(n):
            xp, xm = x.copy(), x.copy()
            xp[a] += step
            xm[a] -= step
            grad[a] = (fn(xp) - fn(xm)) / (2 * step)
            hess[a, a] = (fn(xp) - 2 * value + fn(xm)) / step**2
        for a in range(n):
            for b in range(a + 1, n):
                xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
                xpp[[a, b]] += step
                xmm[[a, b]] -= step
                xpm[a] += step
                xpm[b] -= step
                xmp[a] -= step
                xmp[b] += step
                hess[a, b] = hess[b, a] = (
                    fn(xpp) - fn(xpm) - fn(xmp) + fn(xmm)
                ) / (4 * step**2)
        return value, grad, hess

    return sampler


def structure_condition_check(h_sampler, chart: SpaceFormChart,
                              points: np.ndarray,
                              psd_tol: float = 1e-10) -> StructureReport:
    """Check 3 H_a H_b + 4 eps H^2 delta_ab <= 2 H H_{;ab} pointwise.

    ``h_sampler(x)`` must return (H, dH, d2H) in chart coordinates; the
    covariant correction and frame rescaling happen here.  The condition is
    evaluated as positive semidefiniteness of

        M = 2 H Hess(H) - 3 grad H x grad H - 4 eps H^2 I

    and a point passes when the smallest eigenvalue of M is >= -psd_tol.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    eps = chart.epsilon
    eye = np.eye(chart.dim)
    margins: list[float] = []
    worst = pts[0]
    lam_min = np.inf
    for x in pts:
        value, dh, d2h = h_sampler(x)
        grad, hess = frame_components(chart, x, dh, d2h)
        m = 2.0 * value * hess - 3.0 * np.outer(grad, grad) - 4.0 * eps * value**2 * eye
        lam = float(np.linalg.eigvalsh(m)[0])
        margins.append(lam)
        if lam < lam_min:
            lam_min = lam
            worst = x
    return StructureReport(
        points_checked=len(pts),
        passed=bool(lam_min >= -psd_tol),
        min_eigenvalue=lam_min,
        worst_point=np.asarray(worst),
        per_point=margins,
    )
