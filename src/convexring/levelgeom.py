"""Level-set geometry of scalar fields: curvature, sigma_k, rank, structure.

Two independent computational routes to the elementary symmetric functions of
the level-set principal curvatures are kept deliberately separate:

* :func:`second_fundamental_form` builds h_ij = -u_{;ij}/|grad u| in an
  adapted tangent frame and exposes its eigenvalues (the principal
  curvatures of the level set with respect to the normal grad u / |grad u|).
  This frame route evaluates stacked jets over leading axes as elementwise
  arithmetic on the component arrays of grad u, D2u and the tangent vectors,
  for every dimension alike, so :func:`extract_level` makes one call and
  :func:`rank_scan` one per block of ``ring._BLOCK`` samples.  In dimension 2
  the one tangent is the unit normal turned by a right angle; from dimension
  3 up the frame is Gram-Schmidt from coordinate axes ranked by |nu_a|.  A
  1x1 form's entry is its eigenvalue; only 2x2 forms (dimension 3) go
  through ``eigvalsh``.  :func:`extract_level` gathers the jets at the two
  ends of each crossing edge by flat node index from the jet table's
  component arrays, and bounds its search by the field's row extremes.
* :func:`sigma_k_level` never touches the tangent frame: it contracts the
  gradient with the Newton transformation of the full covariant Hessian,

      sigma_k[level] = (-1)^k  g^T T_k(D2u) g / |g|^(k+2),

  where T_k(A) = sum_{j<=k} (-1)^j sigma_{k-j}(A) A^j and the sigma_j(A) come
  from trace identities, not eigenvalues.

The sigma_k route stays scalar (one jet per call) and separate: agreement of
the two routes is a nontrivial identity enforced by the test suite; do not
collapse them into one implementation.

Analytic jets are stacked too: samplers take points (..., n), and the rank and
structure checks make one sampler call each; the structure check makes one
stacked ``eigvalsh`` of its n x n matrices.

Every level-set quantity needs |grad u| >= GRAD_FLOOR; below it the functions
here raise SingularGradientError naming the point.  The floor is one constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod
from typing import Any, Callable, Sequence

import numpy as np

from . import ring
from .field import ScalarField
from .ring import AnnularGrid
from .spaceform import PointJet, SpaceFormChart, _real, covariant_jet

GRAD_FLOOR = 1e-8
FD_STEP = 1e-5    # central-difference step of fd_scalar_sampler
PSD_TOL = 1e-10   # smallest eigenvalue structure_condition_check accepts is -PSD_TOL


class SingularGradientError(ValueError):
    """|grad u| fell below the floor where a level-set frame was needed."""


class LevelRangeError(ValueError):
    """Requested level value is not strictly between the boundary values."""


class TopologyError(RuntimeError):
    """A level curve failed to cross each radial grid line exactly once."""


# -- frames and curvature -----------------------------------------------------


def _inner(a: list, b: list) -> np.ndarray:
    """sum_c a[c] * b[c] of two vectors given as component lists."""
    out = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        out = out + x * y
    return out


def _tangent_frame(nu: list) -> list[list]:
    """Orthonormal tangent bases of unit normals, as components.

    ``nu`` holds the n component arrays of the unit normals.  Returns n-1
    orthonormal tangent vectors, each a list of n component arrays.

    In dimension 2 the tangent is the normal turned by a right angle,
    (-nu_1, nu_0).  From dimension 3 up the frame is Gram-Schmidt seeded from
    coordinate axes, taken in order of increasing |nu_a|, ties to the lowest
    index, which makes the frame deterministic: the rank of axis a counts the
    axes b before it, those with |nu_b| < |nu_a|, or |nu_b| == |nu_a| and
    b < a.  Level forms are quadratic in each tangent, so a tangent's sign
    changes none of them.
    """
    n = len(nu)
    if n == 2:
        return [[-nu[1], nu[0]]]
    mag = [np.abs(c) for c in nu]
    rank = [sum((mag[b] <= mag[a]) if b < a else (mag[b] < mag[a]) for b in range(n) if b != a)
            for a in range(n)]
    frame: list[list] = []
    for k in range(n - 1):
        v = [r == k for r in rank]  # the axis of rank k, e_a as booleans
        for t in [nu, *frame]:
            d = _inner(v, t)
            v = [x - d * y for x, y in zip(v, t)]
        norm = np.sqrt(_inner(v, v))
        if np.any(norm < 1e-12):
            raise SingularGradientError("degenerate tangent frame")
        frame.append([x / norm for x in v])
    return frame


def _level_forms(points: np.ndarray, grad: np.ndarray,
                 hess: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """h = -T D2u T^T / |grad u| over leading axes, T the tangent frames, and
    |grad u|; elementwise on the component arrays of grad u and D2u.

    Returns h (..., n-1, n-1), symmetrised, and |grad u| (...).  Raises
    SingularGradientError naming the first point, in C order, where |grad u|
    is below the floor."""
    n = grad.shape[-1]
    g = [grad[..., a] for a in range(n)]
    norm = np.sqrt(_inner(g, g))
    low = np.flatnonzero(norm < GRAD_FLOOR)
    if low.size:
        point = np.reshape(points, (norm.size, -1))[low[0]].tolist()
        raise SingularGradientError(
            f"|grad u| = {norm.flat[low[0]]:.3e} below floor {GRAD_FLOOR:.1e} at {point}")
    frame = _tangent_frame([c / norm for c in g])
    rows = [[hess[..., a, b] for b in range(n)] for a in range(n)]
    hess_t = [[_inner(row, t) for row in rows] for t in frame]
    q = [[_inner(s, w) for w in hess_t] for s in frame]  # q[i][j] = t_i . D2u t_j
    h = np.empty(np.shape(norm) + (n - 1, n - 1))
    for i in range(n - 1):
        h[..., i, i] = -q[i][i] / norm
        for j in range(i):
            h[..., i, j] = h[..., j, i] = -0.5 * (q[i][j] + q[j][i]) / norm
    return h, norm


def _curvatures(h: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of stacked forms; a 1x1 form's entry is its own."""
    return h[..., 0] if h.shape[-1] == 1 else np.linalg.eigvalsh(h)


def second_fundamental_form(jet: PointJet) -> np.ndarray:
    """h_ij = -u_{;ij} / |grad u| on the tangent space of the level set.

    Eigenvalues are the principal curvatures with respect to the unit normal
    grad u / |grad u|; they are positive when the level set is convex toward
    increasing u.
    """
    return _level_forms(jet.point, np.asarray(jet.grad, dtype=float),
                        np.asarray(jet.hess, dtype=float))[0]


def principal_curvatures(jet: PointJet) -> np.ndarray:
    """Sorted eigenvalues of the second fundamental form."""
    return _curvatures(second_fundamental_form(jet))


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


def sigma_k_level(jet: PointJet, k: int) -> float:
    """k-th elementary symmetric function of the level-set curvatures,
    evaluated through the full covariant Hessian (no tangent frame).

    Valid for 1 <= k <= n-1.
    """
    g = np.asarray(jet.grad, dtype=float)
    if g.ndim != 1:
        raise ValueError(f"sigma_k_level takes one jet, got a stack of shape {g.shape[:-1]}")
    n = g.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    norm = float(np.linalg.norm(g))
    if norm < GRAD_FLOOR:
        raise SingularGradientError(
            f"|grad u| = {norm:.3e} below floor {GRAD_FLOOR:.1e} at {jet.point.tolist()}"
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


def phi_test(jet: PointJet, l: int) -> float:
    """phi = |grad u|^(l+3) * sigma_{l+1}(principal curvatures), 0 <= l <= n-2.

    The quantity whose sign encodes strict convexity of the level set at
    curvature rank l+1; computed on the eigenvalue route.
    """
    g = np.asarray(jet.grad, dtype=float)
    if g.ndim != 1:
        raise ValueError(f"phi_test takes one jet, got a stack of shape {g.shape[:-1]}")
    n = g.shape[0]
    if not 0 <= l <= n - 2:
        raise ValueError(f"l must be in [0, {n - 2}], got {l}")
    h, norm = _level_forms(jet.point, g, np.asarray(jet.hess, dtype=float))
    return float(norm) ** (l + 3) * elementary_symmetric(_curvatures(h), l + 1)


# -- level extraction ---------------------------------------------------------


@dataclass
class LevelSetReport:
    """Extracted level polyline with pointwise curvature."""

    level: float
    points: np.ndarray      # (m+1, 2), closed: last row repeats the first
    kappa: np.ndarray       # (m+1,)
    kappa_min: float
    grad_min: float


def _check_level(f: ScalarField, c: float) -> float:
    """c as a float; LevelRangeError unless it lies strictly between the
    boundary values (the field's extremes when it has none)."""
    c = _real(c, "level")
    if f.boundary_values is not None:
        lo, hi = sorted(f.boundary_values)
    else:
        lo, hi = float(f._row_extremes[0].min()), float(f._row_extremes[1].max())
    if not lo < c < hi:
        raise LevelRangeError(f"level {c} outside the open range ({lo}, {hi})")
    return c


def _crossings(v: np.ndarray, c: float, lo: np.ndarray,
               hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, t): in each column j of ``v`` the edge i, between rows i and i+1,
    where the values cross c, and its fraction t in [0, 1]; TopologyError
    unless every column crosses exactly once.

    ``lo`` and ``hi`` are the least and the greatest value of each row of
    ``v``.  Reads only the band of rows the level can cross: edge i crosses in
    no column unless c lies between the least and the greatest value of rows
    i and i+1, so the masks cover the edges from the first such edge to the
    last, not the grid."""
    # some edge is a candidate: c lies between a value of one row and a
    # value of another (the boundary values, or the field's extremes)
    edges = np.flatnonzero((np.minimum(lo[:-1], lo[1:]) <= c) & (c <= np.maximum(hi[:-1], hi[1:])))
    a, b = edges[0], edges[-1] + 1
    above, below = v[a:b + 1] > c, v[a:b + 1] < c
    # edge i crosses when node i lies strictly on one side of c and node i+1
    # does not: an exact hit at node i > 0 belongs to edge i-1 alone, and one
    # at node 0 to edge 0
    crosses = (above[:-1] & ~above[1:]) | (below[:-1] & ~below[1:])
    if a == 0:
        crosses[0] |= ~(above[0] | below[0])
    counts = crosses.sum(axis=0)
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        raise TopologyError(f"level {c} crosses theta column {bad[0]} {counts[bad[0]]} times")

    # one crossing per column, so the largest marked band row is that one
    i = a + (crosses * np.arange(b - a)[:, None]).max(axis=0)
    cols = np.arange(v.shape[1])
    d_lo, d_hi = v[i, cols] - c, v[i + 1, cols] - c
    denom = d_lo - d_hi
    return i, np.divide(d_lo, denom, out=np.zeros(len(cols)), where=denom != 0)


def extract_level(f: ScalarField, c: float) -> LevelSetReport:
    """Trace the level set {u = c} through the grid.

    Finds in every theta column the unique radial edge where u crosses c
    (linear interpolation in s), searching only the band of rows whose
    values bracket c (the field's row extremes bound it), and evaluates
    curvature from the linearly interpolated covariant jet.  The jet is
    gathered by flat node index k = i * ntheta + j from the table's component
    arrays, grad (2, ns * ntheta) and hess (4, ns * ntheta), and interpolated
    component by component.  The returned polyline is ordered by theta and
    closed.
    """
    c = _check_level(f, c)
    grid = f.grid
    i, t = _crossings(f.values, c, *f._row_extremes)
    # rows 0 and ns - 1 are the boundary curves' points at grid.theta
    pts = ring._blend(grid.s[i] + t * grid.hs, grid.nodes[0], grid.nodes[-1])
    table = f.jet_table()
    # the component arrays under the table's views, node axes flattened
    grad_c = np.moveaxis(table["grad"], -1, 0).reshape(2, -1)
    hess_c = np.moveaxis(table["hess"], (-2, -1), (0, 1)).reshape(4, -1)
    k = i * grid.ntheta + np.arange(grid.ntheta)
    grad = (1 - t) * grad_c[:, k] + t * grad_c[:, k + grid.ntheta]
    hess = (1 - t) * hess_c[:, k] + t * hess_c[:, k + grid.ntheta]
    h, norm = _level_forms(pts, grad.T, np.moveaxis(hess.reshape(2, 2, -1), -1, 0))
    kap = h[:, 0, 0]
    pts = np.vstack([pts, pts[:1]])
    kap = np.append(kap, kap[0])
    return LevelSetReport(
        level=c, points=pts, kappa=kap, kappa_min=float(np.min(kap)),
        grad_min=float(np.min(norm)),
    )


# -- rank scans ---------------------------------------------------------------


def _noise_floor(grid: AnnularGrid) -> float:
    """10 h^2, h the grid's largest spacing: the discretisation noise floor of
    second-order stencils on ``grid``."""
    return 10.0 * grid.max_spacing**2


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


def rank_scan(source: ScalarField | PointJet) -> RankScan:
    """Count principal curvatures above a threshold across many samples.

    ``source`` is either a :class:`ScalarField` (samples every interior node,
    threshold 10 h^2 with h the grid's largest spacing) or a stacked analytic
    :class:`PointJet` (samples every point of the stack, threshold 1e-8).
    Samples are taken in C order, in blocks of ``ring._BLOCK`` samples that
    keep the level forms' temporaries in cache, and each block is reduced as
    it is done: the scan keeps the least and greatest rank and the least of
    the smallest curvatures, never an array over every sample.
    ``location`` is the first sample where the smallest curvature is lowest
    (a NaN counts as lowest, as ``np.argmin`` takes it), and a
    SingularGradientError names the first sample below the gradient floor.
    """
    if isinstance(source, ScalarField):
        threshold = _noise_floor(source.grid)
        table = source.jet_table()
        points, grad, hess = (a[1:-1] for a in (source.grid.nodes, table["grad"], table["hess"]))
    else:
        threshold = 1e-8
        points, grad, hess = (np.asarray(getattr(source, key), dtype=float)
                              for key in ("point", "grad", "hess"))
    n = points.shape[-1]
    points, grad, hess = points.reshape(-1, n), grad.reshape(-1, n), hess.reshape(-1, n, n)
    if len(points) == 0:
        raise ValueError("rank scan has no sample points")

    min_rank, max_rank, least, k = n, 0, None, 0
    for b in range(0, len(points), ring._BLOCK):
        block = slice(b, b + ring._BLOCK)
        eigs = _curvatures(_level_forms(points[block], grad[block], hess[block])[0])
        ranks = np.sum(eigs > threshold, axis=-1)
        min_rank, max_rank = min(min_rank, int(ranks.min())), max(max_rank, int(ranks.max()))
        # the first sample where the smallest curvature is lowest, a NaN
        # before any number, as np.argmin over every sample would take it
        j = int(np.argmin(eigs[:, 0]))
        low = eigs[j, 0]
        if least is None or low < least or (np.isnan(low) and not np.isnan(least)):
            least, k = low, b + j
    return RankScan(
        samples=len(points), min_rank=min_rank, max_rank=max_rank,
        lambda_min=float(least), location=points[k].copy(), threshold=float(threshold),
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


def fd_scalar_sampler(fn: Callable[[np.ndarray], np.ndarray]):
    """Wrap a plain function of points (..., n) -> values (...) into a
    (value, grad, hess) sampler by central differences of step FD_STEP, for
    use where analytic derivatives are not available.  ``fn`` is called once
    per stencil offset, with every point shifted at once."""

    def sampler(x: np.ndarray):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        e = FD_STEP * np.eye(n)
        value = np.asarray(fn(x), dtype=float)
        grad = np.empty(x.shape)
        hess = np.empty(x.shape + (n,))
        for a in range(n):
            fp, fm = fn(x + e[a]), fn(x - e[a])
            grad[..., a] = (fp - fm) / (2 * FD_STEP)
            hess[..., a, a] = (fp - 2 * value + fm) / FD_STEP**2
            for b in range(a + 1, n):
                hess[..., a, b] = hess[..., b, a] = (
                    fn(x + e[a] + e[b]) - fn(x + e[a] - e[b])
                    - fn(x - e[a] + e[b]) + fn(x - e[a] - e[b])
                ) / (4 * FD_STEP**2)
        return value[()], grad, hess

    return sampler


def structure_condition_check(h_sampler, chart: SpaceFormChart,
                              points: np.ndarray) -> StructureReport:
    """Check 3 H_a H_b + 4 eps H^2 delta_ab <= 2 H H_{;ab} pointwise.

    ``points`` (..., n) are flattened to (m, n), and ``h_sampler(x)`` is called
    once with all of them.  It returns (H, dH, d2H) in chart coordinates as
    :func:`covariant_jet` describes, which applies the covariant correction
    and the frame rescaling.  The condition is evaluated as positive
    semidefiniteness of

        M = 2 H Hess(H) - 3 grad H x grad H - 4 eps H^2 I

    and a point passes when the smallest eigenvalue of M is >= -PSD_TOL.
    """
    pts = np.reshape(chart.validate_points(points), (-1, chart.dim))
    jet = covariant_jet(chart, h_sampler, pts)
    h = jet.value[:, None, None]
    m = (2.0 * h * jet.hess - 3.0 * (jet.grad[:, :, None] * jet.grad[:, None, :])
         - 4.0 * chart.epsilon * h**2 * np.eye(chart.dim))
    margins = np.linalg.eigvalsh(m)[:, 0]
    worst = int(np.argmin(margins))
    return StructureReport(
        points_checked=len(margins),
        passed=bool(margins[worst] >= -PSD_TOL),
        min_eigenvalue=float(margins[worst]),
        worst_point=jet.point[worst],
        per_point=margins.tolist(),
    )
