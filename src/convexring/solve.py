"""Solvers for the minimal graph equation on an annular grid.

The chart form of the equation is conservative,

    d/dx_a ( du/dx_a / W ) = lambda^2 H(x),
    W = sqrt(1 + lambda^(-2) |Du|^2),

in two dimensions, with H = 0 for minimal graphs (the left side is -lambda^2
times the mean curvature of the graph).  Discretization is conservative flux
differencing on the mapped grid: fluxes live on cell faces, face gradients
come from compact stencils pushed through the analytic blend-map Jacobian,
and the divergence is taken back at nodes.  One table, ``_FACE_STENCILS``,
states every face stencil, and one rule, ``_DIVERGENCE``, maps faces onto
nodes; the residual applies both to the values, and the exact Jacobian is
their chain rule through the flux derivative dA/dp = I/W - lambda^(-2) p p^T / W^3.

Newton's method takes damped line-search steps as a chord (Shamanskii)
method (Kelley 2003): a factorised Jacobian is reused for the next step, and
refactored at the current iterate once an accepted step keeps more than
``CHORD_CONTRACTION`` of the max residual or needs backtracking.  Without an
initializer, a grid that coarsens (odd ns, even ntheta, every other node
still a grid of at least ``COARSEST_GRID``) starts from the prolonged Newton
iterate of that coarse grid (nested iteration, Brandt 1977); coarse levels get
no field or report, and only the coarsest starts from the harmonic field.
The prolongation takes 4-point cubic midpoints, an interpolation of higher
order than the second-order scheme as full multigrid asks: linear midpoints
leave an O(h^2) value error that the h^-2-scaled residual turns into an O(1)
start residual (1.5-1.8 on every level of the README ring at tau = 1), and
cost the finest level a second factorisation.

Every linear system is solved by one sparse LU factorisation (SuperLU) of
the Jacobian assembled in a nested-dissection order of the interior nodes
(George 1973), so SuperLU runs no ordering of its own and keeps only its
threshold row pivoting.  The face geometry, the order and the Jacobian's
sparsity pattern depend only on the grid; they are built on first use and
cached per grid, so each factorisation only refills the matrix values.
The factors are float32, half the bytes of float64 ones, while every
residual, iterate and tolerance stays float64: the chord method's float64
residual corrects the low-precision step as mixed-precision iterative
refinement does (Buttari et al. 2007; Carson & Higham 2018); the harmonic
field is that chord loop on the linear W = 1 operator, which factors once.

Dirichlet rows (s = 0 outer, s = 1 inner) are never touched by the solvers.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .field import ScalarField, _grad_norms
from .levelgeom import SingularGradientError, TopologyError, extract_level
from .ring import AnnularGrid
from .spaceform import _real, _whole, conformal_factor

# absolute max-norm residual the one-shot harmonic solve must reach
# (or options.newton_tol, when that is looser)
HARMONIC_RESIDUAL_TOL = 1e-9
# a chord step keeps the last LU only while accepted steps shrink the max
# residual at least this much (r_new <= CHORD_CONTRACTION * r_old) at full step
CHORD_CONTRACTION = 0.1
# smallest (ns, ntheta) the nested start coarsens to
COARSEST_GRID = (17, 16)
# nested dissection stops at blocks of at most this many interior nodes
_ND_LEAF = 16


class SolverError(RuntimeError):
    """Structural failure: bad options, singular linear system, or a
    violated post condition."""


class ContinuationError(RuntimeError):
    """tau-continuation could not reach a target; carries the partial trace."""

    def __init__(self, message: str, trace: "ContinuationTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass
class SolveOptions:
    newton_tol: float = 1e-10          # on the max-norm of the nodal residual
    max_newton: int = 50
    min_step: float = 2.0**-20         # line-search floor

    def __post_init__(self):
        try:
            self.newton_tol = _real(self.newton_tol, "newton_tol")
            self.min_step = _real(self.min_step, "min_step")
            self.max_newton = _whole(self.max_newton, "max_newton")
        except ValueError as exc:
            raise SolverError(str(exc)) from None
        for name, value in (("newton_tol", self.newton_tol), ("min_step", self.min_step)):
            if not value > 0.0:
                raise SolverError(f"{name} must be positive, got {value}")
        if self.max_newton < 1:
            raise SolverError(f"max_newton must be >= 1, got {self.max_newton}")


@dataclass
class SolveReport:
    converged: bool
    newton_iterations: int
    final_residual_max: float
    tau: float
    min_gradient_norm: float
    wall_time: float
    lu_fill: int  # L+U nonzeros of the last Newton factorisation (float32); 0 if none ran
    # every LU factorisation of the call: Newton, coarse levels and harmonic start
    factorizations: int


@dataclass
class StepRecord:
    """One accepted continuation step with its convexity diagnostics."""

    tau: float
    report: SolveReport
    field: ScalarField
    min_level_curvature: float
    outer_boundary_min_gradient: float


@dataclass
class ContinuationTrace:
    steps: list[StepRecord] = dc_field(default_factory=list)

    @property
    def tau_schedule(self) -> list[float]:
        return [s.tau for s in self.steps]

    @property
    def final_field(self) -> ScalarField | None:
        return self.steps[-1].field if self.steps else None


# -- discrete operator --------------------------------------------------------

# The one statement of the face stencils, per normal axis (0: s-faces
# (i+1/2, j), 1: theta-faces (i, j+1/2), both with base node (i, j)).  Entry
# (k, (a, b), c) adds c / h_k * v[i+a, j+b] to the face derivative u_k
# (u_0 = u_s, u_1 = u_t); the residual applies it to values, the Jacobian to
# flux sensitivities.
_FACE_STENCILS = (
    ((0, (1, 0), 1.0), (0, (0, 0), -1.0),
     (1, (0, 1), 0.25), (1, (1, 1), 0.25), (1, (0, -1), -0.25), (1, (1, -1), -0.25)),
    ((1, (0, 0), -1.0), (1, (0, 1), 1.0),
     (0, (1, 0), 0.25), (0, (1, 1), 0.25), (0, (-1, 0), -0.25), (0, (-1, 1), -0.25)),
)
# The divergence rule: the face at node n enters row n with +1/h_normal and
# row n + e_normal with -1/h_normal, as (sign, e) pairs per normal axis.
_DIVERGENCE = tuple(((1.0, (0, 0)), (-1.0, e)) for e in ((1, 0), (0, 1)))
# s-faces sit between every pair of rows, theta-faces on interior rows only:
# the base row of each family's first face
_FIRST_ROW = (0, 1)


def _window(x: np.ndarray, start: int, rows: int, b: int) -> np.ndarray:
    """x[start + r, j + b] for r < rows and every j, periodic in theta."""
    x = x[start:start + rows]
    return x if b == 0 else np.roll(x, -b, axis=1)


def _dissection_blocks(rows: int, ntheta: int) -> list[tuple[int, int, int, int]]:
    """Nested-dissection order of a (rows, ntheta) node grid, periodic in
    theta, as blocks (first row, first column, height, width) whose nodes
    follow each other row-major.

    Column 0 cuts the ring open and comes last.  The open strip is bisected
    recursively across its longer side by one middle column or row, which
    comes after both halves; blocks of at most ``_ND_LEAF`` nodes are
    leaves.  One line separates because the 9-point stencil couples a node
    only to its (+-1, +-1) neighbours (George 1973; Lipton, Rose & Tarjan
    1979)."""
    blocks = []

    def dissect(r0, c0, h, w):
        if h <= 0 or w <= 0:
            return
        if h * w <= _ND_LEAF:
            blocks.append((r0, c0, h, w))
        elif w >= h:
            half = w // 2
            dissect(r0, c0, h, half)
            dissect(r0, c0 + half + 1, h, w - half - 1)
            blocks.append((r0, c0 + half, h, 1))
        else:
            half = h // 2
            dissect(r0, c0, half, w)
            dissect(r0 + half + 1, c0, h - half - 1, w)
            blocks.append((r0 + half, c0, 1, w))

    dissect(0, 1, rows, ntheta - 1)
    blocks.append((0, 0, rows, 1))
    return blocks


def _nested_dissection(rows: int, ntheta: int) -> np.ndarray:
    """The row-major index of the node at each place of the
    ``_dissection_blocks`` order."""
    r0, c0, h, w = (np.array(x) for x in zip(*_dissection_blocks(rows, ntheta)))
    size = h * w
    block = np.repeat(np.arange(size.size), size)
    k = np.arange(rows * ntheta) - np.repeat(np.cumsum(size) - size, size)
    return (r0[block] + k // w[block]) * ntheta + c0[block] + k % w[block]


class _Assembler:
    """Face geometry, flux and Jacobian assembly for one grid.

    Each face family only needs its normal flux component
    g = det (G d)_normal / W, with d = (u_s, u_t) from ``_FACE_STENCILS``
    and G = J^{-1} J^{-T} the contravariant metric of the blend map.  The
    residual is the ``_DIVERGENCE`` rule applied to g, and the Jacobian is
    its chain rule: the same rule applied to dg/du_k times the same stencil
    coefficients, so every face stencil is written once.  The residual's
    ``linear=True`` freezes W = 1, which is the harmonic (conformal Laplace)
    operator; its Jacobian is ``jacobian`` at zero gradient, where W = 1.
    Use :func:`_assembler` for the cached instance of a grid.

    The assembler keeps no reference to its grid: it is the value of a
    weak-key cache keyed by the grid, and a reference back would keep every
    grid alive.
    """

    def __init__(self, grid: AnnularGrid):
        self.ns, self.ntheta = grid.ns, grid.ntheta
        self.h = (grid.hs, grid.htheta)
        # face geometry by normal axis
        self._faces = (
            self._face_geometry(grid, grid.s[:-1, None] + 0.5 * grid.hs, grid.theta),
            self._face_geometry(grid, grid.s[1:-1, None], grid.theta + 0.5 * grid.htheta),
        )
        # node data on interior rows
        _, _, self.det_node = grid._jacobian(grid.s[1:-1, None], grid.theta)
        self.lam2_node = conformal_factor(grid.ring.chart, grid.nodes[1:-1]) ** 2

    @staticmethod
    def _face_geometry(grid, s, theta):
        ((a, b), (c, d)), det = grid._jacobian_inverse(s, theta)
        lam = conformal_factor(grid.ring.chart, grid.map_point(s, theta))
        g01 = a * c + b * d
        metric = ((a * a + b * b, g01), (g01, c * c + d * d))
        return {"det": det, "G": metric, "inv_lam2": 1.0 / (lam * lam)}

    def _gradients(self, v, normal):
        """Face derivatives (u_s, u_t) on the faces of one normal axis."""
        first = _FIRST_ROW[normal]
        rows = self.ns - 1 - first
        acc = np.zeros((2, rows, self.ntheta))
        for k, (a, b), c in _FACE_STENCILS[normal]:
            acc[k] += c * _window(v, first + a, rows, b)
        return acc[0] / self.h[0], acc[1] / self.h[1]

    def _faces_at(self, x, normal, a, b):
        """Face array x of one normal axis at base nodes (i+a, j+b), i interior."""
        return _window(x, 1 + a - _FIRST_ROW[normal], self.ns - 2, b)

    def _face_terms(self, normal, u_s, u_t, linear):
        """Face geometry, G d and 1/W on the faces of one normal axis."""
        geo = self._faces[normal]
        q = tuple(ga[0] * u_s + ga[1] * u_t for ga in geo["G"])
        if linear:
            return geo, q, 1.0
        return geo, q, 1.0 / np.sqrt(1.0 + (u_s * q[0] + u_t * q[1]) * geo["inv_lam2"])

    def _flux(self, normal, u_s, u_t, linear):
        """Normal face flux g = det (G d)_normal / W."""
        geo, q, w_inv = self._face_terms(normal, u_s, u_t, linear)
        return geo["det"] * w_inv * q[normal]

    def _sensitivity(self, normal, u_s, u_t):
        """(dg/du_s, dg/du_t) = det (G_nk / W - (G d)_n (G d)_k / (lambda^2 W^3))."""
        geo, q, w_inv = self._face_terms(normal, u_s, u_t, False)
        row = geo["G"][normal]
        c = geo["det"] * w_inv
        d = c * w_inv * w_inv * geo["inv_lam2"] * q[normal]
        return c * row[0] - d * q[0], c * row[1] - d * q[1]

    def residual(self, v: np.ndarray, source: np.ndarray | None = None,
                 linear: bool = False) -> np.ndarray:
        """Nodal residual on interior rows, shape (ns-2, ntheta)."""
        div = 0.0
        for normal in (0, 1):
            g = self._flux(normal, *self._gradients(v, normal), linear)
            div = div + sum(sign * self._faces_at(g, normal, -ea, -eb)
                            for sign, (ea, eb) in _DIVERGENCE[normal]) / self.h[normal]
        r = div / self.det_node
        if source is not None:
            r = r - self.lam2_node * source
        return r

    @cached_property
    def _pattern(self):
        """CSC structure of the Jacobian in nested-dissection order, built
        once per grid.

        Returns (indptr, indices, order, position).  Residual row (i, j)
        couples to the nine nodes (i + a, j + b), a, b in {-1, 0, 1}, and
        ``jacobian`` fills one (3, 3, ns-2, ntheta) table of values indexed by
        (a+1, b+1, i-1, j); ``order`` picks the entries whose column is an
        unknown, in CSC order; ``position`` is the place of each interior
        node (row-major) in the order.
        """
        rows, nt = self.ns - 2, self.ntheta
        n_int = rows * nt
        # place of every node in the order; -1 on the Dirichlet rows
        place = np.full((rows + 2, nt), -1)
        place[1:-1].flat[_nested_dissection(rows, nt)] = np.arange(n_int)
        position = place[1:-1].ravel()
        cols = np.stack([_window(place, 1 + a, rows, b)
                         for a in (-1, 0, 1) for b in (-1, 0, 1)]).ravel()
        unknown = np.flatnonzero(cols >= 0)
        cols = cols[unknown]
        row_of = np.tile(position, 9)[unknown]
        sort = np.argsort(cols * n_int + row_of)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n_int))])
        return indptr.astype(np.int32), row_of[sort].astype(np.int32), unknown[sort], position

    def jacobian(self, v: np.ndarray) -> sp.csc_matrix:
        """Exact Jacobian of the residual w.r.t. interior values.

        The chain rule of ``residual``: for each divergence term (sign, e)
        and stencil entry (k, (a, b), c), row n gains
        sign c / (h_k h_normal) dg/du_k of the face at node n - e, in column
        n - e + (a, b).  Rows and columns are in the nested-dissection
        order of ``_pattern``, so :meth:`newton_step` solves with the factors.
        Every call shares the cached ``indptr`` and ``indices``; only the
        values are new."""
        h = self.h
        vals = np.zeros((3, 3) + self.det_node.shape)  # by column offset (a+1, b+1)
        for normal in (0, 1):
            sens = self._sensitivity(normal, *self._gradients(v, normal))
            for k, (a, b), c in _FACE_STENCILS[normal]:
                for sign, (ea, eb) in _DIVERGENCE[normal]:
                    vals[a - ea + 1, b - eb + 1] += (
                        (sign * c / h[k] / h[normal]) * self._faces_at(sens[k], normal, -ea, -eb))
        vals /= self.det_node
        indptr, indices, order, _ = self._pattern
        n_int = indptr.size - 1
        return sp.csc_matrix((vals.ravel()[order], indices, indptr), shape=(n_int, n_int))

    def newton_step(self, lu, r: np.ndarray) -> np.ndarray:
        """-A^{-1} r on interior rows, shape (ns-2, ntheta), from the factors
        ``lu`` of A = ``jacobian``: the right-hand side goes into the
        nested-dissection order and the step comes back out of it."""
        position = self._pattern[3]
        rhs = np.empty(position.size)
        rhs[position] = -r.ravel()
        return lu.solve(rhs)[position].reshape(r.shape)


_ASSEMBLERS: "weakref.WeakKeyDictionary[AnnularGrid, _Assembler]" = weakref.WeakKeyDictionary()


def _assembler(grid: AnnularGrid) -> _Assembler:
    """The grid's assembler, built on first use and kept while the grid lives."""
    asm = _ASSEMBLERS.get(grid)
    if asm is None:
        asm = _ASSEMBLERS[grid] = _Assembler(grid)
    return asm


class _Factors:
    """float32 SuperLU factors of a float64 matrix, solving in float64.

    The matrix is scaled by the power of two 2^-e that brings its largest
    entry into [1/2, 1) (e from ``np.frexp``), so the float32 cast stays in
    range whatever the size of the ring (entries scale as its length^-2);
    the right-hand side gets the same scale, which leaves the solution
    unchanged, and both scalings are exact.  SuperLU factors one column per
    panel (``panel_size=1``): its panel work arrays grow with the panel
    width, and at one column the factorisation's peak memory is about that
    of the stored factors, for no measurable loss of time."""

    def __init__(self, matrix: sp.csc_matrix):
        _, e = np.frexp(np.max(np.abs(matrix.data)))
        self._scale = np.ldexp(1.0, -e)
        scaled = sp.csc_matrix(((matrix.data * self._scale).astype(np.float32),
                                matrix.indices, matrix.indptr), shape=matrix.shape)
        self._lu = spla.splu(scaled, permc_spec="NATURAL", panel_size=1)
        self.nnz = self._lu.nnz  # L+U nonzeros

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^{-1} rhs for the float64 matrix A, to float32 accuracy."""
        return self._lu.solve((rhs * self._scale).astype(np.float32)).astype(np.float64)


def _factorize(matrix: sp.csc_matrix) -> _Factors:
    """Sparse LU factors of one Jacobian, float32 values under a float64
    ``solve`` (see ``_Factors``).  ``jacobian`` already assembles it in
    nested-dissection order: SuperLU keeps that column order, runs no
    minimum-degree ordering of its own and works one column per panel, so
    its work arrays stay small next to the factors."""
    try:
        return _Factors(matrix)
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"direct linear solve failed: {exc}") from exc


# -- public solvers -----------------------------------------------------------


def _read_tau(tau, what: str = "tau") -> float:
    """tau as a float; ValueError, naming it ``what``, unless a number in (0, 1]."""
    if not 0.0 < (tau := _real(tau, what)) <= 1.0:
        raise ValueError(f"{what} must lie in (0, 1], got {tau}")
    return tau


def solve_harmonic(grid: AnnularGrid, tau: float,
                   options: SolveOptions | None = None) -> ScalarField:
    """Solve the conformal Laplace problem with data 0 outside, tau inside.

    The chord loop on the W = 1 operator, one factorisation, iterated to
    max(newton_tol, HARMONIC_RESIDUAL_TOL) whatever ``options.max_newton``;
    a stall raises SolverError with its best iterate's residual.  The result
    satisfies the discrete maximum principle (values in [0, tau])."""
    tau = _read_tau(tau)
    tol = max((options or SolveOptions()).newton_tol, HARMONIC_RESIDUAL_TOL)
    v = np.zeros((grid.ns, grid.ntheta))
    v[-1] = tau
    v, rmax, *_ = _chord_newton(grid, v, SolveOptions(newton_tol=tol), None, linear=True)
    if rmax > tol:
        raise SolverError(f"harmonic solve left residual max {rmax:.3e}")
    if v.min() < -1e-10 or v.max() > tau + 1e-10:
        raise SolverError("harmonic solution violates the discrete maximum principle")
    return ScalarField(grid=grid, values=v, boundary_values=(0.0, tau))


def minimal_graph_residual(f: ScalarField) -> np.ndarray:
    """Divergence-form residual per node (zero rows for the Dirichlet data).

    This is -lambda^2 times the mean curvature of the graph; it vanishes to
    O(h^2) on samples of an exact minimal graph and to the Newton tolerance
    on converged solver output."""
    out = np.zeros_like(f.values)
    out[1:-1] = _assembler(f.grid).residual(f.values)
    return out


def _coarse_grid(grid: AnnularGrid) -> AnnularGrid | None:
    """The grid on every other node of ``grid``, whose ``refine()`` has the
    nodes of ``grid``; None when ``grid`` does not coarsen to at least
    COARSEST_GRID."""
    if grid.ns % 2 == 0 or grid.ntheta % 2:
        return None
    ns, ntheta = (grid.ns + 1) // 2, grid.ntheta // 2
    if ns < COARSEST_GRID[0] or ntheta < COARSEST_GRID[1]:
        return None
    return AnnularGrid(grid.ring, ns, ntheta)


def _prolong(coarse: np.ndarray, tau: float) -> np.ndarray:
    """Nodal values of the refined grid from those of the coarse one:
    injection at the shared nodes, 4-point cubic midpoints in theta
    (periodic, weights (-1, 9, 9, -1)/16), then in s (the same weights
    inside, one-sided (5, 15, -5, 1)/16 at the first midpoint and its mirror
    at the last), and the Dirichlet rows reset to (0, tau).  Cubic, not
    linear: the O(h^2) value error of linear midpoints becomes an O(1)
    residual under the h^-2 scaling, while the cubic's O(h^4) error leaves
    an O(h^2) one (full-multigrid interpolation, Trottenberg, Oosterlee &
    Schueller 2001, section 2.6); needs at least 4 coarse rows and columns."""
    v = np.empty((2 * coarse.shape[0] - 1, 2 * coarse.shape[1]))
    v[::2, ::2] = coarse
    v[::2, 1::2] = (9.0 * (coarse + np.roll(coarse, -1, axis=1))
                    - np.roll(coarse, 1, axis=1) - np.roll(coarse, -2, axis=1)) / 16.0
    rows = v[::2]
    v[1] = (5.0 * rows[0] + 15.0 * rows[1] - 5.0 * rows[2] + rows[3]) / 16.0
    v[3:-3:2] = (9.0 * (rows[1:-2] + rows[2:-1]) - rows[:-3] - rows[3:]) / 16.0
    v[-2] = (rows[-4] - 5.0 * rows[-3] + 15.0 * rows[-2] + 5.0 * rows[-1]) / 16.0
    v[0], v[-1] = 0.0, tau
    return v


def _chord_newton(grid: AnnularGrid, v: np.ndarray, options: SolveOptions,
                  source: np.ndarray | None, linear: bool = False) -> tuple[np.ndarray, float, int, int, int]:
    """Damped chord Newton from the start values ``v``; returns (iterate, max
    residual, steps, L+U nonzeros of the last factorisation, factorisations).
    Each step reuses the last LU factors; they are rebuilt at the current
    iterate after an accepted step that needed backtracking or kept more than
    CHORD_CONTRACTION of the max residual, and after a step on reused factors
    that the line search rejects.  A rejected step on fresh factors ends it.
    ``linear`` solves the harmonic W = 1 operator (see ``_Assembler``), whose
    matrix never changes: its one set of factors is kept, and any rejected
    step ends the loop."""
    asm = _assembler(grid)
    r = asm.residual(v, source, linear)
    rmax = float(np.max(np.abs(r)))
    iterations = factorizations = lu_fill = 0
    lu = None  # None when the next step must refactor
    while not rmax <= options.newton_tol and iterations < options.max_newton:
        fresh = lu is None
        if fresh:
            lu = _factorize(asm.jacobian(np.zeros_like(v) if linear else v))
            lu_fill = int(lu.nnz)
            factorizations += 1
        delta = asm.newton_step(lu, r)
        # backtracking: accepted steps must strictly decrease the max residual
        alpha = 1.0
        while True:
            trial = v.copy()
            trial[1:-1] += alpha * delta
            r_trial = asm.residual(trial, source, linear)
            rmax_trial = float(np.max(np.abs(r_trial)))
            if rmax_trial < rmax:
                break
            alpha *= 0.5
            if alpha < options.min_step:
                break
        if alpha < options.min_step:
            if fresh or linear:
                break
            lu = None
            continue
        if not linear and (alpha < 1.0 or rmax_trial > CHORD_CONTRACTION * rmax):
            lu = None  # freed before the next factors are built
        v, r, rmax = trial, r_trial, rmax_trial
        iterations += 1
    return v, rmax, iterations, lu_fill, factorizations


def _nested_start(grid: AnnularGrid, tau: float, options: SolveOptions,
                  source: np.ndarray | None) -> tuple[np.ndarray, int]:
    """(start values, factorisations spent): the coarse grid's Newton iterate,
    converged or not, prolonged onto ``grid``, or the harmonic field when the
    grid does not coarsen.  Only the array leaves: the coarse grid and its
    assembler are freed before ``grid`` factors."""
    coarse = _coarse_grid(grid)
    if coarse is None:
        return solve_harmonic(grid, tau, options).values, 1
    if source is not None:
        source = source[1::2, ::2]  # the coarse interior nodes
    v, spent = _nested_start(coarse, tau, options, source)
    v, _, _, _, factorizations = _chord_newton(coarse, v, options, source)
    del coarse
    return _prolong(v, tau), spent + factorizations


def solve_minimal_graph(grid: AnnularGrid, tau: float,
                        options: SolveOptions | None = None,
                        init: ScalarField | None = None,
                        ) -> tuple[ScalarField, SolveReport]:
    """Damped chord Newton for the minimal graph with boundary data (0, tau).

    Starts from ``init``.  Without one, a grid that coarsens starts from
    the prolonged Newton iterate on every other node, converged or not
    (recursively, down to about COARSEST_GRID); otherwise from the harmonic
    field with the same data.  Coarse levels run the Newton loop
    only: the requested grid alone gets a field and a report, and
    ``report.converged`` is False when the residual target was not reached.
    """
    return _solve(grid, tau, options, init, None)


def _solve(grid: AnnularGrid, tau: float, options: SolveOptions | None, init: ScalarField | None,
           source: np.ndarray | None) -> tuple[ScalarField, SolveReport]:
    options = options or SolveOptions()
    tau = _read_tau(tau)
    t0 = time.perf_counter()
    v, spent = (_nested_start(grid, tau, options, source) if init is None
                else (init.values.copy(), 0))
    if v.shape != (grid.ns, grid.ntheta) or not (np.all(v[0] == 0.0) and np.all(v[-1] == tau)):
        raise SolverError(f"initializer must have the grid's shape {(grid.ns, grid.ntheta)} and carry "
                          f"the Dirichlet data (0, tau); got shape {v.shape}")
    v, rmax, iterations, lu_fill, factorizations = _chord_newton(grid, v, options, source)

    f = ScalarField(grid=grid, values=v, boundary_values=(0.0, tau))
    report = SolveReport(
        converged=bool(rmax <= options.newton_tol),
        newton_iterations=iterations,
        final_residual_max=rmax,
        tau=tau,
        min_gradient_norm=float(np.min(_grad_norms(f, slice(1, -1)))),
        wall_time=time.perf_counter() - t0,
        lu_fill=lu_fill,
        factorizations=spent + factorizations,
    )
    return f, report


def solve_prescribed_mean_curvature(grid: AnnularGrid, tau: float,
                                    h_fn: Callable[[np.ndarray], np.ndarray],
                                    options: SolveOptions | None = None,
                                    init: ScalarField | None = None,
                                    ) -> tuple[ScalarField, SolveReport]:
    """Same Newton contract with the source term lambda^2 H(x).

    ``h_fn`` maps an (..., 2) array of chart points to H values.  H = 0
    recovers the minimal graph solve.  Non-solvable data yields a
    non-converged report, not an exception."""
    pts = grid.nodes[1:-1]
    source = np.asarray(h_fn(pts), dtype=float)
    if source.shape != pts.shape[:-1]:
        raise SolverError("H sampler must return one value per interior node")
    return _solve(grid, tau, options, init, source)


def build_supersolution(omega: ScalarField, tau: float) -> ScalarField:
    """Concave reparametrization v = g(omega), g(w) = -w^2/(4 tau) + 5 w / 4.

    g(0) = 0, g(tau) = tau, 3/4 <= g' <= 5/4 on [0, tau], g'' = -1/(2 tau):
    v dominates the minimal graph with the same boundary data."""
    if omega.boundary_values is None or omega.boundary_values != (0.0, float(tau)):
        raise SolverError("supersolution needs the harmonic field with data (0, tau)")
    w = omega.values
    v = -w * w / (4.0 * tau) + 1.25 * w
    v[0] = 0.0
    v[-1] = tau  # g(tau) = tau exactly
    return ScalarField(grid=omega.grid, values=v, boundary_values=(0.0, float(tau)))


def _step_diagnostics(f: ScalarField, tau: float) -> tuple[float, float]:
    """(min level curvature, min outer-boundary |grad u|); the interior
    gradient minimum is already in the solve report."""
    kappa_min = min(extract_level(f, frac * tau).kappa_min for frac in (0.25, 0.5, 0.75))
    return float(kappa_min), float(np.min(_grad_norms(f, 0)))


def continuation_targets(targets: Sequence[float]) -> list[float]:
    """The targets as floats; ValueError unless in (0, 1] and strictly increasing."""
    targets = [_real(t, "tau target") for t in targets]
    if any(not 0.0 < t <= 1.0 for t in targets):
        raise ValueError("targets must lie in (0, 1]")
    if any(b <= a for a, b in zip(targets, targets[1:])):
        raise ValueError("targets must be strictly increasing")
    return targets


def continuation_solve(grid: AnnularGrid, targets: Sequence[float],
                       options: SolveOptions | None = None) -> ContinuationTrace:
    """Predictor-corrector walk up the tau targets (see continuation_targets).

    The schedule is exactly the targets.  The first solve runs from the
    nested start of solve_minimal_graph; later solves start from the
    previous solution rescaled to the new boundary value.  Each tau gets one
    solve with options.max_newton Newton steps: a solve that does not
    converge, or a converged one whose level diagnostics fail, ends the walk
    with a ContinuationError that carries the partial trace."""
    options = options or SolveOptions()
    targets = continuation_targets(targets)
    trace = ContinuationTrace()
    for tau in targets:
        init = None
        if trace.steps:
            prev = trace.steps[-1]
            v = prev.field.values * (tau / prev.tau)
            v[0] = 0.0
            v[-1] = tau
            init = ScalarField(grid=grid, values=v, boundary_values=(0.0, tau))
        f, report = solve_minimal_graph(grid, tau, options=options, init=init)
        if not report.converged:
            raise ContinuationError(
                f"continuation stalled at tau={tau}: max residual "
                f"{report.final_residual_max:.3e} after {report.newton_iterations} "
                f"Newton steps", trace)
        try:
            kappa_min, boundary_grad = _step_diagnostics(f, tau)
        except (TopologyError, SingularGradientError) as exc:
            raise ContinuationError(
                f"step diagnostics failed at tau={tau}: {exc}", trace) from exc
        trace.steps.append(StepRecord(
            tau=tau, report=report, field=f,
            min_level_curvature=kappa_min,
            outer_boundary_min_gradient=boundary_grad,
        ))
    return trace
