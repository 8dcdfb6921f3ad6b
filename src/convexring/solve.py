"""Solvers for the minimal graph equation on an annular grid.

The chart form of the equation is conservative,

    d/dx_a ( du/dx_a / W ) = lambda^2 H(x),
    W = sqrt(1 + lambda^(-2) |Du|^2),

in two dimensions, with H = 0 for minimal graphs (the left side is -lambda^2
times the mean curvature of the graph).  Discretization is conservative flux
differencing on the mapped grid: fluxes live on cell faces, face gradients
come from compact stencils pushed through the analytic blend-map Jacobian,
and the divergence is taken back at nodes.  Newton's method uses the exact flux Jacobian
dA/dp = I/W - lambda^(-2) p p^T / W^3 and damped line search.

Every linear system is solved by one sparse LU factorisation (SuperLU) with
the minimum-degree ordering on A^T + A, which suits the structurally
symmetric Jacobian.  The face geometry and the Jacobian's sparsity pattern
depend only on the grid; they are built on first use and cached per grid, so
each Newton step only refills the matrix values.

Dirichlet rows (s = 0 outer, s = 1 inner) are never touched by the solvers.
"""

from __future__ import annotations

import numbers
import time
import weakref
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .field import ScalarField
from .levelgeom import SingularGradientError, TopologyError, extract_level
from .ring import AnnularGrid
from .spaceform import conformal_factor

# absolute max-norm residual the one-shot harmonic solve must reach
# (or options.newton_tol, when that is looser)
HARMONIC_RESIDUAL_TOL = 1e-9
# the first continuation step, unless the smallest target lies below it
TAU_START = 0.05


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
        if not all(0.0 < t < np.inf for t in (self.newton_tol, self.min_step)):
            raise SolverError("tolerances must be positive and finite")
        if not (isinstance(self.max_newton, numbers.Integral) and self.max_newton >= 1):
            raise SolverError(f"max_newton must be an integer >= 1, got {self.max_newton!r}")


@dataclass
class SolveReport:
    converged: bool
    newton_iterations: int
    final_residual_max: float
    tau: float
    min_gradient_norm: float
    wall_time: float
    lu_fill: int  # L+U nonzeros of the last Newton factorisation; 0 if none ran


@dataclass
class StepRecord:
    """One accepted continuation step with its convexity diagnostics."""

    tau: float
    report: SolveReport
    field: ScalarField
    min_interior_gradient: float
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


class _Assembler:
    """Face geometry, flux and Jacobian assembly for one grid.

    Fluxes are evaluated on s-faces (i+1/2, j) and theta-faces (i, j+1/2);
    theta-faces are only needed on interior rows.  Each face family only
    needs its normal flux component g = det (G d)_a / W, with
    d = (u_s, u_t) and G = J^{-1} J^{-T} the contravariant metric of the
    blend map (a = 0 on s-faces, 1 on theta-faces).  ``linear=True`` freezes
    W = 1, which is the harmonic (conformal Laplace) operator; nothing
    stored here depends on that choice.  Use :func:`_assembler` for the
    cached instance of a grid.

    The assembler keeps no reference to its grid: it is the value of a
    weak-key cache keyed by the grid, and a reference back would keep every
    grid alive.
    """

    def __init__(self, grid: AnnularGrid):
        self.ns, self.ntheta = grid.ns, grid.ntheta
        self.hs, self.ht = grid.hs, grid.htheta

        sf = grid.s[:-1] + 0.5 * grid.hs
        self._sface = self._face_geometry(grid, sf[:, None], grid.theta, 0)
        tf = grid.theta + 0.5 * grid.htheta
        self._tface = self._face_geometry(grid, grid.s[1:-1, None], tf, 1)
        # node data on interior rows
        self.det_node = grid.det[1:-1]
        self.lam2_node = conformal_factor(grid.ring.chart, grid.nodes[1:-1]) ** 2

    @staticmethod
    def _face_geometry(grid, s, theta, normal):
        jinv, det = grid.map_jacobian_inverse(s, theta)
        lam = conformal_factor(grid.ring.chart, grid.map_point(s, theta))
        r0, r1 = jinv[..., 0, :], jinv[..., 1, :]
        g00 = np.sum(r0 * r0, axis=-1)
        g01 = np.sum(r0 * r1, axis=-1)
        g11 = np.sum(r1 * r1, axis=-1)
        return {"det": det, "g00": g00, "g01": g01, "g11": g11,
                "inv_lam2": 1.0 / (lam * lam), "normal": normal}

    # face computational gradients (u_s, u_t) as arrays over faces
    def _sface_gradients(self, v):
        vp = np.roll(v, -1, axis=1)
        vm = np.roll(v, 1, axis=1)
        u_s = (v[1:] - v[:-1]) / self.hs
        u_t = (vp[:-1] + vp[1:] - vm[:-1] - vm[1:]) / (4.0 * self.ht)
        return u_s, u_t

    def _tface_gradients(self, v):
        vi = v[1:-1]
        u_t = (np.roll(vi, -1, axis=1) - vi) / self.ht
        hi = v[2:] + np.roll(v[2:], -1, axis=1)
        lo = v[:-2] + np.roll(v[:-2], -1, axis=1)
        u_s = (hi - lo) / (4.0 * self.hs)
        return u_s, u_t

    @staticmethod
    def _face_terms(geo, u_s, u_t, linear):
        """(G d)_0, (G d)_1 and 1/W on one face family."""
        q0 = geo["g00"] * u_s + geo["g01"] * u_t
        q1 = geo["g01"] * u_s + geo["g11"] * u_t
        if linear:
            return q0, q1, 1.0
        return q0, q1, 1.0 / np.sqrt(1.0 + (u_s * q0 + u_t * q1) * geo["inv_lam2"])

    def _flux(self, geo, u_s, u_t, linear):
        """Normal face flux g = det (G d)_a / W."""
        q0, q1, w_inv = self._face_terms(geo, u_s, u_t, linear)
        return geo["det"] * w_inv * (q0 if geo["normal"] == 0 else q1)

    def _sensitivity(self, geo, u_s, u_t, linear):
        """(dg/du_s, dg/du_t) = det (G_ab / W - (G d)_a (G d)_b / (lambda^2 W^3))."""
        q0, q1, w_inv = self._face_terms(geo, u_s, u_t, linear)
        if geo["normal"] == 0:
            ga0, ga1, qa = geo["g00"], geo["g01"], q0
        else:
            ga0, ga1, qa = geo["g01"], geo["g11"], q1
        c = geo["det"] * w_inv
        if linear:
            return c * ga0, c * ga1
        d = c * w_inv * w_inv * geo["inv_lam2"] * qa
        return c * ga0 - d * q0, c * ga1 - d * q1

    def residual(self, v: np.ndarray, source: np.ndarray | None = None,
                 linear: bool = False) -> np.ndarray:
        """Nodal residual on interior rows, shape (ns-2, ntheta)."""
        gs = self._flux(self._sface, *self._sface_gradients(v), linear)
        gt = self._flux(self._tface, *self._tface_gradients(v), linear)
        div = (gs[1:] - gs[:-1]) / self.hs
        div += (gt - np.roll(gt, 1, axis=1)) / self.ht
        r = div / self.det_node
        if source is not None:
            r = r - self.lam2_node * source
        return r

    @cached_property
    def _pattern(self):
        """CSC structure of the Jacobian, built once per grid.

        Returns (indptr, indices, order).  Residual row (i, j) couples to the
        nine nodes (i + a, j + b), a, b in {-1, 0, 1}, and ``jacobian`` fills
        one (3, 3, ns-2, ntheta) table of values indexed by (a+1, b+1, i-1, j);
        ``order`` picks the entries whose column is an unknown, in CSC order.
        """
        ns, nt = self.ns, self.ntheta
        n_int = (ns - 2) * nt
        a, b, i, j = np.meshgrid(np.arange(-1, 2), np.arange(-1, 2),
                                 np.arange(1, ns - 1), np.arange(nt), indexing="ij")
        rows = ((i - 1) * nt + j).ravel()
        cols = ((i + a - 1) * nt + np.mod(j + b, nt)).ravel()
        unknown = np.flatnonzero(((i + a >= 1) & (i + a <= ns - 2)).ravel())
        order = unknown[np.argsort(cols[unknown] * n_int + rows[unknown])]
        counts = np.bincount(cols[unknown], minlength=n_int)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        return indptr, rows[order].astype(np.int32), order

    def jacobian(self, v: np.ndarray, linear: bool = False) -> sp.csc_matrix:
        """Exact Jacobian of the residual w.r.t. interior values.

        Every call shares the cached ``indptr`` and ``indices``; only the
        values are new."""
        hs, ht = self.hs, self.ht
        s_ds, s_dt = self._sensitivity(self._sface, *self._sface_gradients(v), linear)
        t_ds, t_dt = self._sensitivity(self._tface, *self._tface_gradients(v), linear)
        # face stencils: (node offset from the face's first node, dg/du, coefficient)
        s_stencil = (
            ((0, 0), s_ds, -1.0 / hs),
            ((1, 0), s_ds, 1.0 / hs),
            ((0, -1), s_dt, -0.25 / ht),
            ((1, -1), s_dt, -0.25 / ht),
            ((0, 1), s_dt, 0.25 / ht),
            ((1, 1), s_dt, 0.25 / ht),
        )
        t_stencil = (
            ((0, 0), t_dt, -1.0 / ht),
            ((0, 1), t_dt, 1.0 / ht),
            ((1, 0), t_ds, 0.25 / hs),
            ((1, 1), t_ds, 0.25 / hs),
            ((-1, 0), t_ds, -0.25 / hs),
            ((-1, 1), t_ds, -0.25 / hs),
        )
        vals = np.zeros((3, 3) + self.det_node.shape)  # by column offset (a+1, b+1)
        # s-face (i+1/2, j) enters row (i, j) with +1/hs and row (i+1, j) with -1/hs
        for (a, b), sens, coef in s_stencil:
            vals[a + 1, b + 1] += (coef / hs) * sens[1:]
            vals[a, b + 1] -= (coef / hs) * sens[:-1]
        # theta-face (i, j+1/2) enters row (i, j) with +1/ht and row (i, j+1) with -1/ht
        for (a, b), sens, coef in t_stencil:
            vals[a + 1, b + 1] += (coef / ht) * sens
            vals[a + 1, b] -= (coef / ht) * np.roll(sens, 1, axis=1)
        vals /= self.det_node
        indptr, indices, order = self._pattern
        n_int = indptr.size - 1
        return sp.csc_matrix((vals.ravel()[order], indices, indptr), shape=(n_int, n_int))


_ASSEMBLERS: "weakref.WeakKeyDictionary[AnnularGrid, _Assembler]" = weakref.WeakKeyDictionary()


def _assembler(grid: AnnularGrid) -> _Assembler:
    """The grid's assembler, built on first use and kept while the grid lives."""
    asm = _ASSEMBLERS.get(grid)
    if asm is None:
        asm = _ASSEMBLERS[grid] = _Assembler(grid)
    return asm


def _linear_solve(matrix: sp.csc_matrix, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """Solution and L+U fill of one sparse LU solve."""
    try:
        lu = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"direct linear solve failed: {exc}") from exc
    return lu.solve(rhs), int(lu.nnz)


def _min_gradient_norms(f: ScalarField) -> tuple[float, float]:
    """(min interior |grad u|, min outer-boundary |grad u|)."""
    table = f.jet_table()
    norms = np.linalg.norm(table["grad"], axis=-1)
    return float(np.min(norms[1:-1])), float(np.min(norms[0]))


# -- public solvers -----------------------------------------------------------


def solve_harmonic(grid: AnnularGrid, tau: float,
                   options: SolveOptions | None = None) -> ScalarField:
    """Solve the conformal Laplace problem with data 0 outside, tau inside.

    One assembly and one linear solve; the result satisfies the discrete
    maximum principle (values in [0, tau])."""
    options = options or SolveOptions()
    tau = float(tau)
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    asm = _assembler(grid)
    v = np.zeros((grid.ns, grid.ntheta))
    v[-1] = tau
    r = asm.residual(v, linear=True)
    delta, _ = _linear_solve(asm.jacobian(v, linear=True), -r.ravel())
    v[1:-1] += delta.reshape(grid.ns - 2, grid.ntheta)

    rmax = float(np.max(np.abs(asm.residual(v, linear=True))))
    if rmax > max(options.newton_tol, HARMONIC_RESIDUAL_TOL):
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


def solve_minimal_graph(grid: AnnularGrid, tau: float,
                        options: SolveOptions | None = None,
                        init: ScalarField | None = None,
                        source: np.ndarray | None = None,
                        ) -> tuple[ScalarField, SolveReport]:
    """Damped Newton for the minimal graph with boundary data (0, tau).

    Starts from ``init`` (default: the harmonic field with the same data).
    Returns the final iterate and its report; ``report.converged`` is False
    when the residual target was not reached, the iterate is still returned.
    """
    options = options or SolveOptions()
    t0 = time.perf_counter()
    if init is None:
        init = solve_harmonic(grid, tau, options)
    v = init.values.copy()
    if not (np.all(v[0] == 0.0) and np.all(v[-1] == tau)):
        raise SolverError("initializer must carry the Dirichlet data (0, tau)")

    asm = _assembler(grid)
    r = asm.residual(v, source)
    rmax = float(np.max(np.abs(r)))
    iterations = 0
    lu_fill = 0
    converged = rmax <= options.newton_tol
    while not converged and iterations < options.max_newton:
        delta, lu_fill = _linear_solve(asm.jacobian(v), -r.ravel())
        delta = delta.reshape(grid.ns - 2, grid.ntheta)
        # backtracking: accepted steps must strictly decrease the max residual
        alpha = 1.0
        while True:
            trial = v.copy()
            trial[1:-1] += alpha * delta
            r_trial = asm.residual(trial, source)
            rmax_trial = float(np.max(np.abs(r_trial)))
            if rmax_trial < rmax:
                break
            alpha *= 0.5
            if alpha < options.min_step:
                break
        if alpha < options.min_step:
            break
        v, r, rmax = trial, r_trial, rmax_trial
        iterations += 1
        converged = rmax <= options.newton_tol

    f = ScalarField(grid=grid, values=v, boundary_values=(0.0, float(tau)))
    min_grad, _ = _min_gradient_norms(f)
    report = SolveReport(
        converged=bool(converged),
        newton_iterations=iterations,
        final_residual_max=rmax,
        tau=float(tau),
        min_gradient_norm=min_grad,
        wall_time=time.perf_counter() - t0,
        lu_fill=lu_fill,
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
    return solve_minimal_graph(grid, tau, options=options, init=init, source=source)


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


def _step_diagnostics(f: ScalarField, tau: float) -> tuple[float, float, float]:
    min_grad, boundary_grad = _min_gradient_norms(f)
    kappa_min = np.inf
    for frac in (0.25, 0.5, 0.75):
        rep = extract_level(f, frac * tau)
        kappa_min = min(kappa_min, rep.kappa_min)
    return min_grad, float(kappa_min), boundary_grad


def continuation_targets(targets: Sequence[float]) -> list[float]:
    """The targets as floats; ValueError unless in (0, 1] and strictly increasing."""
    targets = [float(t) for t in targets]
    if any(not 0.0 < t <= 1.0 for t in targets):
        raise ValueError("targets must lie in (0, 1]")
    if any(b <= a for a, b in zip(targets, targets[1:])):
        raise ValueError("targets must be strictly increasing")
    return targets


def continuation_solve(grid: AnnularGrid, targets: Sequence[float],
                       options: SolveOptions | None = None) -> ContinuationTrace:
    """Predictor-corrector walk up the tau targets (see continuation_targets).

    The first solve runs at min(TAU_START, smallest target) from the harmonic
    initializer; later solves start from the previous solution rescaled to
    the new boundary value.  A failed solve halves the step toward the target
    (down to 2^-10 of the leg) before giving up with the partial trace, as
    does a converged step whose level diagnostics fail."""
    options = options or SolveOptions()
    targets = continuation_targets(targets)
    trace = ContinuationTrace()
    if not targets:
        return trace

    schedule = [min(TAU_START, targets[0])]
    schedule += [t for t in targets if t > schedule[0] + 1e-15]

    tau_prev = 0.0
    field_prev: ScalarField | None = None
    for target in schedule:
        leg = target - tau_prev
        step = leg
        while True:
            tau_try = tau_prev + step
            if field_prev is None:
                init = None
            else:
                v = field_prev.values * (tau_try / tau_prev)
                v[0] = 0.0
                v[-1] = tau_try
                init = ScalarField(grid=grid, values=v,
                                   boundary_values=(0.0, tau_try))
            f, report = solve_minimal_graph(grid, tau_try, options=options, init=init)
            if report.converged:
                try:
                    min_grad, kappa_min, boundary_grad = _step_diagnostics(f, tau_try)
                except (TopologyError, SingularGradientError) as exc:
                    raise ContinuationError(
                        f"step diagnostics failed at tau={tau_try}: {exc}", trace) from exc
                trace.steps.append(StepRecord(
                    tau=tau_try, report=report, field=f,
                    min_interior_gradient=min_grad,
                    min_level_curvature=kappa_min,
                    outer_boundary_min_gradient=boundary_grad,
                ))
                tau_prev, field_prev = tau_try, f
                if tau_try >= target - 1e-15:
                    break
                step = target - tau_prev
            else:
                step *= 0.5
                if step < leg * 2.0**-10:
                    raise ContinuationError(
                        f"continuation stalled between tau={tau_prev} and {target}",
                        trace,
                    )
    return trace
