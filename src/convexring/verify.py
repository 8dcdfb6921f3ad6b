"""Quantitative property checks with measured margins.

Every check returns a VerificationReport whose ``margin`` is the distance to
its acceptance boundary with the stated tolerance already folded in, so
``passed`` is equivalent to ``margin >= 0``.  Margins are reported raw; a
failing check shows how badly it failed.

The exact-solution oracle is the radial minimal graph on a flat concentric
ring: the first integral r^(n-1) u' / sqrt(1 + u'^2) = -c reduces the
equation to the height integral of c / sqrt(r^(2(n-1)) - c^2) dr, whose
primitive is c arccosh(r / c) for n = 2 and, for n = 3, sqrt(c/2) times the
incomplete elliptic integral F(arccos(sqrt(c) / r) | 1/2) (DLMF 19.2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np
from scipy.special import ellipkinc

from .field import ScalarField, discrete_c2_distance, sample_field
from .levelgeom import (
    LevelRangeError,
    SingularGradientError,
    TopologyError,
    extract_level,
    rank_scan,
)
from .ring import AnnularGrid, build_grid, make_curve, make_ring
from .solve import (
    ContinuationTrace,
    SolveOptions,
    SolveReport,
    SolverError,
    build_supersolution,
    continuation_solve,
    solve_harmonic,
    solve_minimal_graph,
)
from .spaceform import PointJet, SpaceFormChart


class OracleInfeasibleError(ValueError):
    """The requested boundary height exceeds what a radial graph can span."""

    def __init__(self, message: str, max_height: float):
        super().__init__(message)
        self.max_height = max_height


# -- radial oracle -------------------------------------------------------------


def radial_height(c: float, r_inner, r_outer, n: int = 2):
    """Boundary height of the radial graph with flux constant c, elementwise for
    array radii: the integral over [r_inner, r_outer] in closed form, clamped at
    the turning radius r^(n-1) = c, where the primitive vanishes."""
    if n not in (2, 3):
        raise ValueError("n must be 2 or 3")
    r_inner, r_outer = np.asarray(r_inner, dtype=float), np.asarray(r_outer, dtype=float)
    if c == 0.0:
        return np.zeros(np.broadcast_shapes(r_inner.shape, r_outer.shape))[()]
    if n == 2:
        return c * (np.arccosh(np.maximum(r_outer / c, 1.0))
                    - np.arccosh(np.maximum(r_inner / c, 1.0)))
    a = np.sqrt(c)
    return np.sqrt(c / 2.0) * (ellipkinc(np.arccos(np.minimum(a / r_outer, 1.0)), 0.5)
                               - ellipkinc(np.arccos(np.minimum(a / r_inner, 1.0)), 0.5))


@dataclass(frozen=True)
class RadialOracle:
    """Exact radial minimal graph on the flat ring r_inner <= |x| <= r_outer.

    u decreases outward: u(r_outer) = 0, u(r_inner) = tau, and
    u'(r) = -c / sqrt(r^(2(n-1)) - c^2) with 0 < c < r_inner^(n-1).
    """

    r_inner: float
    r_outer: float
    tau: float
    n: int
    c: float
    chart: SpaceFormChart

    def u(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        outside = ~((self.r_inner * (1 - 1e-9) <= r) & (r <= self.r_outer * (1 + 1e-9)))
        if np.any(outside):
            raise ValueError(f"radius {r[outside].flat[0]} outside the ring")
        return radial_height(self.c, np.clip(r, self.r_inner, self.r_outer),
                             self.r_outer, self.n)

    def du(self, r):
        r = np.asarray(r, dtype=float)
        return -self.c / np.sqrt(r ** (2 * (self.n - 1)) - self.c**2)

    def d2u(self, r):
        r = np.asarray(r, dtype=float)
        m = self.n - 1
        return self.c * m * r ** (2 * m - 1) * (r ** (2 * m) - self.c**2) ** -1.5

    def jet(self, point) -> PointJet:
        """The exact jet at points of shape (..., n), stacked over leading axes."""
        point = np.asarray(point, dtype=float)
        if point.shape[-1:] != (self.n,):
            raise ValueError(f"expected points in R^{self.n}, got shape {point.shape}")
        r = np.sqrt(point[..., None, :] @ point[..., :, None])  # as np.linalg.norm per point
        d1, d2 = self.du(r), self.d2u(r)
        unit = point / r[..., 0]
        radial = unit[..., :, None] * unit[..., None, :]
        hess = d2 * radial + d1 * (np.eye(self.n) - radial) / r
        return PointJet(point=point, value=self.u(r[..., 0, 0])[()],
                        grad=d1[..., 0] * unit, hess=hess)

    def field(self, grid: AnnularGrid) -> ScalarField:
        return sample_field(grid, lambda p: self.u(np.linalg.norm(p, axis=-1)),
                            boundary_values=(0.0, self.tau))


def radial_oracle(r_inner: float, r_outer: float, tau: float, n: int = 2) -> RadialOracle:
    """Solve the flux constant for the radial graph of height tau.

    Bisection on the increasing map c -> height(c); the returned oracle
    reproduces the boundary data to 1e-12."""
    if not 0.0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")
    if not tau > 0.0:  # also rejects NaN
        raise ValueError("tau must be positive")

    c_sup = r_inner ** (n - 1)
    max_height = radial_height(c_sup, r_inner, r_outer, n)
    if tau >= max_height:
        raise OracleInfeasibleError(
            f"height {tau} is not reachable; the maximal radial graph height "
            f"on this ring is {max_height:.12g}", max_height)

    lo, hi = 0.0, c_sup
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        h = radial_height(mid, r_inner, r_outer, n)
        if abs(h - tau) <= 1e-13:
            lo = hi = mid
            break
        if h < tau:
            lo = mid
        else:
            hi = mid
    c = 0.5 * (lo + hi)
    achieved = radial_height(c, r_inner, r_outer, n)
    if abs(achieved - tau) > 1e-12:
        raise OracleInfeasibleError(
            f"flux bisection stalled at height {achieved} for target {tau}",
            max_height)
    return RadialOracle(r_inner=r_inner, r_outer=r_outer, tau=tau, n=n, c=c,
                        chart=SpaceFormChart(epsilon=0.0, dim=n))


# -- reports -------------------------------------------------------------------


@dataclass
class VerificationReport:
    """One measured claim.  passed is equivalent to margin >= 0; tolerance
    records the slack already folded into the margin."""

    name: str
    passed: bool
    margin: float
    tolerance: float
    claim: str
    runtime_s: float
    extras: dict[str, Any] = dc_field(default_factory=dict)
    error: str | None = None  # message of the exception a suite check raised


def _finish(name: str, margin: float, tolerance: float, claim: str,
            t0: float, extras: dict[str, Any]) -> VerificationReport:
    return VerificationReport(
        name=name, passed=bool(margin >= 0.0), margin=float(margin),
        tolerance=float(tolerance), claim=claim,
        runtime_s=time.perf_counter() - t0, extras=extras)


def _slack(grid: AnnularGrid) -> float:
    # discretization noise floor for second-order stencils
    return 10.0 * grid.max_spacing**2


def _grad_norms(f: ScalarField) -> np.ndarray:
    return np.linalg.norm(f.jet_table()["grad"], axis=-1)


def _oracle_sizes(grid_sizes: Sequence[int]) -> list[int]:
    """The oracle grid sizes sorted; ValueError unless two or more distinct integers >= 8."""
    sizes = sorted(int(s) for s in grid_sizes)
    # the oracle grids are n x n (ntheta >= 8); an order needs two distinct sizes
    if len(set(sizes)) < max(len(sizes), 2) or sizes[0] < 8:
        raise ValueError("oracle_grid_sizes must be two or more distinct sizes >= 8")
    return sizes


def suite_inputs(tau: float, oracle_grid_sizes: Sequence[int]) -> tuple[float, list[int]]:
    """run_suite's tau as a float in (0, 1] and its oracle grid sizes as _oracle_sizes gives."""
    if isinstance(tau, (bool, np.bool_)) or not 0.0 < float(tau) <= 1.0:
        raise ValueError("verify tau must lie in (0, 1]")
    tau = float(tau)
    return tau, _oracle_sizes(oracle_grid_sizes)


# -- checks --------------------------------------------------------------------


def check_solver_vs_oracle(grid_sizes: Sequence[int] = (64, 128, 256), tau: float = 0.3,
                           options: SolveOptions | None = None) -> VerificationReport:
    """Nodal solver-vs-oracle error on the circles of radius 1 and 2, with the
    observed convergence order.  The 5e-4 error budget applies once a grid reaches 256."""
    t0 = time.perf_counter()
    name = "solver-vs-oracle"
    claim = "the discrete minimal graph converges to the radial solution at second order"
    sizes = _oracle_sizes(grid_sizes)
    if tau == 0.0:
        return _finish(name, 0.0, 5e-4, claim, t0,
                       {"note": "tau = 0 gives the zero field exactly"})

    oracle = radial_oracle(1.0, 2.0, tau)
    ring = make_ring(oracle.chart, make_curve("circle", radius=2.0),
                     make_curve("circle", radius=1.0))
    errors, iterations = [], []
    for size in sizes:
        grid = build_grid(ring, size, size)
        u, report = solve_minimal_graph(grid, tau, options=options)
        if not report.converged:
            raise SolverError(f"solve at {size}x{size} did not converge")
        radii = np.linalg.norm(grid.nodes, axis=-1)
        errors.append(float(np.max(np.abs(u.values - oracle.u(radii)))))
        iterations.append(report.newton_iterations)
    orders = [float(np.log(errors[i] / errors[i + 1])
                    / np.log(sizes[i + 1] / sizes[i]))
              for i in range(len(sizes) - 1)]
    margin = min(o - 1.8 for o in orders)
    if max(sizes) >= 256:
        margin = min(margin, 5e-4 - errors[-1])
    extras = {"grid_sizes": sizes, "max_errors": errors, "orders": orders,
              "newton_iterations": iterations, "flux_constant": oracle.c}
    return _finish(name, margin, 5e-4, claim, t0, extras)


def check_gradient_max_principle(f: ScalarField) -> VerificationReport:
    """Interior sup of |grad u| must not exceed the boundary sup."""
    t0 = time.perf_counter()
    norms = _grad_norms(f)
    interior = float(np.max(norms[1:-1]))
    boundary = float(np.max(np.maximum(norms[0], norms[-1])))
    tol = _slack(f.grid)
    extras = {"interior_max": interior, "boundary_max": boundary}
    return _finish("gradient-max-principle", boundary + tol - interior, tol,
                   "sup of |grad u| over the ring is attained on the boundary",
                   t0, extras)


def _nondivergence_defect(v: ScalarField, omega: ScalarField, tau: float) -> np.ndarray:
    """L v + |grad omega|^2 / (2 tau) at interior nodes, where
    L v = (1 + |grad v|^2) trace(hess v) - grad v . hess v . grad v."""
    tv = v.jet_table()
    g, h = tv["grad"][1:-1], tv["hess"][1:-1]
    gg = np.sum(g * g, axis=-1)
    lap = np.trace(h, axis1=-2, axis2=-1)
    ghg = np.einsum("...i,...ij,...j->...", g, h, g)
    lv = (1.0 + gg) * lap - ghg
    go = _grad_norms(omega)[1:-1]
    return lv + go**2 / (2.0 * tau)


def check_supersolution(u: ScalarField, omega: ScalarField, tau: float,
                        supersolution: ScalarField | None = None) -> VerificationReport:
    """The concave reparametrization of the harmonic field is a strict
    supersolution and dominates u.  Passing an explicit ``supersolution``
    replaces the built one (negative controls)."""
    t0 = time.perf_counter()
    if u.grid is not omega.grid:
        raise ValueError("fields must share one grid")
    v = supersolution if supersolution is not None else build_supersolution(omega, tau)
    tol = _slack(u.grid)
    defect = float(np.max(_nondivergence_defect(v, omega, tau)))
    excess = float(np.max(u.values - v.values))
    margin = min(tol - defect, tol - excess)
    extras = {"max_operator_defect": defect, "max_comparison_excess": excess}
    return _finish("supersolution", margin, tol,
                   "L v <= -|grad omega|^2/(2 tau) and u <= v on the ring",
                   t0, extras)


def check_tau_estimates(grid: AnnularGrid, tau_list: Sequence[float],
                        options: SolveOptions | None = None,
                        field_for_tau: Callable[[float], ScalarField] | None = None,
                        ) -> VerificationReport:
    """Boundedness of sup|grad u^tau| / tau and of the discrete C2 Lipschitz
    constant in tau.  One empirical constant per list entry: the gradient
    quotient at tau, and the largest distance quotient over its partners
    (pairs closer than 0.05 are excluded).  Per-entry constants rather than
    per-pair quotients: the claim is one constant valid for every pair, and
    short-gap quotients probe the local modulus, which legitimately varies."""
    t0 = time.perf_counter()
    taus = [float(t) for t in tau_list]
    if len(taus) < 4:
        raise ValueError("need at least 4 tau values")
    if any(not 0.0 < t <= 1.0 for t in taus):
        raise ValueError("tau values must lie in (0, 1]")

    if field_for_tau is None:
        def field_for_tau(t: float) -> ScalarField:
            f, report = solve_minimal_graph(grid, t, options=options)
            if not report.converged:
                raise SolverError(f"solve at tau={t} did not converge")
            return f

    fields = {t: field_for_tau(t) for t in taus}
    grad_constants = [float(np.max(_grad_norms(fields[t]))) / t for t in taus]
    quotients = {}
    for i in range(len(taus)):
        for j in range(i + 1, len(taus)):
            gap = abs(taus[j] - taus[i])
            if gap < 0.05:
                continue
            d = discrete_c2_distance(fields[taus[i]], fields[taus[j]])
            quotients[(taus[i], taus[j])] = d / gap
    distance_constants = []
    for t in taus:
        partnered = [q for pair, q in quotients.items() if t in pair]
        if partnered:
            distance_constants.append(max(partnered))

    band_grad = max(grad_constants) / min(grad_constants)
    band_dist = (max(distance_constants) / min(distance_constants)
                 if distance_constants else 1.0)
    margin = min(2.0 - band_grad, 2.0 - band_dist)
    extras = {"tau_list": taus, "gradient_constants": grad_constants,
              "distance_constants": distance_constants,
              "pair_quotients": {f"{a}-{b}": q for (a, b), q in quotients.items()},
              "gradient_band": band_grad, "distance_band": band_dist}
    return _finish("tau-estimates", margin, 2.0,
                   "sup|grad u^tau| ~ tau and C2 distance ~ |t - tau| with bounded constants",
                   t0, extras)


def check_small_tau_regime(grid: AnnularGrid,
                           taus: Sequence[float] = (0.01, 0.02, 0.04),
                           options: SolveOptions | None = None) -> VerificationReport:
    """For small tau the minimal graph stays within const * tau^2 of the
    harmonic field in discrete C2.  Checked as one-sided stability of the
    ratio q(tau) = distance / tau^2: shrinking tau must not grow q by more
    than the 1.5 band (the correction is higher order, so q typically falls)."""
    t0 = time.perf_counter()
    taus = sorted(float(t) for t in taus)
    qs = []
    for t in taus:
        omega = solve_harmonic(grid, t, options)
        u, report = solve_minimal_graph(grid, t, options=options, init=omega)
        if not report.converged:
            raise SolverError(f"solve at tau={t} did not converge")
        qs.append(discrete_c2_distance(u, omega) / t**2)
    # descending tau pairs: q at the smaller tau vs 1.5x q at the larger
    margin = min(1.5 * qs[i + 1] - qs[i] for i in range(len(qs) - 1))
    extras = {"tau_list": taus, "ratios": qs}
    return _finish("small-tau-regime", margin, 1.5,
                   "discrete C2 distance between u^tau and the harmonic field is O(tau^2)",
                   t0, extras)


def check_convexity_and_rank(f: ScalarField,
                             levels: Sequence[float] | None = None) -> VerificationReport:
    """Every extracted level curve is strictly convex with margin above the
    noise floor, and the level-Hessian rank is constant over the interior."""
    t0 = time.perf_counter()
    name = "convexity-and-rank"
    claim = "level sets are strictly convex and their curvature rank is constant"
    if levels is None:
        if f.boundary_values is None:
            raise ValueError("levels are required for a field without boundary data")
        tau = f.boundary_values[1]
        levels = [tau * k / 9.0 for k in range(1, 9)]
    tol = _slack(f.grid)

    kappa_mins = {}
    try:
        for c in levels:
            kappa_mins[float(c)] = extract_level(f, float(c)).kappa_min
        scan = rank_scan(f)
    except (SingularGradientError, TopologyError, LevelRangeError) as exc:
        return _finish(name, -1.0, tol, claim, t0,
                       {"error": str(exc), "kappa_min_by_level": kappa_mins})

    kappa_min = min(kappa_mins.values())
    rank_target = f.grid.ring.chart.dim - 1
    rank_ok = scan.constant_rank and scan.min_rank == rank_target
    margin = kappa_min - tol if rank_ok else -1.0
    extras = {"kappa_min_by_level": kappa_mins, "kappa_min": kappa_min,
              "rank_min": scan.min_rank, "rank_max": scan.max_rank,
              "lambda_min": scan.lambda_min, "rank_threshold": scan.threshold}
    return _finish(name, margin, tol, claim, t0, extras)


def check_gradient_monotonicity(f: ScalarField) -> VerificationReport:
    """u grows strictly along its own gradient: 2 grad.hess.grad > 0 at 99%
    of interior nodes and above the negative noise floor everywhere."""
    t0 = time.perf_counter()
    table = f.jet_table()
    g, h = table["grad"][1:-1], table["hess"][1:-1]
    q = 2.0 * np.einsum("...i,...ij,...j->...", g, h, g)
    tol = _slack(f.grid)
    fraction = float(np.mean(q > 0.0))
    strict = fraction >= 0.99
    margin = min(float(np.min(q)) + tol, fraction - 0.99)
    extras = {"min_q": float(np.min(q)), "positive_fraction": fraction,
              "strict": strict}
    return _finish("gradient-monotonicity", margin, tol,
                   "|grad u|^2 increases along the gradient direction",
                   t0, extras)


def check_hopf_boundary_bound(trace: ContinuationTrace) -> VerificationReport:
    """min over the outer boundary of |grad u^tau| is positive and does not
    decrease along the continuation schedule."""
    t0 = time.perf_counter()
    name = "hopf-boundary-bound"
    claim = "the outer-boundary gradient stays bounded away from zero, increasing in tau"
    if len(trace.steps) < 2:
        return _finish(name, 0.0, 0.0, claim, t0,
                       {"note": "insufficient steps, vacuous pass",
                        "steps": len(trace.steps)})
    mins = [s.outer_boundary_min_gradient for s in trace.steps]
    tol = _slack(trace.steps[0].field.grid)
    monotone = min(mins[i + 1] - mins[i] + tol for i in range(len(mins) - 1))
    margin = min(min(mins), monotone)
    extras = {"tau_schedule": trace.tau_schedule, "boundary_minima": mins}
    return _finish(name, margin, tol, claim, t0, extras)


# -- default suite -------------------------------------------------------------


@dataclass
class _SuiteRun:
    """One suite run: its inputs and the solves its checks share."""

    grid: AnnularGrid
    tau: float
    oracle_sizes: Sequence[int]
    options: SolveOptions | None

    @cached_property
    def _solution(self) -> tuple[ScalarField, SolveReport]:
        return solve_minimal_graph(self.grid, self.tau, options=self.options, init=self.omega)

    @property
    def u(self) -> ScalarField:
        u, report = self._solution  # kept when it did not converge: one solve per run
        if not report.converged:
            raise SolverError(f"suite solve at tau={self.tau} did not converge")
        return u

    @cached_property
    def omega(self) -> ScalarField:
        return solve_harmonic(self.grid, self.tau, self.options)


_SUITE: dict[str, Callable[[_SuiteRun], VerificationReport]] = {
    "solver-vs-oracle": lambda r: check_solver_vs_oracle(r.oracle_sizes, options=r.options),
    "gradient-max-principle": lambda r: check_gradient_max_principle(r.u),
    "supersolution": lambda r: check_supersolution(r.u, r.omega, r.tau),
    "tau-estimates": lambda r: check_tau_estimates(r.grid, (0.1, 0.2, 0.4, 0.8), r.options),
    "small-tau-regime": lambda r: check_small_tau_regime(r.grid, options=r.options),
    "convexity-and-rank": lambda r: check_convexity_and_rank(r.u),
    "gradient-monotonicity": lambda r: check_gradient_monotonicity(r.u),
    "hopf-boundary-bound": lambda r: check_hopf_boundary_bound(
        continuation_solve(r.grid, (0.25, 0.5, 0.75, 1.0), options=r.options)),
}
SUITE_CHECKS = tuple(_SUITE)


def run_suite(grid: AnnularGrid | None = None, tau: float = 0.5,
              checks: Sequence[str] | None = None,
              oracle_grid_sizes: Sequence[int] = (64, 128, 256),
              options: SolveOptions | None = None) -> list[VerificationReport]:
    """Run the named checks (default: all) on one grid (default: 33x64 on the
    flat ring between the circles of radius 1 and 2) and return the reports.

    The checks share one solve and one harmonic solve at ``tau``; runtime_s
    includes the solves a check triggered.  A check that raises gets a failed
    report carrying ``error``, and the rest still run.  The solver-vs-oracle
    check always runs on the canonical flat circle ring, where the oracle lives.
    Unknown check names and inputs suite_inputs rejects raise before any check runs."""
    selected = SUITE_CHECKS if checks is None else tuple(checks)
    unknown = [c for c in selected if c not in SUITE_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; available: {list(SUITE_CHECKS)}")
    tau, oracle_grid_sizes = suite_inputs(tau, oracle_grid_sizes)
    if grid is None:
        chart = SpaceFormChart(epsilon=0.0)
        grid = build_grid(make_ring(chart, make_curve("circle", radius=2.0),
                                    make_curve("circle", radius=1.0)), 33, 64)

    run = _SuiteRun(grid, tau, oracle_grid_sizes, options)
    reports = []
    for name in selected:
        t0 = time.perf_counter()
        try:
            report = _SUITE[name](run)
        except Exception as exc:
            report = VerificationReport(name=name, passed=False, margin=float("nan"),
                                        tolerance=float("nan"), claim="",
                                        runtime_s=0.0, error=str(exc))
        report.runtime_s = time.perf_counter() - t0
        reports.append(report)
    return reports
