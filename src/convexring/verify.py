"""Quantitative property checks with measured margins.

Every check returns a VerificationReport whose ``margin`` is the distance to
its acceptance boundary with the stated tolerance already folded in, so
``passed`` is equivalent to ``margin >= 0``.  A check whose claim is a strict
inequality takes tolerance 0: its margin is the inequality's own slack.
Margins are reported raw; a failing check shows how badly it failed.

Every check but ``check_solver_vs_oracle`` is a function of the fields it
certifies and reads each field's tau from its Dirichlet data (0, tau); it
solves nothing.  ``run_suite`` makes the solves its checks share: one
harmonic solve and one continuation walk, whose steps are every minimal
graph field its checks read.
``check_solver_vs_oracle`` solves on its own canonical ring, where the
exact-solution oracle of ``oracle`` lives, on n x 8 strips: it measures the
s-discretisation only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

from .field import ScalarField, _check_same_grid, _grad_norms, discrete_c2_distance
from .levelgeom import (
    LevelRangeError,
    SingularGradientError,
    TopologyError,
    extract_level,
    rank_scan,
)
from .oracle import radial_oracle
from .ring import AnnularGrid, _check_grid_size, build_grid, make_curve, make_ring
from .solve import (
    ContinuationError,
    SolveOptions,
    SolverError,
    _read_tau,
    build_supersolution,
    continuation_solve,
    solve_harmonic,
    solve_minimal_graph,
)
from .spaceform import _whole


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


# -- fields along tau ------------------------------------------------------------

def _tau(f: ScalarField, name: str) -> float:
    """The tau of a field with Dirichlet data (0, tau > 0); ValueError otherwise."""
    data = f.boundary_values
    if data is None or data[0] != 0.0 or not data[1] > 0.0:
        raise ValueError(f"{name} needs fields with Dirichlet data (0, tau > 0), got {data}")
    return data[1]


def _taus(fields: Sequence[ScalarField], least: int, name: str) -> list[float]:
    """Each field's tau (see _tau); ValueError for fewer than ``least`` fields."""
    if len(fields) < least:
        count = {2: "two", 4: "four"}[least]
        raise ValueError(f"{name} needs {count} or more fields, got {len(fields)}")
    return [_tau(f, name) for f in fields]


def _by_tau(fields: Sequence[ScalarField], least: int,
            name: str) -> tuple[list[float], list[ScalarField]]:
    """The fields' taus (see _taus) and the fields, both sorted by tau."""
    pairs = sorted(zip(_taus(fields, least, name), fields), key=lambda p: p[0])
    return [t for t, _ in pairs], [f for _, f in pairs]


def _scaled(omega_1: ScalarField, tau: float) -> ScalarField:
    """The harmonic field with data (0, tau): the problem is linear in its
    data, so it is tau times the one with data (0, 1), boundaries exact."""
    return ScalarField(grid=omega_1.grid, values=tau * omega_1.values,
                       boundary_values=(0.0, tau))


# -- checks --------------------------------------------------------------------


_STRIP = 8  # the oracle grids' ntheta, AnnularGrid's least


def check_solver_vs_oracle(grid_sizes: Sequence[int] = (64, 128, 256),
                           options: SolveOptions | None = None) -> VerificationReport:
    """Nodal solver-vs-oracle error of the radial graph of height tau = 0.3 on
    the circles of radius 1 and 2, with the observed convergence order, on one
    n x 8 strip per size n: the discrete solution there does not depend on
    theta, so the check measures the s-discretisation only.  The 5e-4 error
    budget applies once a grid reaches 256.  ValueError, before any solve,
    unless the sizes are two or more distinct whole numbers >= 8 whose strips
    the solver can index."""
    t0 = time.perf_counter()
    sizes = sorted(_whole(s, "grid_sizes entry") for s in grid_sizes)
    # an order needs two distinct sizes
    if len(set(sizes)) < max(len(sizes), 2) or sizes[0] < 8:
        raise ValueError("grid_sizes must be two or more distinct sizes >= 8")
    _check_grid_size(sizes[-1], _STRIP, "grid_sizes entry n (an n x 8 strip)")
    oracle = radial_oracle(1.0, 2.0, 0.3)
    ring = make_ring(oracle.chart, make_curve("circle", radius=2.0),
                     make_curve("circle", radius=1.0))
    errors, iterations = [], []
    for size in sizes:
        grid = build_grid(ring, size, _STRIP)
        u, report = solve_minimal_graph(grid, oracle.tau, options=options)
        if not report.converged:
            raise SolverError(f"solve at {size}x{_STRIP} did not converge")
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
    return _finish("solver-vs-oracle", margin, 5e-4,
                   "the discrete minimal graph converges to the radial solution at second order",
                   t0, extras)


def check_gradient_max_principle(f: ScalarField) -> VerificationReport:
    """Interior sup of |grad u| must not exceed the boundary sup."""
    t0 = time.perf_counter()
    norms = _grad_norms(f)
    interior = float(np.max(norms[1:-1]))
    boundary = float(np.max(np.maximum(norms[0], norms[-1])))
    extras = {"interior_max": interior, "boundary_max": boundary}
    return _finish("gradient-max-principle", boundary - interior, 0.0,
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
    go = _grad_norms(omega, slice(1, -1))
    return lv + go**2 / (2.0 * tau)


def check_supersolution(u: ScalarField, omega: ScalarField,
                        supersolution: ScalarField | None = None) -> VerificationReport:
    """The concave reparametrization of the harmonic field omega is a strict
    supersolution and dominates u, both read at the interior nodes: on the
    Dirichlet rows u = v.  tau is omega's inner Dirichlet value; u must share
    omega's grid and Dirichlet data (0, tau), else ValueError.  Passing an
    explicit ``supersolution`` replaces the built one (negative controls)."""
    t0 = time.perf_counter()
    if u.grid is not omega.grid:
        raise ValueError("fields must share one grid")
    tau = _tau(omega, "supersolution")
    if u.boundary_values != omega.boundary_values:
        raise ValueError(f"u has Dirichlet data {u.boundary_values}, "
                         f"omega {omega.boundary_values}")
    v = supersolution if supersolution is not None else build_supersolution(omega, tau)
    defect = float(np.max(_nondivergence_defect(v, omega, tau)))
    excess = float(np.max(u.values[1:-1] - v.values[1:-1]))
    extras = {"max_operator_defect": defect, "max_comparison_excess": excess}
    return _finish("supersolution", -max(defect, excess), 0.0,
                   "L v <= -|grad omega|^2/(2 tau) and u <= v on the ring",
                   t0, extras)


def check_tau_estimates(fields: Sequence[ScalarField]) -> VerificationReport:
    """Boundedness of sup|grad u^tau| / tau and of the discrete C2 Lipschitz
    constant in tau, on four or more fields u^tau (ValueError otherwise), in
    any order.  One empirical constant per field: the gradient quotient at
    tau, and the largest distance quotient over its partners (pairs closer
    than 0.05 are excluded).  Per-entry constants rather than per-pair
    quotients: the claim is one constant valid for every pair, and short-gap
    quotients probe the local modulus, which legitimately varies.  Two or
    more pairs of heights 0.05 apart are needed (ValueError otherwise): with
    none the distance band is 1 by construction, and with one every distance
    constant is that pair's quotient.  extras keep the fields' order."""
    t0 = time.perf_counter()
    taus = _taus(fields, 4, "tau-estimates")
    pairs = [(i, j) for i in range(len(taus)) for j in range(i + 1, len(taus))
             if abs(taus[j] - taus[i]) >= 0.05]
    if len({frozenset((taus[i], taus[j])) for i, j in pairs}) < 2:
        raise ValueError(f"tau-estimates needs two or more pairs of heights 0.05 apart, "
                         f"got heights {taus}")
    grad_constants = [float(np.max(_grad_norms(f))) / t for t, f in zip(taus, fields)]
    quotients = {(taus[i], taus[j]): discrete_c2_distance(fields[i], fields[j])
                 / abs(taus[j] - taus[i]) for i, j in pairs}
    distance_constants = []
    for t in taus:
        partnered = [q for pair, q in quotients.items() if t in pair]
        if partnered:
            distance_constants.append(max(partnered))

    band_grad = max(grad_constants) / min(grad_constants)
    band_dist = max(distance_constants) / min(distance_constants)
    margin = min(2.0 - band_grad, 2.0 - band_dist)
    extras = {"tau_list": taus, "gradient_constants": grad_constants,
              "distance_constants": distance_constants,
              "pair_quotients": {f"{a}-{b}": q for (a, b), q in quotients.items()},
              "gradient_band": band_grad, "distance_band": band_dist}
    return _finish("tau-estimates", margin, 2.0,
                   "sup|grad u^tau| ~ tau and C2 distance ~ |t - tau| with bounded constants",
                   t0, extras)


def check_small_tau_regime(fields: Sequence[ScalarField],
                           omega_1: ScalarField) -> VerificationReport:
    """For small tau the minimal graph stays within const * tau^2 of the
    harmonic field in discrete C2, on two or more fields u^tau (the suite
    reads tau = 0.01, 0.02 and 0.04) and the harmonic field omega_1 with
    data (0, 1), whose multiple tau * omega_1 is the harmonic field at tau.
    Checked as one-sided stability of the ratio q(tau) = distance / tau^2
    over the fields sorted by tau: shrinking tau must not grow q by more
    than the 1.5 band (the correction is higher order, so q typically falls)."""
    t0 = time.perf_counter()
    taus, fields = _by_tau(fields, 2, "small-tau-regime")
    if omega_1.boundary_values != (0.0, 1.0):
        raise ValueError("small-tau-regime needs the harmonic field with data (0, 1), "
                         f"got {omega_1.boundary_values}")
    qs = [discrete_c2_distance(f, _scaled(omega_1, t)) / t**2 for t, f in zip(taus, fields)]
    # ascending tau pairs: q at the smaller tau vs 1.5x q at the larger
    margin = min(1.5 * qs[i + 1] - qs[i] for i in range(len(qs) - 1))
    extras = {"tau_list": taus, "ratios": qs}
    return _finish("small-tau-regime", margin, 1.5,
                   "discrete C2 distance between u^tau and the harmonic field is O(tau^2)",
                   t0, extras)


def check_convexity_and_rank(f: ScalarField,
                             levels: Sequence[float] | None = None) -> VerificationReport:
    """Every extracted level curve is strictly convex, and the level-Hessian
    rank is constant over the interior: every nodal curvature is positive.

    Without ``levels`` the levels are tau k / 9, k = 1..8, with tau from the
    field's Dirichlet data (0, tau > 0), and other data is a ValueError;
    explicit levels are read on any field."""
    t0 = time.perf_counter()
    name = "convexity-and-rank"
    claim = "level sets are strictly convex and their curvature rank is constant"
    if levels is None:
        tau = _tau(f, name)
        levels = [tau * k / 9.0 for k in range(1, 9)]

    kappa_mins = {}
    try:
        for c in levels:
            kappa_mins[float(c)] = extract_level(f, float(c)).kappa_min
        scan = rank_scan(f)
    except (SingularGradientError, TopologyError, LevelRangeError) as exc:
        return _finish(name, -1.0, 0.0, claim, t0,
                       {"error": str(exc), "kappa_min_by_level": kappa_mins})

    kappa_min = min(kappa_mins.values())
    rank_target = f.grid.ring.chart.dim - 1
    rank_ok = scan.constant_rank and scan.min_rank == rank_target
    margin = kappa_min if rank_ok else -1.0
    extras = {"kappa_min_by_level": kappa_mins, "kappa_min": kappa_min,
              "rank_min": scan.min_rank, "rank_max": scan.max_rank,
              "lambda_min": scan.lambda_min, "rank_threshold": scan.threshold}
    return _finish(name, margin, 0.0, claim, t0, extras)


def check_gradient_monotonicity(f: ScalarField) -> VerificationReport:
    """u grows strictly along its own gradient: 2 grad.hess.grad > 0 at 99%
    of interior nodes and >= 0 at every one."""
    t0 = time.perf_counter()
    table = f.jet_table()
    g, h = table["grad"][1:-1], table["hess"][1:-1]
    q = 2.0 * np.einsum("...i,...ij,...j->...", g, h, g)
    fraction = float(np.mean(q > 0.0))
    strict = fraction >= 0.99
    margin = min(float(np.min(q)), fraction - 0.99)
    extras = {"min_q": float(np.min(q)), "positive_fraction": fraction,
              "strict": strict}
    return _finish("gradient-monotonicity", margin, 0.0,
                   "|grad u|^2 increases along the gradient direction",
                   t0, extras)


def check_hopf_boundary_bound(fields: Sequence[ScalarField]) -> VerificationReport:
    """min over the outer boundary of |grad u^tau| is positive and does not
    decrease in tau, on two or more fields u^tau sorted by tau that share a
    grid (ValueError for fewer, or for fields on different grids)."""
    t0 = time.perf_counter()
    name = "hopf-boundary-bound"
    claim = "the outer-boundary gradient stays bounded away from zero, increasing in tau"
    taus, fields = _by_tau(fields, 2, name)
    _check_same_grid(fields)
    mins = [float(np.min(_grad_norms(f, 0))) for f in fields]
    monotone = min(mins[i + 1] - mins[i] for i in range(len(mins) - 1))
    margin = min(min(mins), monotone)
    extras = {"tau_schedule": taus, "boundary_minima": mins}
    return _finish(name, margin, 0.0, claim, t0, extras)


# -- default suite -------------------------------------------------------------


@dataclass
class _SuiteRun:
    """One suite run: its inputs and the solves its checks share, one
    continuation walk and one harmonic solve."""

    grid: AnnularGrid
    tau: float
    options: SolveOptions | None
    checks: Sequence[str]

    def _heights(self, check: str) -> list[float]:
        """The walk heights the named check reads, _AT_TAU read as the suite's tau."""
        return [self.tau if t is _AT_TAU else t for t in _SUITE[check][0]]

    @cached_property
    def walk(self) -> tuple[dict[float, ScalarField], ContinuationError | None]:
        """One continuation_solve over the sorted distinct heights the selected
        checks read: the fields it reached, by tau, and the error that stopped it."""
        heights = sorted({t for name in self.checks for t in self._heights(name)})
        try:
            steps, stop = continuation_solve(self.grid, heights,
                                             options=self.options).steps, None
        except ContinuationError as exc:
            steps, stop = exc.trace.steps, exc
        return {s.tau: s.field for s in steps}, stop

    def fields(self, check: str) -> list[ScalarField]:
        """The walk's fields at the heights the named check reads, walking
        only for a check that reads some; the walk's error if it stopped
        below one of them."""
        heights = self._heights(check)
        if not heights:
            return []
        reached, stop = self.walk
        if any(t not in reached for t in heights):
            raise ContinuationError(str(stop), stop.trace)
        return [reached[t] for t in heights]

    @cached_property
    def omega_1(self) -> ScalarField:
        return solve_harmonic(self.grid, 1.0, self.options)

    @cached_property
    def omega(self) -> ScalarField:
        return _scaled(self.omega_1, self.tau)


# Each check of the suite: the walk heights whose fields it reads (_AT_TAU
# marks the suite's tau), and its call on the run and those fields.  The
# suite walks the union of its selected checks' heights, once.
_AT_TAU = object()
_SUITE: dict[str, tuple[tuple[Any, ...], Callable[..., VerificationReport]]] = {
    "solver-vs-oracle": ((), lambda r, fs: check_solver_vs_oracle(options=r.options)),
    "gradient-max-principle": ((_AT_TAU,), lambda r, fs: check_gradient_max_principle(*fs)),
    "supersolution": ((_AT_TAU,), lambda r, fs: check_supersolution(*fs, r.omega)),
    "tau-estimates": ((0.1, 0.2, 0.4, 0.8), lambda r, fs: check_tau_estimates(fs)),
    "small-tau-regime": ((0.01, 0.02, 0.04), lambda r, fs: check_small_tau_regime(fs, r.omega_1)),
    "convexity-and-rank": ((_AT_TAU,), lambda r, fs: check_convexity_and_rank(*fs)),
    "gradient-monotonicity": ((_AT_TAU,), lambda r, fs: check_gradient_monotonicity(*fs)),
    "hopf-boundary-bound": ((0.05, 0.25, 0.5, 0.75, 1.0), lambda r, fs: check_hopf_boundary_bound(fs)),
}
SUITE_CHECKS = tuple(_SUITE)


def run_suite(grid: AnnularGrid, tau: float = 0.5,
              checks: Sequence[str] | None = None,
              options: SolveOptions | None = None) -> list[VerificationReport]:
    """Run the named checks (default: all) on one grid and return the reports.

    The checks share one harmonic solve, at tau = 1: the harmonic field at
    any tau is that field scaled.  They share one continuation walk over the
    union of the heights they read, as _SUITE states them; a walk that stops
    keeps its steps, and a check that needs a height above the stop reports
    the walk's error.  runtime_s includes the solves a check triggered.  A
    check that raises gets a failed report carrying ``error``, and the rest
    still run.  The solver-vs-oracle check always runs on the canonical flat
    circle ring, where the oracle lives, at its default sizes.  Unknown or
    repeated check names and a tau outside (0, 1] raise before any check
    runs."""
    selected = SUITE_CHECKS if checks is None else tuple(checks)
    unknown = [c for c in selected if c not in SUITE_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; available: {list(SUITE_CHECKS)}")
    repeated = [c for c in SUITE_CHECKS if selected.count(c) > 1]
    if repeated:
        raise ValueError(f"repeated checks: {repeated}")
    tau = _read_tau(tau, "verify tau")

    run = _SuiteRun(grid, tau, options, selected)
    reports = []
    for name in selected:
        t0 = time.perf_counter()
        try:
            report = _SUITE[name][1](run, run.fields(name))
        except Exception as exc:
            report = VerificationReport(name=name, passed=False, margin=float("nan"),
                                        tolerance=float("nan"), claim="",
                                        runtime_s=0.0, error=str(exc))
        report.runtime_s = time.perf_counter() - t0
        reports.append(report)
    return reports
