"""Verification-harness tests.

The radial oracle's closed forms are frozen against quadrature: adaptive
quadrature after the substitution r^(n-1) = c cosh(phi), which removes the
endpoint singularity, over the whole flux range for n = 2 and 3, and a raw
quadrature of the defining integrand for n=3 (smooth for c well below
r_inner^2).  Check behavior is then pinned on the canonical flat circle ring
where level radii and curvatures have closed forms.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from convexring import verify
from convexring.field import ScalarField, sample_field
from convexring.ring import build_grid, make_curve, make_ring
from convexring.solve import (
    SolveOptions,
    continuation_solve,
    minimal_graph_residual,
    solve_harmonic,
    solve_minimal_graph,
)
from convexring.spaceform import SpaceFormChart
from convexring.verify import (
    SUITE_CHECKS,
    OracleInfeasibleError,
    check_convexity_and_rank,
    check_gradient_max_principle,
    check_gradient_monotonicity,
    check_hopf_boundary_bound,
    check_small_tau_regime,
    check_solver_vs_oracle,
    check_supersolution,
    check_tau_estimates,
    radial_height,
    radial_oracle,
    run_suite,
)


def _circle_ring():
    chart = SpaceFormChart(epsilon=0.0)
    return make_ring(chart, make_curve("circle", radius=2.0),
                     make_curve("circle", radius=1.0))


def _ellipse_ring():
    chart = SpaceFormChart(epsilon=0.0)
    return make_ring(chart, make_curve("ellipse", radii=(2.0, 1.4)),
                     make_curve("circle", radius=0.5))


# -- oracle --------------------------------------------------------------------


def test_height_matches_closed_form_n2():
    c = 0.5
    closed = c * (np.arccosh(2.0 / c) - np.arccosh(1.0 / c))
    assert radial_height(c, 1.0, 2.0, 2) == pytest.approx(closed, abs=1e-13)
    assert closed == pytest.approx(0.373239585985, abs=1e-12)


def test_height_matches_raw_quadrature_n3():
    c = 0.5
    raw, _ = quad(lambda r: c / np.sqrt(r**4 - c * c), 1.0, 2.0,
                  epsabs=1e-13, epsrel=1e-13)
    assert radial_height(c, 1.0, 2.0, 3) == pytest.approx(raw, abs=1e-11)


def _quadrature_height(c, r_lo, r_hi, n):
    """The height integral by adaptive quadrature in phi, where
    r^(n-1) = c cosh(phi) and the integrand c / ((n-1) (c cosh phi)^((n-2)/(n-1)))
    is smooth up to the turning radius."""
    a, b = (np.arccosh(max(r ** (n - 1) / c, 1.0)) for r in (r_lo, r_hi))
    power = (n - 2) / (n - 1)
    value, _ = quad(lambda phi: c / ((n - 1) * (c * np.cosh(phi)) ** power), a, b,
                    epsabs=1e-13, epsrel=1e-13, limit=200)
    return value


@pytest.mark.parametrize("n", [2, 3])
def test_height_closed_form_matches_quadrature(n):
    r_inner = 0.8
    c_sup = r_inner ** (n - 1)
    intervals = [(0.8, 1.6), (0.8, 0.8 + 1e-4), (0.9, 1.1), (1.3, 3.0), (0.8, 5.0)]
    for c in c_sup * np.array([1e-3, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-6]):
        for r_lo, r_hi in intervals:
            assert abs(radial_height(c, r_lo, r_hi, n)
                       - _quadrature_height(c, r_lo, r_hi, n)) <= 1e-12, (c, r_lo, r_hi)
    # array radii give the elementwise heights
    lo = np.array([0.8, 0.9, 1.3])
    assert np.array_equal(radial_height(0.5 * c_sup, lo, 2.0, n),
                          [radial_height(0.5 * c_sup, r, 2.0, n) for r in lo])
    with pytest.raises(ValueError):
        radial_height(0.5, 1.0, 2.0, 4)


def test_height_zero_flux_limit_and_monotonicity():
    assert radial_height(0.0, 1.0, 2.0, 2) == 0.0
    heights = [radial_height(c, 1.0, 2.0, 2) for c in (1e-6, 0.2, 0.5, 0.9)]
    assert all(a < b for a, b in zip(heights, heights[1:]))
    assert heights[0] < 1e-5


def test_oracle_hits_boundary_data():
    for n in (2, 3):
        oracle = radial_oracle(1.0, 2.0, 0.3, n)
        assert 0.0 < oracle.c < 1.0
        assert oracle.u(2.0) == pytest.approx(0.0, abs=1e-12)
        assert oracle.u(1.0) == pytest.approx(0.3, abs=1e-12)


def test_oracle_u_evaluates_arrays_pointwise():
    for n in (2, 3):
        oracle = radial_oracle(1.0, 2.0, 0.3, n)
        radii = np.linspace(1.0, 2.0, 12).reshape(3, 4)
        values = oracle.u(radii)
        assert values.shape == (3, 4)
        assert np.array_equal(values, np.vectorize(lambda r: float(oracle.u(r)))(radii))
        # radii within 1e-9 relative of the ring clamp to its boundary values
        assert oracle.u(np.array([1.0 - 1e-10, 2.0 + 1e-9])).tolist() == [oracle.u(1.0), 0.0]
        for outside in (0.99, 2.01, np.array([1.5, 2.5]), np.nan):
            with pytest.raises(ValueError, match="outside the ring"):
                oracle.u(outside)


def test_oracle_infeasible_height():
    with pytest.raises(OracleInfeasibleError) as excinfo:
        radial_oracle(1.0, 2.0, 1.4, 2)
    assert excinfo.value.max_height == pytest.approx(np.arccosh(2.0), abs=1e-10)
    with pytest.raises(ValueError):
        radial_oracle(1.0, 2.0, 0.0)
    with pytest.raises(ValueError, match="tau must be positive"):
        radial_oracle(1.0, 2.0, float("nan"))
    with pytest.raises(ValueError):
        radial_oracle(2.0, 1.0, 0.3)
    with pytest.raises(ValueError):
        radial_oracle(1.0, 2.0, 0.3, n=4)


def test_oracle_jet_matches_finite_differences():
    rng = np.random.default_rng(11)
    step = 1e-5
    for n in (2, 3):
        oracle = radial_oracle(1.0, 2.0, 0.4, n)
        points = rng.standard_normal((5, n))
        points *= (rng.uniform(1.2, 1.8, size=5) / np.linalg.norm(points, axis=1))[:, None]
        stacked = oracle.jet(points)
        for k, x in enumerate(points):
            jet = oracle.jet(x)
            for key in ("value", "grad", "hess"):
                assert np.allclose(getattr(stacked, key)[k], getattr(jet, key),
                                   rtol=0.0, atol=1e-15)
            for i in range(n):
                dx = np.zeros(n)
                dx[i] = step
                rp = float(np.linalg.norm(x + dx))
                rm = float(np.linalg.norm(x - dx))
                fd_grad = float(oracle.u(rp) - oracle.u(rm)) / (2 * step)
                assert jet.grad[i] == pytest.approx(fd_grad, abs=1e-7)
                fd_hess_row = (oracle.jet(x + dx).grad - oracle.jet(x - dx).grad) / (2 * step)
                assert np.allclose(jet.hess[i], fd_hess_row, atol=1e-6)


def test_oracle_field_residual_refines_at_second_order():
    oracle = radial_oracle(1.0, 2.0, 0.5, 2)
    ring = _circle_ring()
    errs = []
    for ns, ntheta in ((33, 96), (65, 192)):
        grid = build_grid(ring, ns, ntheta)
        f = oracle.field(grid)
        errs.append(float(np.max(np.abs(minimal_graph_residual(f)))))
    assert np.log2(errs[0] / errs[1]) > 1.8


def test_oracle_init_needs_few_newton_steps():
    oracle = radial_oracle(1.0, 2.0, 0.5, 2)
    grid = build_grid(_circle_ring(), 33, 64)
    _, report = solve_minimal_graph(grid, 0.5, init=oracle.field(grid))
    assert report.converged
    assert report.newton_iterations <= 3


# -- individual checks ---------------------------------------------------------


def test_solver_vs_oracle_check_passes_on_small_grids():
    report = check_solver_vs_oracle((17, 33, 65), tau=0.3)
    assert report.passed
    assert report.margin > 0.0
    errors = report.extras["max_errors"]
    assert all(b < a / 3.0 for a, b in zip(errors, errors[1:]))
    assert all(o > 1.8 for o in report.extras["orders"])


def test_solver_vs_oracle_zero_tau_is_trivial():
    report = check_solver_vs_oracle((9, 17), tau=0.0)
    assert report.passed
    assert report.margin == 0.0
    assert "note" in report.extras


def test_solver_vs_oracle_propagates_infeasibility():
    with pytest.raises(OracleInfeasibleError):
        check_solver_vs_oracle((9, 17), tau=1.4)


def test_max_principle_passes_on_solved_and_oracle_fields():
    grid = build_grid(_circle_ring(), 33, 64)
    u, _ = solve_minimal_graph(grid, 0.5)
    assert check_gradient_max_principle(u).passed
    oracle = radial_oracle(1.0, 2.0, 0.5, 2)
    assert check_gradient_max_principle(oracle.field(grid)).passed
    flat = ScalarField(grid=grid, values=np.full((33, 64), 0.2))
    report = check_gradient_max_principle(flat)
    assert report.passed  # 0 <= 0 with slack


def test_max_principle_negative_control():
    grid = build_grid(_circle_ring(), 33, 64)
    # slope (1 - cos(2 pi s))/2 peaks mid-ring and vanishes on both boundaries
    s = grid.s[:, None]
    ramp = (s / 2 - np.sin(2 * np.pi * s) / (4 * np.pi)) * np.ones((1, 64))
    report = check_gradient_max_principle(ScalarField(grid=grid, values=ramp))
    assert not report.passed
    assert report.margin < 0.0


def test_supersolution_check_passes():
    for ring, tau in ((_circle_ring(), 0.5), (_ellipse_ring(), 1.0)):
        grid = build_grid(ring, 33, 64)
        omega = solve_harmonic(grid, tau)
        u, rep = solve_minimal_graph(grid, tau)
        assert rep.converged
        report = check_supersolution(u, omega, tau)
        assert report.passed
        assert report.extras["max_operator_defect"] < 0.0
        assert report.extras["max_comparison_excess"] <= 0.0


def test_supersolution_negative_control_fails():
    # the solution itself is not a strict supersolution: Lu ~ 0 cannot stay
    # below -|grad omega|^2 / (2 tau)
    grid = build_grid(_circle_ring(), 33, 64)
    omega = solve_harmonic(grid, 0.5)
    u, _ = solve_minimal_graph(grid, 0.5)
    report = check_supersolution(u, omega, 0.5, supersolution=u)
    assert not report.passed
    assert report.margin < 0.0


def test_supersolution_requires_shared_grid():
    grid_a = build_grid(_circle_ring(), 9, 24)
    grid_b = build_grid(_circle_ring(), 13, 24)
    omega_a = solve_harmonic(grid_a, 0.5)
    u_b, _ = solve_minimal_graph(grid_b, 0.5)
    with pytest.raises(ValueError):
        check_supersolution(u_b, omega_a, 0.5)


def test_tau_estimates_bands_within_two():
    grid = build_grid(_circle_ring(), 33, 64)
    report = check_tau_estimates(grid, (0.1, 0.2, 0.4, 0.8))
    assert report.passed
    assert report.extras["gradient_band"] < 2.0
    assert report.extras["distance_band"] < 2.0
    assert len(report.extras["gradient_constants"]) == 4
    assert len(report.extras["pair_quotients"]) == 6


def test_tau_estimates_harmonic_control_is_linear():
    grid = build_grid(_circle_ring(), 33, 64)
    report = check_tau_estimates(grid, (0.1, 0.2, 0.4, 0.8),
                                 field_for_tau=lambda t: solve_harmonic(grid, t))
    assert report.passed
    assert report.extras["gradient_band"] == pytest.approx(1.0, abs=1e-9)
    assert report.extras["distance_band"] == pytest.approx(1.0, abs=1e-9)


def test_tau_estimates_validates_input():
    grid = build_grid(_circle_ring(), 9, 24)
    with pytest.raises(ValueError):
        check_tau_estimates(grid, (0.1, 0.2, 0.4))
    with pytest.raises(ValueError):
        check_tau_estimates(grid, (0.1, 0.2, 0.4, 1.8))


def test_small_tau_regime_ratio_is_stable():
    grid = build_grid(_circle_ring(), 33, 64)
    report = check_small_tau_regime(grid)
    assert report.passed
    qs = report.extras["ratios"]
    assert len(qs) == 3
    # the correction is higher order, so q = d / tau^2 shrinks with tau
    assert qs[0] < qs[1] < qs[2]


def test_convexity_and_rank_on_circles():
    grid = build_grid(_circle_ring(), 33, 64)
    u, _ = solve_minimal_graph(grid, 0.5)
    report = check_convexity_and_rank(u)
    assert report.passed
    assert report.extras["rank_min"] == report.extras["rank_max"] == 1
    # the flattest level is the one closest to the outer boundary; its radius
    # comes from the radial oracle
    oracle = radial_oracle(1.0, 2.0, 0.5, 2)
    level = 0.5 / 9.0
    r_level = brentq(lambda r: float(oracle.u(r)) - level, 1.0, 2.0)
    assert report.extras["kappa_min"] == pytest.approx(1.0 / r_level, rel=0.05)


def test_convexity_check_fails_on_saddle_field():
    grid = build_grid(_circle_ring(), 33, 64)
    s = grid.s[:, None]
    theta = grid.theta[None, :]
    wiggly = s + 0.08 * np.sin(5 * theta) * np.sin(np.pi * s)
    report = check_convexity_and_rank(ScalarField(grid=grid, values=wiggly),
                                      levels=(0.25, 0.5, 0.75))
    assert not report.passed
    assert report.margin < 0.0


def test_convexity_check_reports_singular_gradient_location():
    # a dead-flat plateau mid-ring gives exactly zero finite-difference
    # gradient there; the rank scan must flag it rather than classify it
    grid = build_grid(_circle_ring(), 33, 64)
    d = np.abs(grid.s - 0.5) - 0.15
    profile = np.sign(grid.s - 0.5) * np.maximum(d, 0.0) ** 3
    values = profile[:, None] * np.ones((1, 64))
    report = check_convexity_and_rank(ScalarField(grid=grid, values=values),
                                      levels=(0.02,))
    assert not report.passed
    assert "error" in report.extras
    assert "at" in report.extras["error"]


def test_convexity_check_fails_on_level_topology():
    grid = build_grid(_circle_ring(), 33, 64)
    folded = np.sin(np.pi * grid.s)[:, None] * np.ones((1, 64))
    report = check_convexity_and_rank(ScalarField(grid=grid, values=folded),
                                      levels=(0.3,))
    assert not report.passed
    assert "error" in report.extras


def test_gradient_monotonicity_on_solved_field():
    grid = build_grid(_circle_ring(), 33, 64)
    u, _ = solve_minimal_graph(grid, 0.5)
    report = check_gradient_monotonicity(u)
    assert report.passed
    assert report.extras["strict"]
    assert report.extras["positive_fraction"] == 1.0


def test_gradient_monotonicity_flags_planar_field():
    # a tilted plane has |grad u| constant: the weak bound holds but nothing
    # is strictly increasing, so the check fails and flags non-strictness
    grid = build_grid(_circle_ring(), 33, 64)
    f = sample_field(grid, lambda p: p[..., 0])
    report = check_gradient_monotonicity(f)
    assert not report.passed
    assert not report.extras["strict"]
    assert report.extras["min_q"] > -report.tolerance


def test_hopf_bound_along_continuation():
    grid = build_grid(_circle_ring(), 33, 64)
    trace = continuation_solve(grid, (0.25, 0.5, 1.0))
    report = check_hopf_boundary_bound(trace)
    assert report.passed
    minima = report.extras["boundary_minima"]
    assert all(b > a for a, b in zip(minima, minima[1:]))
    assert minima[0] > 0.0


def test_hopf_bound_single_step_is_vacuous():
    grid = build_grid(_circle_ring(), 9, 24)
    trace = continuation_solve(grid, (0.05,))
    assert len(trace.steps) == 1
    report = check_hopf_boundary_bound(trace)
    assert report.passed
    assert "insufficient" in report.extras["note"]


def test_adapted_frame_identity_on_solved_graph():
    # in the frame adapted to grad u the equation reads
    # u_nn = -(1 + u_n^2) u_tt, and both sides keep a definite sign
    grid = build_grid(_circle_ring(), 33, 64)
    u, _ = solve_minimal_graph(grid, 0.5)
    table = u.jet_table()
    g, h = table["grad"][1:-1], table["hess"][1:-1]
    gn = np.linalg.norm(g, axis=-1)
    n = g / gn[..., None]
    t = np.stack([-n[..., 1], n[..., 0]], axis=-1)
    u_nn = np.einsum("...i,...ij,...j->...", n, h, n)
    u_tt = np.einsum("...i,...ij,...j->...", t, h, t)
    assert np.min(u_nn) > 0.0
    assert np.max(u_tt) < 0.0
    defect = u_nn + (1.0 + gn**2) * u_tt
    assert np.max(np.abs(defect)) < 10.0 * grid.max_spacing**2


# -- suite ---------------------------------------------------------------------


def test_run_suite_default_checks_pass():
    reports = run_suite(oracle_grid_sizes=(17, 33))
    assert [r.name for r in reports] == list(SUITE_CHECKS)
    for report in reports:
        assert report.passed, f"{report.name}: margin {report.margin}"
        assert report.runtime_s >= 0.0
        assert report.claim


def test_run_suite_subset_and_validation():
    reports = run_suite(grid=build_grid(_circle_ring(), 9, 24),
                        checks=["gradient-max-principle"])
    assert len(reports) == 1
    assert reports[0].name == "gradient-max-principle"
    assert run_suite(checks=[]) == []
    with pytest.raises(ValueError):
        run_suite(checks=["no-such-check"])


@pytest.mark.parametrize("kwargs, message", [
    ({"checks": ["solver-vs-oracle"], "oracle_grid_sizes": [16]}, "oracle_grid_sizes"),
    ({"checks": ["solver-vs-oracle"], "oracle_grid_sizes": [16, 16]}, "oracle_grid_sizes"),
    ({"checks": ["solver-vs-oracle"], "oracle_grid_sizes": [4, 16]}, "oracle_grid_sizes"),
    ({"checks": ["solver-vs-oracle"], "oracle_grid_sizes": []}, "oracle_grid_sizes"),
    ({"checks": ["solver-vs-oracle", "small-tau-regime"], "tau": 3.0}, "verify tau"),
    ({"tau": 0.0}, "verify tau"),
    ({"tau": float("nan")}, "verify tau"),
    ({"tau": True}, "verify tau"),
], ids=["one-size", "repeated-size", "size-below-8", "no-size", "tau-above-1",
        "tau-zero", "tau-nan", "tau-bool"])
def test_run_suite_rejects_bad_inputs_before_any_solve(kwargs, message, monkeypatch):
    def no_solve(*args, **kw):
        raise AssertionError("a solve ran")

    for name in ("solve_minimal_graph", "solve_harmonic", "continuation_solve"):
        monkeypatch.setattr(verify, name, no_solve)
    with pytest.raises(ValueError, match=message):
        run_suite(grid=build_grid(_circle_ring(), 9, 24), **kwargs)
    if "oracle_grid_sizes" in kwargs:
        with pytest.raises(ValueError, match=message):
            check_solver_vs_oracle(kwargs["oracle_grid_sizes"])


def test_run_suite_reports_a_raising_check_and_runs_the_rest(monkeypatch):
    # only the continuation of hopf-boundary-bound gets options it cannot
    # meet, so that check raises while the shared solve of the others succeeds
    stalling = SolveOptions(newton_tol=1e-30, max_newton=6, min_step=0.6)
    real = verify.continuation_solve
    monkeypatch.setattr(verify, "continuation_solve",
                        lambda grid, targets, options=None: real(grid, targets, stalling))
    names = ["gradient-max-principle", "hopf-boundary-bound", "gradient-monotonicity"]
    reports = run_suite(grid=build_grid(_circle_ring(), 9, 24), checks=names)
    assert [r.name for r in reports] == names
    first, failed, last = reports
    assert not failed.passed
    assert np.isnan(failed.margin)
    assert "continuation stalled" in failed.error
    assert failed.runtime_s > 0.0
    for report in (first, last):
        assert report.error is None
        assert np.isfinite(report.margin)


def test_run_suite_check_runtime_includes_its_solves(monkeypatch):
    traces = []
    real = verify.continuation_solve

    def recording(*args, **kwargs):
        traces.append(real(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(verify, "continuation_solve", recording)
    report, = run_suite(grid=build_grid(_circle_ring(), 17, 32),
                        checks=["hopf-boundary-bound"])
    trace, = traces
    assert len(trace.steps) == 5
    assert report.runtime_s >= sum(step.report.wall_time for step in trace.steps)


def test_run_suite_solves_once_when_the_shared_solve_fails(monkeypatch):
    # a solve that does not converge is remembered, not repeated by each check
    calls = []
    real = verify.solve_minimal_graph

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "solve_minimal_graph", counting)
    names = ["gradient-max-principle", "supersolution", "convexity-and-rank",
             "gradient-monotonicity"]
    reports = run_suite(grid=build_grid(_circle_ring(), 9, 24), checks=names,
                        options=SolveOptions(newton_tol=1e-30))
    assert len(calls) == 1
    assert [r.name for r in reports] == names
    assert all(not r.passed for r in reports)
    assert {r.error for r in reports} == {"suite solve at tau=0.5 did not converge"}
