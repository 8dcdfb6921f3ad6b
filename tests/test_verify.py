"""Verification-harness tests.

The radial oracle's closed forms are frozen against quadrature: adaptive
quadrature after the substitution r^(n-1) = c cosh(phi), which removes the
endpoint singularity, over the whole flux range for n = 2 and 3, and a raw
quadrature of the defining integrand for n=3 (smooth for c well below
r_inner^2).  Check behavior is then pinned on the canonical flat circle ring
where level radii and curvatures have closed forms.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from convexring import solve, verify
from convexring.field import ScalarField, sample_field
from convexring.ring import build_grid, make_curve, make_ring
from convexring.solve import (
    SolveOptions,
    continuation_solve,
    minimal_graph_residual,
    solve_harmonic,
    solve_minimal_graph,
)
from convexring.oracle import OracleInfeasibleError, radial_height, radial_oracle
from convexring.spaceform import SpaceFormChart
from convexring.verify import (
    SUITE_CHECKS,
    check_convexity_and_rank,
    check_gradient_max_principle,
    check_gradient_monotonicity,
    check_hopf_boundary_bound,
    check_small_tau_regime,
    check_solver_vs_oracle,
    check_supersolution,
    check_tau_estimates,
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


def _readme_ring():
    return make_ring(SpaceFormChart(epsilon=0.0), make_curve("ellipse", radii=(3.0, 2.0)),
                     make_curve("ellipse", radii=(1.2, 0.8)))


def _spacing(grid):
    """h: the longest node edge, along s or, with the wrap, along theta."""
    ds = np.linalg.norm(np.diff(grid.nodes, axis=0), axis=-1)
    dt = np.linalg.norm(np.roll(grid.nodes, -1, axis=1) - grid.nodes, axis=-1)
    return float(max(ds.max(), dt.max()))


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
    with pytest.raises(ValueError, match="tau must be positive"):
        radial_oracle(1.0, 2.0, 0.0)
    with pytest.raises(ValueError, match="tau must be finite"):
        radial_oracle(1.0, 2.0, float("nan"))
    # the radii and tau are finite numbers: an infinite radius is no infeasible height
    for args, message in (((1.0, np.inf, 0.3), "r_outer must be finite"),
                          ((True, 2.0, 0.3), "r_inner must be a number"),
                          ((1.0, 2.0, "0.3"), "tau must be a number")):
        with pytest.raises(ValueError, match=message) as excinfo:
            radial_oracle(*args)
        assert not isinstance(excinfo.value, OracleInfeasibleError)
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
    report = check_solver_vs_oracle((17, 33, 65))
    assert report.passed
    assert report.margin > 0.0
    errors = report.extras["max_errors"]
    assert all(b < a / 3.0 for a, b in zip(errors, errors[1:]))
    assert all(o > 1.8 for o in report.extras["orders"])


def test_solver_vs_oracle_strips_match_square_grids(monkeypatch):
    # on concentric circles the discrete solution does not depend on theta,
    # so the check's n x 8 strips give the nodal errors of n x n grids
    shapes, build = [], verify.build_grid
    monkeypatch.setattr(verify, "build_grid",
                        lambda ring, ns, nt: shapes.append((ns, nt)) or build(ring, ns, nt))
    sizes = (17, 33)
    report = check_solver_vs_oracle(sizes)
    assert shapes == [(17, 8), (33, 8)]
    oracle = radial_oracle(1.0, 2.0, 0.3)
    for n, strip_error in zip(sizes, report.extras["max_errors"]):
        u, _ = solve_minimal_graph(build_grid(_circle_ring(), n, n), oracle.tau)
        assert np.max(np.ptp(u.values, axis=1)) <= 1e-14
        radii = np.linalg.norm(u.grid.nodes, axis=-1)
        error = float(np.max(np.abs(u.values - oracle.u(radii))))
        assert strip_error == pytest.approx(error, rel=1e-8)


def test_max_principle_passes_on_solved_and_oracle_fields():
    grid = build_grid(_circle_ring(), 33, 64)
    u, _ = solve_minimal_graph(grid, 0.5)
    assert check_gradient_max_principle(u).passed
    oracle = radial_oracle(1.0, 2.0, 0.5, 2)
    assert check_gradient_max_principle(oracle.field(grid)).passed
    flat = ScalarField(grid=grid, values=np.full((33, 64), 0.2))
    report = check_gradient_max_principle(flat)
    # |grad u| is 0 inside, and roundoff of the one-sided stencils on the
    # boundary rows
    assert report.passed and report.extras["interior_max"] == 0.0


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
        report = check_supersolution(u, omega)
        assert report.passed
        assert report.extras["max_operator_defect"] < 0.0
        assert report.extras["max_comparison_excess"] < 0.0


def test_supersolution_negative_control_fails():
    # the solution itself is not a strict supersolution: Lu ~ 0 cannot stay
    # below -|grad omega|^2 / (2 tau)
    grid = build_grid(_circle_ring(), 33, 64)
    omega = solve_harmonic(grid, 0.5)
    u, _ = solve_minimal_graph(grid, 0.5)
    report = check_supersolution(u, omega, supersolution=u)
    assert not report.passed
    assert report.margin < 0.0


def test_supersolution_requires_shared_grid():
    grid_a = build_grid(_circle_ring(), 9, 24)
    grid_b = build_grid(_circle_ring(), 13, 24)
    omega_a = solve_harmonic(grid_a, 0.5)
    u_b, _ = solve_minimal_graph(grid_b, 0.5)
    with pytest.raises(ValueError):
        check_supersolution(u_b, omega_a)


def test_supersolution_requires_matching_dirichlet_data():
    # tau is read from omega: a u at another height is a ValueError, not a
    # failed claim
    grid = build_grid(_circle_ring(), 9, 24)
    omega = solve_harmonic(grid, 0.5)
    u, _ = solve_minimal_graph(grid, 1.0)
    with pytest.raises(ValueError, match=r"Dirichlet data \(0.0, 1.0\), omega \(0.0, 0.5\)"):
        check_supersolution(u, omega)
    with pytest.raises(ValueError, match="Dirichlet data"):
        check_supersolution(u, ScalarField(grid=grid, values=omega.values))


def _walk_fields(grid, taus):
    trace = continuation_solve(grid, sorted(set(taus)))
    by_tau = {s.tau: s.field for s in trace.steps}
    return [by_tau[t] for t in taus]


def test_tau_estimates_bands_within_two():
    grid = build_grid(_circle_ring(), 33, 64)
    report = check_tau_estimates(_walk_fields(grid, (0.1, 0.2, 0.4, 0.8)))
    assert report.passed
    assert report.extras["gradient_band"] < 2.0
    assert report.extras["distance_band"] < 2.0
    assert len(report.extras["gradient_constants"]) == 4
    assert len(report.extras["pair_quotients"]) == 6


def test_tau_estimates_harmonic_control_is_linear():
    grid = build_grid(_circle_ring(), 33, 64)
    report = check_tau_estimates([solve_harmonic(grid, t) for t in (0.1, 0.2, 0.4, 0.8)])
    assert report.passed
    assert report.extras["gradient_band"] == pytest.approx(1.0, abs=1e-9)
    assert report.extras["distance_band"] == pytest.approx(1.0, abs=1e-9)


def _fields_without_dirichlet_data(grid, like):
    """Fields on grid whose data are not (0, tau > 0): none, a nonzero outer
    value, and tau = 0."""
    flat = ScalarField(grid=grid, values=np.zeros_like(like.values))
    lifted = ScalarField(grid=grid, values=like.values + 0.1,
                         boundary_values=(0.1, like.boundary_values[1] + 0.1))
    zero = ScalarField(grid=grid, values=flat.values, boundary_values=(0.0, 0.0))
    return flat, lifted, zero


def test_tau_estimates_validates_input():
    grid = build_grid(_circle_ring(), 9, 24)
    omegas = [solve_harmonic(grid, t) for t in (0.1, 0.2, 0.4, 0.8)]
    with pytest.raises(ValueError, match="four or more fields, got 3"):
        check_tau_estimates(omegas[:3])
    for bad in _fields_without_dirichlet_data(grid, omegas[0]):
        with pytest.raises(ValueError, match=r"Dirichlet data \(0, tau > 0\)"):
            check_tau_estimates(omegas[:3] + [bad])


def test_tau_estimates_needs_two_pairs_of_heights_apart():
    # with no pair of heights 0.05 apart the distance band is 1 by
    # construction, and with one pair both constants are its quotient: a
    # verdict on these heights would be vacuous
    grid = build_grid(_circle_ring(), 9, 24)
    for taus in ((0.1, 0.11, 0.12, 0.13), (0.1, 0.11, 0.12, 0.155),
                 (0.1, 0.2, 0.2, 0.1)):
        omegas = [solve_harmonic(grid, t) for t in taus]
        with pytest.raises(ValueError, match="two or more pairs of heights 0.05 apart"):
            check_tau_estimates(omegas)
    # two pairs are enough: (0.1, 0.155) and (0.104, 0.155)
    report = check_tau_estimates([solve_harmonic(grid, t) for t in (0.1, 0.104, 0.14, 0.155)])
    assert len(report.extras["pair_quotients"]) == 2


def test_small_tau_and_hopf_validate_their_fields():
    grid = build_grid(_circle_ring(), 9, 24)
    omegas = [solve_harmonic(grid, t) for t in (0.01, 0.02)]
    omega_1 = solve_harmonic(grid, 1.0)
    with pytest.raises(ValueError, match="two or more fields, got 1"):
        check_small_tau_regime(omegas[:1], omega_1)
    for bad in _fields_without_dirichlet_data(grid, omegas[0]):
        with pytest.raises(ValueError, match=r"Dirichlet data \(0, tau > 0\)"):
            check_small_tau_regime([omegas[0], bad], omega_1)
        with pytest.raises(ValueError, match=r"Dirichlet data \(0, tau > 0\)"):
            check_hopf_boundary_bound([omegas[0], bad])
    # hopf's fields share one grid: on a finer grid of the same ring the
    # boundary minima are not the same quantity
    finer = solve_harmonic(grid.refine(), 0.02)
    with pytest.raises(ValueError, match="same grid"):
        check_hopf_boundary_bound([omegas[0], finer])
    # omega_1 must carry the data (0, 1)
    for not_omega_1 in (omegas[1], ScalarField(grid=grid, values=omega_1.values)):
        with pytest.raises(ValueError, match=r"data \(0, 1\)"):
            check_small_tau_regime(omegas, not_omega_1)


def test_tau_estimates_accepts_any_order_and_repeats():
    # a repeated height adds no pair; the constants keep the fields' order
    grid = build_grid(_circle_ring(), 17, 32)
    sorted_report = check_tau_estimates(_walk_fields(grid, (0.1, 0.2, 0.4, 0.8)))
    for taus in ((0.8, 0.1, 0.4, 0.2), (0.1, 0.2, 0.4, 0.2, 0.8)):
        report = check_tau_estimates(_walk_fields(grid, taus))
        assert report.margin == sorted_report.margin
        assert report.extras["tau_list"] == list(taus)


def test_harmonic_field_scales_with_its_data():
    # the suite's one harmonic solve at tau = 1, scaled, is the harmonic
    # field at tau up to the harmonic solve's residual target
    ring = make_ring(SpaceFormChart(epsilon=1.0), make_curve("ellipse", radii=(1.2, 0.8)),
                     make_curve("ellipse", radii=(0.48, 0.32)))
    for grid in (build_grid(_circle_ring(), 17, 32), build_grid(ring, 33, 64)):
        omega_1 = solve_harmonic(grid, 1.0)
        for tau in (0.01, 0.04, 0.25, 0.5, 1.0):
            scaled = verify._scaled(omega_1, tau)
            assert scaled.boundary_values == (0.0, tau)
            assert np.all(scaled.values[-1] == tau)
            direct = solve_harmonic(grid, tau).values
            assert np.max(np.abs(scaled.values - direct)) <= 1e-10 * tau


def test_small_tau_regime_ratio_is_stable():
    grid = build_grid(_circle_ring(), 33, 64)
    report = check_small_tau_regime(_walk_fields(grid, (0.01, 0.02, 0.04)),
                                    solve_harmonic(grid, 1.0))
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


def test_convexity_check_without_levels_needs_data_zero_tau():
    # the default levels tau k / 9 need Dirichlet data (0, tau > 0); explicit
    # levels are read on any field
    grid = build_grid(_circle_ring(), 33, 64)
    s = np.repeat(grid.s[:, None], grid.ntheta, axis=1)
    for data in ((0.2, 1.0), (0.0, -1.0), None):
        values = s if data is None else data[0] + (data[1] - data[0]) * s
        field = ScalarField(grid=grid, values=values, boundary_values=data)
        with pytest.raises(ValueError, match=r"Dirichlet data \(0, tau > 0\)"):
            check_convexity_and_rank(field)
        lo, hi = sorted(data or (0.0, 1.0))
        report = check_convexity_and_rank(field, levels=(0.5 * (lo + hi),))
        assert list(report.extras["kappa_min_by_level"]) == [0.5 * (lo + hi)]


def test_gradient_monotonicity_on_solved_field():
    grid = build_grid(_circle_ring(), 33, 64)
    u, _ = solve_minimal_graph(grid, 0.5)
    report = check_gradient_monotonicity(u)
    assert report.passed
    assert report.extras["strict"]
    assert report.extras["positive_fraction"] == 1.0


def test_gradient_monotonicity_flags_planar_field():
    # a tilted plane has |grad u| constant: q = 0 in the continuum, so
    # nothing is strictly increasing and the sampled q takes either sign;
    # both halves fail
    grid = build_grid(_circle_ring(), 33, 64)
    f = sample_field(grid, lambda p: p[..., 0])
    report = check_gradient_monotonicity(f)
    assert not report.passed and report.tolerance == 0.0
    assert not report.extras["strict"]
    assert report.extras["positive_fraction"] < 0.99
    assert report.extras["min_q"] < 0.0


def test_gradient_monotonicity_negative_control():
    # a solved field with one interior node raised so that q = -0.1 there:
    # the strict fraction still holds, the pointwise bound does not
    grid = build_grid(_circle_ring(), 33, 64)
    u, _ = solve_minimal_graph(grid, 0.5)
    i, j = 16, 0

    def raised(delta):
        values = u.values.copy()
        values[i, j] += delta
        f = ScalarField(grid=grid, values=values, boundary_values=u.boundary_values)
        table = f.jet_table()
        g, h = table["grad"][i, j], table["hess"][i, j]
        return f, 2.0 * g @ h @ g

    # the node's own gradient stencil skips it, so its q is linear in delta
    q0, q1 = raised(0.0)[1], raised(1e-3)[1]
    f, q = raised(1e-3 * (-0.1 - q0) / (q1 - q0))
    assert q == pytest.approx(-0.1, abs=1e-12)
    report = check_gradient_monotonicity(f)
    assert report.extras["positive_fraction"] >= 0.99 and report.extras["strict"]
    assert report.extras["min_q"] == pytest.approx(-0.1, abs=1e-12)
    assert not report.passed
    assert report.margin == pytest.approx(-0.1, abs=1e-12)


def test_hopf_bound_along_continuation():
    grid = build_grid(_circle_ring(), 33, 64)
    trace = continuation_solve(grid, (0.25, 0.5, 1.0))
    report = check_hopf_boundary_bound([s.field for s in trace.steps])
    assert report.passed
    minima = report.extras["boundary_minima"]
    assert all(b > a for a, b in zip(minima, minima[1:]))
    assert minima[0] > 0.0


def test_hopf_bound_negative_control():
    # u = a s + b s^2 with s = 2 - r on circles 2 / 1: data (0, a + b), and
    # |grad u| = a on the outer boundary, exactly for the one-sided stencil.
    # The minimum drops from 0.5 at tau = 0.25 to 0.4 at tau = 0.5
    grid = build_grid(_circle_ring(), 33, 64)
    s = grid.s[:, None] * np.ones((1, grid.ntheta))
    fields = [ScalarField(grid=grid, values=a * s + b * s**2, boundary_values=(0.0, a + b))
              for a, b in ((0.5, -0.25), (0.4, 0.1))]
    report = check_hopf_boundary_bound(fields)
    assert report.extras["boundary_minima"] == pytest.approx([0.5, 0.4], abs=1e-12)
    assert not report.passed
    assert report.margin == pytest.approx(-0.1, abs=1e-12)


def test_hopf_bound_single_step_is_vacuous():
    # one step has nothing to compare: an error, not a vacuous pass
    grid = build_grid(_circle_ring(), 9, 24)
    trace = continuation_solve(grid, (0.05,))
    assert len(trace.steps) == 1
    with pytest.raises(ValueError, match="two or more fields, got 1"):
        check_hopf_boundary_bound([s.field for s in trace.steps])


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
    assert np.max(np.abs(defect)) < 10.0 * _spacing(grid)**2


# -- suite ---------------------------------------------------------------------


def test_run_suite_default_checks_pass():
    reports = run_suite(build_grid(_circle_ring(), 33, 64))
    assert [r.name for r in reports] == list(SUITE_CHECKS)
    for report in reports:
        assert report.passed, f"{report.name}: margin {report.margin}"
        assert report.runtime_s >= 0.0
        assert report.claim


@pytest.mark.parametrize("ns, ntheta", [(17, 32), (33, 64), (65, 128)])
def test_run_suite_passes_every_check_on_the_readme_ring(ns, ntheta):
    reports = run_suite(build_grid(_readme_ring(), ns, ntheta))
    assert [r.name for r in reports] == list(SUITE_CHECKS)
    for report in reports:
        assert report.passed, f"{report.name}: margin {report.margin}"


_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_FIELD_CHECKS = [c for c in SUITE_CHECKS if c != "solver-vs-oracle"]


def test_field_checks_pass_on_the_benchmark_rings():
    # the README ring with each seed's perturbed semi-axes and inner centre
    # (workloads.ring_spec), built as the benchmark builds it
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for seed in range(1, 11):
        grid = build_grid(workloads.build_ring(seed), 33, 64)
        for report in run_suite(grid, checks=_FIELD_CHECKS):
            assert report.passed, f"seed {seed}, {report.name}: margin {report.margin}"


@pytest.mark.parametrize("ns, ntheta", [(17, 32), (33, 64), (65, 128)])
def test_single_field_checks_pass_on_the_exact_radial_graph(ns, ntheta):
    f = radial_oracle(1.0, 2.0, 0.5).field(build_grid(_circle_ring(), ns, ntheta))
    for check in (check_gradient_max_principle, check_convexity_and_rank,
                  check_gradient_monotonicity):
        report = check(f)
        assert report.passed, f"{report.name}: margin {report.margin}"


def test_run_suite_subset_and_validation():
    reports = run_suite(grid=build_grid(_circle_ring(), 9, 24),
                        checks=["gradient-max-principle"])
    assert len(reports) == 1
    assert reports[0].name == "gradient-max-principle"
    grid = build_grid(_circle_ring(), 33, 64)
    assert run_suite(grid, checks=[]) == []
    with pytest.raises(ValueError):
        run_suite(grid, checks=["no-such-check"])


@pytest.mark.parametrize("name", SUITE_CHECKS)
def test_run_suite_check_alone_walks_exactly_its_heights(name, monkeypatch):
    # the walk's solves run through the solve module; the oracle check's
    # solves, on grids of its own, through verify's
    solved = []
    real = solve.solve_minimal_graph

    def recording(grid, tau, *args, **kwargs):
        solved.append(tau)
        return real(grid, tau, *args, **kwargs)

    monkeypatch.setattr(solve, "solve_minimal_graph", recording)
    report, = run_suite(build_grid(_circle_ring(), 17, 32), tau=0.3, checks=[name])
    assert report.name == name
    assert report.error is None
    declared = [0.3 if t is verify._AT_TAU else t for t in verify._SUITE[name][0]]
    assert solved == sorted(set(declared))


# the oracle's sizes are check_solver_vs_oracle's own; run_suite takes none
@pytest.mark.parametrize("kwargs, message", [
    ({"grid_sizes": [16]}, "grid_sizes"),
    ({"grid_sizes": [16, 16]}, "grid_sizes"),
    ({"grid_sizes": [4, 16]}, "grid_sizes"),
    ({"grid_sizes": []}, "grid_sizes"),
    ({"checks": ["supersolution", "tau-estimates", "supersolution", "supersolution"]},
     r"repeated checks: \['supersolution'\]"),
    ({"checks": ["solver-vs-oracle", "small-tau-regime"], "tau": 3.0}, "verify tau"),
    ({"tau": 0.0}, "verify tau"),
    ({"tau": float("nan")}, "verify tau"),
    ({"tau": True}, "verify tau"),
    ({"tau": "0.5"}, "verify tau"),
    ({"grid_sizes": [16.7, 32.9]}, "whole number"),
    ({"grid_sizes": [16, float("inf")]}, "whole number"),
    # n x 8 Jacobians past the solver's int32 sparse indices: 9 (n - 2) 8 entries
    # exceed 2**31 - 1 from n = 29826164 on
    ({"grid_sizes": [16, 10**400]}, r"grid_sizes entry n \(an n x 8 strip\) too large"),
    ({"grid_sizes": [10**8, 16]}, r"grid_sizes entry n \(an n x 8 strip\) too large"),
], ids=["one-size", "repeated-size", "size-below-8", "no-size", "repeated-check", "tau-above-1",
        "tau-zero", "tau-nan", "tau-bool", "tau-string", "size-fraction", "size-inf",
        "size-huge", "size-million"])
def test_run_suite_rejects_bad_inputs_before_any_solve(kwargs, message, monkeypatch):
    def no_solve(*args, **kw):
        raise AssertionError("a solve ran")

    for name in ("solve_minimal_graph", "solve_harmonic", "continuation_solve"):
        monkeypatch.setattr(verify, name, no_solve)
    with pytest.raises(ValueError, match=message):
        if "grid_sizes" in kwargs:
            check_solver_vs_oracle(**kwargs)
        else:
            run_suite(grid=build_grid(_circle_ring(), 9, 24), **kwargs)


def test_run_suite_reports_a_raising_check_and_runs_the_rest(monkeypatch):
    # the walk gets options it cannot meet only at tau = 1, so
    # hopf-boundary-bound raises while u at tau = 0.5, read by the others,
    # is still reached
    stalling = SolveOptions(newton_tol=1e-30, max_newton=6, min_step=0.6)
    real = solve.solve_minimal_graph

    def stalls_at_one(grid, tau, options=None, init=None):
        return real(grid, tau, options=stalling if tau == 1.0 else options, init=init)

    monkeypatch.setattr(solve, "solve_minimal_graph", stalls_at_one)
    names = ["gradient-max-principle", "hopf-boundary-bound", "gradient-monotonicity"]
    reports = run_suite(grid=build_grid(_circle_ring(), 9, 24), checks=names)
    assert [r.name for r in reports] == names
    first, failed, last = reports
    assert not failed.passed
    assert np.isnan(failed.margin)
    assert failed.error.startswith("continuation stalled at tau=1.0")
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
    # the checks that read u share the walk's one step at tau; a step that
    # does not converge stops the walk once, and each check reports its error
    calls = {"walk": 0, "solve": 0}
    for module, name, key in ((verify, "continuation_solve", "walk"),
                              (solve, "solve_minimal_graph", "solve")):
        real = getattr(module, name)

        def counting(*args, real=real, key=key, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    names = ["gradient-max-principle", "supersolution", "convexity-and-rank",
             "gradient-monotonicity"]
    reports = run_suite(grid=build_grid(_circle_ring(), 9, 24), checks=names,
                        options=SolveOptions(newton_tol=1e-30))
    assert calls == {"walk": 1, "solve": 1}
    assert [r.name for r in reports] == names
    assert all(not r.passed and np.isnan(r.margin) for r in reports)
    errors = {r.error for r in reports}
    assert len(errors) == 1
    assert errors.pop().startswith("continuation stalled at tau=0.5: max residual ")


_RING_CHECKS = ["tau-estimates", "small-tau-regime", "hopf-boundary-bound"]


def test_run_suite_ring_checks_agree_with_the_standalone_checks():
    # the suite's one walk against the checks called on one walk over the
    # same heights and one harmonic solve
    grid = build_grid(_circle_ring(), 17, 32)
    suite = {r.name: r for r in run_suite(grid, checks=_RING_CHECKS)}
    heights = {name: verify._SUITE[name][0] for name in _RING_CHECKS}
    trace = continuation_solve(grid, sorted({t for ts in heights.values() for t in ts}))
    by_tau = {s.tau: s.field for s in trace.steps}

    def fields(name):
        return [by_tau[t] for t in heights[name]]

    alone = {
        "tau-estimates": check_tau_estimates(fields("tau-estimates")),
        "small-tau-regime": check_small_tau_regime(fields("small-tau-regime"),
                                                   solve_harmonic(grid, 1.0)),
        "hopf-boundary-bound": check_hopf_boundary_bound(fields("hopf-boundary-bound")),
    }
    for name, report in alone.items():
        assert suite[name].error is None
        assert suite[name].passed == report.passed
        assert suite[name].margin == report.margin, name
        assert suite[name].extras == report.extras, name
    # the boundary minima read from the jet tables are the walk's own
    minima = {s.tau: s.outer_boundary_min_gradient for s in trace.steps}
    hopf = alone["hopf-boundary-bound"].extras
    assert hopf["boundary_minima"] == [minima[t] for t in hopf["tau_schedule"]]


def test_field_checks_solve_nothing(monkeypatch):
    grid = build_grid(_circle_ring(), 17, 32)
    trace = continuation_solve(grid, [0.01, 0.02, 0.04, 0.05, 0.1, 0.2, 0.4, 0.8])
    by_tau = {s.tau: s.field for s in trace.steps}
    u, omega, omega_1 = by_tau[0.4], solve_harmonic(grid, 0.4), solve_harmonic(grid, 1.0)

    def refuse(*args, **kwargs):
        raise AssertionError("a field check solved")

    for name in ("solve_minimal_graph", "solve_harmonic", "continuation_solve"):
        monkeypatch.setattr(verify, name, refuse)
    reports = [
        check_gradient_max_principle(u),
        check_supersolution(u, omega),
        check_tau_estimates([by_tau[t] for t in (0.1, 0.2, 0.4, 0.8)]),
        check_small_tau_regime([by_tau[t] for t in (0.01, 0.02, 0.04)], omega_1),
        check_convexity_and_rank(u),
        check_gradient_monotonicity(u),
        check_hopf_boundary_bound([by_tau[t] for t in (0.05, 0.1, 0.2, 0.4, 0.8)]),
    ]
    assert len({r.name for r in reports}) == 7
    assert all(r.error is None and np.isfinite(r.margin) for r in reports)


def test_run_suite_keeps_the_steps_of_a_stopped_walk(monkeypatch):
    grid = build_grid(_circle_ring(), 17, 32)
    unpatched = {r.name: r for r in run_suite(grid, checks=_RING_CHECKS)}
    real_solve = solve.solve_minimal_graph
    solved = []

    def stalling(grid, tau, *args, **kwargs):
        solved.append(tau)
        f, report = real_solve(grid, tau, *args, **kwargs)
        return f, dataclasses.replace(report, converged=report.converged and tau < 1.0)

    walks = []
    real_walk = verify.continuation_solve

    def counting(*args, **kwargs):
        walks.append(1)
        return real_walk(*args, **kwargs)

    monkeypatch.setattr(solve, "solve_minimal_graph", stalling)
    monkeypatch.setattr(verify, "continuation_solve", counting)
    reports = {r.name: r for r in run_suite(grid, checks=_RING_CHECKS)}
    # one solve per height of the union, up to the stall
    assert len(walks) == 1
    assert solved == [0.01, 0.02, 0.04, 0.05, 0.1, 0.2, 0.25, 0.4, 0.5, 0.75, 0.8, 1.0]
    hopf = reports["hopf-boundary-bound"]
    assert not hopf.passed and np.isnan(hopf.margin)
    assert hopf.error.startswith("continuation stalled at tau=1.0")
    for name in ("tau-estimates", "small-tau-regime"):
        assert reports[name].error is None
        assert reports[name].passed
        assert reports[name].margin == unpatched[name].margin
