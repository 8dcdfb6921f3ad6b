"""Second fundamental form, sigma_k routes, level extraction, rank, structure."""

from __future__ import annotations

import re

import numpy as np
import pytest

from convexring.field import ScalarField, sample_field
from convexring.levelgeom import (
    LevelRangeError,
    RankScan,
    SingularGradientError,
    TopologyError,
    elementary_symmetric,
    extract_level,
    fd_scalar_sampler,
    phi_test,
    principal_curvatures,
    rank_scan,
    second_fundamental_form,
    sigma_k_level,
    structure_condition_check,
)
from convexring.ring import build_grid, make_curve, make_ring
from convexring.solve import solve_minimal_graph
from convexring.spaceform import ChartDomainError, PointJet, SpaceFormChart, covariant_jet


def _circle_grid(ns=33, ntheta=64, r_inner=1.0, r_outer=2.0):
    chart = SpaceFormChart(epsilon=0.0, dim=2)
    ring = make_ring(
        chart,
        make_curve("circle", radius=r_outer),
        make_curve("circle", radius=r_inner),
    )
    return build_grid(ring, ns, ntheta)


def _random_jet(rng, n):
    g = rng.standard_normal(n)
    g *= rng.uniform(0.5, 2.0) / np.linalg.norm(g)
    a = rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    return PointJet(point=np.zeros(n), value=0.0, grad=g, hess=a)


def test_unit_circle_curvature_from_quadratic():
    # u = -|x|^2 at (1, 0): inward normal, level set is the unit circle
    jet = PointJet(
        point=np.array([1.0, 0.0]), value=-1.0,
        grad=np.array([-2.0, 0.0]), hess=-2.0 * np.eye(2),
    )
    h = second_fundamental_form(jet)
    assert h.shape == (1, 1)
    assert h[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_radial_field_curvature_matches_inverse_radius():
    # decreasing radial field: kappa = 1/r independent of the profile
    for r, slope, second in ((1.3, -0.7, 0.2), (1.9, -2.0, 1.5)):
        x = np.array([r, 0.0])
        jet = PointJet(
            point=x, value=0.0, grad=np.array([slope, 0.0]),
            hess=np.array([[second, 0.0], [0.0, slope / r]]),
        )
        assert second_fundamental_form(jet)[0, 0] == pytest.approx(1.0 / r, rel=1e-13)
        assert sigma_k_level(jet, 1) == pytest.approx(1.0 / r, rel=1e-13)


def test_sigma_routes_agree_on_random_jets():
    # 1000 random nonsingular jets in each dimension; the Hessian-contraction
    # route and the eigenvalue route must agree to 1e-10
    rng = np.random.default_rng(42)
    for n in (2, 3):
        for _ in range(1000):
            jet = _random_jet(rng, n)
            eigs = principal_curvatures(jet)
            for k in range(1, n):
                assert sigma_k_level(jet, k) == pytest.approx(
                    elementary_symmetric(eigs, k), abs=1e-10
                )


def test_sigma_k_range_validation():
    rng = np.random.default_rng(1)
    jet = _random_jet(rng, 2)
    with pytest.raises(ValueError):
        sigma_k_level(jet, 0)
    with pytest.raises(ValueError):
        sigma_k_level(jet, 2)
    jet3 = _random_jet(rng, 3)
    assert isinstance(sigma_k_level(jet3, 2), float)


def test_sigma_routes_reject_a_stacked_jet():
    # a stack of three 2D jets must not be read as one jet in dimension 3
    rng = np.random.default_rng(5)
    jets = [_random_jet(rng, 2) for _ in range(3)]
    stack = PointJet(point=np.zeros((3, 2)), value=np.zeros(3),
                     grad=np.array([j.grad for j in jets]),
                     hess=np.array([j.hess for j in jets]))
    with pytest.raises(ValueError, match="stack"):
        sigma_k_level(stack, 1)
    with pytest.raises(ValueError, match="stack"):
        phi_test(stack, 0)


def test_singular_gradient_raises():
    jet = PointJet(point=np.zeros(2), value=0.0,
                   grad=np.array([1e-10, 0.0]), hess=np.eye(2))
    with pytest.raises(SingularGradientError):
        second_fundamental_form(jet)
    with pytest.raises(SingularGradientError):
        sigma_k_level(jet, 1)
    with pytest.raises(SingularGradientError):
        phi_test(jet, 0)


def test_tangent_frame_is_deterministic():
    # normal along x: the tangent must be the y axis (least-aligned seed)
    jet = PointJet(point=np.zeros(2), value=0.0,
                   grad=np.array([3.0, 0.0]), hess=np.diag([5.0, 7.0]))
    # h_11 = -u_yy / |grad| = -7/3
    assert second_fundamental_form(jet)[0, 0] == pytest.approx(-7.0 / 3.0)
    # 3d, normal along z: tangents are x and y; h = -diag(1, 2)/1
    jet3 = PointJet(point=np.zeros(3), value=0.0,
                    grad=np.array([0.0, 0.0, 1.0]),
                    hess=np.diag([1.0, 2.0, 9.0]))
    h = second_fundamental_form(jet3)
    assert np.allclose(h, -np.diag([1.0, 2.0]))


def test_phi_values():
    # n = 2, l = 0: phi = |grad|^3 * kappa; radial profile slope gamma at r
    r, gamma = 1.5, 0.8
    jet = PointJet(
        point=np.array([r, 0.0]), value=0.0, grad=np.array([-gamma, 0.0]),
        hess=np.array([[0.3, 0.0], [0.0, -gamma / r]]),
    )
    assert phi_test(jet, 0) == pytest.approx(gamma**3 / r, rel=1e-13)
    # n = 3, l = 1, unit sphere level with |grad| = 2: 2^4 * sigma_2(1,1) = 16
    x = np.array([0.0, 0.0, 1.0])
    jet3 = PointJet(point=x, value=-1.0, grad=-2 * x, hess=-2 * np.eye(3))
    assert phi_test(jet3, 1) == pytest.approx(16.0, abs=1e-12)
    with pytest.raises(ValueError):
        phi_test(jet, 1)  # l must be <= n-2


def test_phi_matches_sigma_route():
    rng = np.random.default_rng(7)
    for n in (2, 3):
        for _ in range(50):
            jet = _random_jet(rng, n)
            for l in range(n - 1):
                norm = np.linalg.norm(jet.grad)
                assert phi_test(jet, l) == pytest.approx(
                    norm ** (l + 3) * sigma_k_level(jet, l + 1), rel=1e-9, abs=1e-11
                )


def test_extract_level_circle_geometry():
    grid = _circle_grid(ns=65, ntheta=128)
    f = sample_field(grid, lambda x: 2.0 - np.sqrt(np.sum(x * x, axis=-1)),
                     boundary_values=(0.0, 1.0))
    for c in (0.25, 0.5, 0.75):
        rep = extract_level(f, c)
        r_c = 2.0 - c
        radii = np.linalg.norm(rep.points, axis=-1)
        assert np.allclose(radii, r_c, atol=1e-10)  # linear in s: exact hit
        assert rep.kappa_min == pytest.approx(1.0 / r_c, abs=5e-3)
        assert np.allclose(rep.points[0], rep.points[-1])
        assert rep.grad_min == pytest.approx(1.0, abs=1e-6)
        # ordered by theta
        angles = np.arctan2(rep.points[:-1, 1], rep.points[:-1, 0])
        assert np.all(np.diff(np.unwrap(angles)) > 0)


def test_extract_level_range_validation():
    grid = _circle_grid(ns=9, ntheta=16)
    f = sample_field(grid, lambda x: 2.0 - np.sqrt(np.sum(x * x, axis=-1)),
                     boundary_values=(0.0, 1.0))
    with pytest.raises(LevelRangeError):
        extract_level(f, 0.0)
    with pytest.raises(LevelRangeError):
        extract_level(f, 1.2)


def test_extract_level_topology_error_on_folded_profile():
    grid = _circle_grid(ns=17, ntheta=16)
    ss, _ = np.meshgrid(grid.s, grid.theta, indexing="ij")
    values = np.sin(np.pi * ss)  # rises then falls: two crossings
    f = ScalarField(grid, values, None)
    with pytest.raises(TopologyError):
        extract_level(f, 0.5)


def test_rank_scan_radial_field_is_rank_one():
    grid = _circle_grid(ns=33, ntheta=64)
    f = sample_field(grid, lambda x: 2.0 - np.sqrt(np.sum(x * x, axis=-1)),
                     boundary_values=(0.0, 1.0))
    scan = rank_scan(f)
    assert isinstance(scan, RankScan)
    assert scan.constant_rank and scan.min_rank == 1
    # lambda_min is the smallest curvature: 1/r at the outermost interior row
    r_first_interior = 2.0 - grid.hs * (2.0 - 1.0)
    assert scan.lambda_min == pytest.approx(1.0 / r_first_interior, abs=1e-3)
    assert np.linalg.norm(scan.location) == pytest.approx(r_first_interior, abs=1e-12)


def test_rank_scan_analytic_sphere_jets():
    # u = -|x|^2: level spheres, curvatures 1/|x| twice
    points = np.array([[1.0, 0.0, 0.0], [0.0, 1.5, 0.0], [0.5, 0.5, 0.5]])
    jets = PointJet(point=points, value=-np.sum(points * points, axis=-1),
                    grad=-2 * points, hess=np.broadcast_to(-2 * np.eye(3), (3, 3, 3)))
    scan = rank_scan(jets)
    assert scan.constant_rank and scan.min_rank == 2
    assert scan.lambda_min == pytest.approx(1.0 / 1.5, rel=1e-12)


def test_rank_scan_rejects_an_empty_stack():
    empty = PointJet(point=np.zeros((0, 3)), value=np.zeros(0),
                     grad=np.zeros((0, 3)), hess=np.zeros((0, 3, 3)))
    with pytest.raises(ValueError, match="no sample points"):
        rank_scan(empty)


@pytest.fixture(scope="module")
def sphere_chart_field():
    """A solved field on an ellipse ring in the epsilon = 1 chart."""
    chart = SpaceFormChart(epsilon=1.0, dim=2)
    ring = make_ring(chart, make_curve("ellipse", radii=(0.9, 0.6)),
                     make_curve("ellipse", radii=(0.35, 0.25), center=(0.03, -0.02)))
    u, report = solve_minimal_graph(build_grid(ring, 33, 64), 0.5)
    assert report.converged
    return u


def _node_jet(f, i, j):
    """Row (i, j) of the field's jet table as one PointJet."""
    table = f.jet_table()
    return PointJet(point=f.grid.nodes[i, j], value=table["value"][i, j],
                    grad=table["grad"][i, j], hess=table["hess"][i, j])


def test_rank_scan_matches_a_per_node_loop(sphere_chart_field):
    f = sphere_chart_field
    grid = f.grid
    scan = rank_scan(f)
    jets = [_node_jet(f, i, j) for i in range(1, grid.ns - 1) for j in range(grid.ntheta)]
    eigs = [principal_curvatures(jet) for jet in jets]
    ranks = [int(np.sum(e > scan.threshold)) for e in eigs]
    first_min = int(np.argmin([e[0] for e in eigs]))
    assert scan.samples == len(jets)
    assert (scan.min_rank, scan.max_rank) == (min(ranks), max(ranks))
    assert scan.lambda_min == pytest.approx(eigs[first_min][0], rel=1e-12)
    assert np.array_equal(scan.location, jets[first_min].point)


def test_extract_level_matches_a_per_column_loop(sphere_chart_field):
    f = sphere_chart_field
    grid = f.grid
    for c in (0.1, 0.25, 0.4):
        rep = extract_level(f, c)
        grad_norms = []
        for j in range(grid.ntheta):
            col = f.values[:, j] - c
            i = next(i for i in range(grid.ns - 1) if col[i] * col[i + 1] <= 0)
            t = col[i] / (col[i] - col[i + 1])
            below, above = _node_jet(f, i, j), _node_jet(f, i + 1, j)
            point = grid.map_point(grid.s[i] + t * grid.hs, grid.theta[j])
            jet = PointJet(point=point, value=c,
                           grad=(1 - t) * below.grad + t * above.grad,
                           hess=(1 - t) * below.hess + t * above.hess)
            assert np.allclose(rep.points[j], point, rtol=0.0, atol=1e-15)
            assert rep.kappa[j] == pytest.approx(principal_curvatures(jet)[0], rel=1e-12)
            grad_norms.append(np.linalg.norm(jet.grad))
        assert rep.grad_min == pytest.approx(min(grad_norms), rel=1e-12)
        assert np.array_equal(rep.points[-1], rep.points[0])
        assert rep.kappa[-1] == rep.kappa[0]


def test_batched_geometry_names_the_first_singular_point(sphere_chart_field):
    f = sphere_chart_field
    # scaling by a power of two is exact: the same crossings, |grad u| ~ 1e-12
    scale = 2.0**-40
    tiny = ScalarField(f.grid, f.values * scale, tuple(v * scale for v in f.boundary_values))
    first_node = f.grid.nodes[1, 0].tolist()
    with pytest.raises(SingularGradientError, match=re.escape(f"at {first_node}")):
        rank_scan(tiny)
    first_point = extract_level(f, 0.25).points[0].tolist()
    with pytest.raises(SingularGradientError, match=re.escape(f"at {first_point}")):
        extract_level(tiny, 0.25 * scale)


def test_structure_condition_three_examples():
    points = np.array([[0.0, 0.0], [0.3, 0.1], [-0.2, 0.4]])

    def zero(x):
        return 0.0, np.zeros(2), np.zeros((2, 2))

    def const(x):
        return 2.0, np.zeros(2), np.zeros((2, 2))

    flat = SpaceFormChart(epsilon=0.0, dim=2)
    sphere = SpaceFormChart(epsilon=1.0, dim=2)

    rep0 = structure_condition_check(zero, flat, points)
    assert rep0.passed and rep0.min_eigenvalue == pytest.approx(0.0, abs=1e-15)

    rep1 = structure_condition_check(const, flat, points)
    assert rep1.passed and rep1.min_eigenvalue == pytest.approx(0.0, abs=1e-15)

    rep2 = structure_condition_check(const, sphere, points)
    assert not rep2.passed
    assert rep2.min_eigenvalue == pytest.approx(-4.0 * 2.0**2, rel=1e-12)
    # a NaN point is bad input, not a structure failure
    with pytest.raises(ChartDomainError):
        structure_condition_check(const, sphere, [[np.nan, 0.0]])


def test_structure_condition_flags_worst_point():
    # H = 1 + |x|^2 on the flat chart: M = 2H*2I - 3*4*x x^T at each point;
    # larger |x| drags the minimum eigenvalue down
    def sampler(x):
        h = 1.0 + np.sum(x * x, axis=-1)
        return h, 2.0 * x, 2.0 * np.eye(x.shape[-1])

    flat = SpaceFormChart(epsilon=0.0, dim=2)
    points = np.array([[0.0, 0.0], [1.0, 0.0]])
    rep = structure_condition_check(sampler, flat, points)
    m_at_1 = 2 * 2.0 * 2 * np.eye(2) - 3 * np.outer([2, 0], [2, 0])
    expected = np.linalg.eigvalsh(m_at_1)[0]
    assert rep.min_eigenvalue == pytest.approx(expected, rel=1e-12)
    assert np.allclose(rep.worst_point, [1.0, 0.0])
    assert rep.per_point[0] == pytest.approx(4.0, rel=1e-12)

    # the stacked check against a per-point loop of covariant_jet + eigvalsh,
    # plus a linear term so that the covariant correction does not vanish
    rng = np.random.default_rng(3)
    for dim in (2, 3):
        for eps in (0.0, 1.0):
            chart = SpaceFormChart(epsilon=eps, dim=dim)
            points = rng.uniform(-0.8, 0.8, size=(40, dim))
            c = rng.standard_normal(dim)

            def sampler(x):
                h = 1.0 + np.sum(x * x + c * x, axis=-1)
                return h, 2.0 * x + c, 2.0 * np.eye(dim)

            rep = structure_condition_check(sampler, chart, points)
            reference = []
            for x in points:
                jet = covariant_jet(chart, sampler, x)
                m = (2.0 * jet.value * jet.hess - 3.0 * np.outer(jet.grad, jet.grad)
                     - 4.0 * eps * jet.value**2 * np.eye(dim))
                reference.append(float(np.linalg.eigvalsh(m)[0]))
            worst = int(np.argmin(reference))
            if eps == 0.0:
                assert rep.per_point == reference
            else:
                assert rep.per_point == pytest.approx(reference, rel=1e-14, abs=0.0)
            assert rep.points_checked == len(points)
            assert rep.min_eigenvalue == pytest.approx(reference[worst], rel=1e-14, abs=0.0)
            assert np.array_equal(rep.worst_point, points[worst])


def test_fd_scalar_sampler_matches_analytic():
    def fn(x):
        return np.sin(x[..., 0]) * x[..., 1] + 0.5 * x[..., 1] ** 2

    sampler = fd_scalar_sampler(fn)
    x = np.array([0.4, -0.7])
    value, grad, hess = sampler(x)
    assert value == pytest.approx(fn(x))
    assert np.allclose(grad, [np.cos(0.4) * -0.7, np.sin(0.4) - 0.7], atol=1e-8)
    assert np.allclose(
        hess, [[0.7 * np.sin(0.4), np.cos(0.4)], [np.cos(0.4), 1.0]], atol=1e-5
    )

    # stacked points give bit for bit the per-point values of a polynomial
    def poly(x):
        x0, x1, x2 = x[..., 0], x[..., 1], x[..., -1]
        return x0 * x0 * x1 - 2.0 * x1 * x2 + 0.5 * x2 * x2 * x2 + x0

    rng = np.random.default_rng(9)
    for n in (2, 3):
        points = rng.uniform(-1.0, 1.0, size=(4, 5, n))
        stacked = fd_scalar_sampler(poly)(points)
        for idx in np.ndindex(4, 5):
            single = fd_scalar_sampler(poly)(points[idx])
            for s_part, one in zip(stacked, single):
                assert np.array_equal(s_part[idx], one)
