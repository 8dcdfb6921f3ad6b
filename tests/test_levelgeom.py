"""Second fundamental form, sigma_k routes, level extraction, rank, structure."""

from __future__ import annotations

import re

import numpy as np
import pytest

import convexring.ring
from convexring import levelgeom
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
from convexring.solve import solve_harmonic, solve_minimal_graph
from convexring.spaceform import ChartDomainError, PointJet, SpaceFormChart, covariant_jet
from traced_memory import traced_call


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
    with pytest.raises(SingularGradientError, match=r"\|grad u\| = 1\.000e-10 below floor"):
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


def _reference_form(grad, hess):
    """h = -T D2u T^T / |grad u| for one jet, T by Gram-Schmidt from the axes in
    np.argsort(|nu|, kind="stable") order."""
    norm = np.linalg.norm(grad)
    nu = grad / norm
    frame = []
    for axis in np.argsort(np.abs(nu), kind="stable")[:-1]:
        v = np.eye(len(grad))[axis]
        for t in [nu, *frame]:
            v = v - np.dot(v, t) * t
        frame.append(v / np.linalg.norm(v))
    t = np.array(frame)
    h = -t @ hess @ t.T / norm
    return 0.5 * (h + h.T)


def test_planar_tangent_is_the_turned_normal():
    # axis-aligned, tied (|nu_0| = |nu_1|) and random unit normals: one
    # tangent, a unit vector orthogonal to nu
    rng = np.random.default_rng(3)
    half = np.sqrt(0.5)
    angles = rng.uniform(-np.pi, np.pi, 1000)
    nu = np.concatenate([[(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)],
                         [(half, half), (-half, half), (-half, -half), (half, -half)],
                         np.column_stack([np.cos(angles), np.sin(angles)])]).T
    frame = levelgeom._tangent_frame(list(nu))
    assert len(frame) == 1 and len(frame[0]) == 2
    t = frame[0]
    assert np.all(t[0] * nu[0] + t[1] * nu[1] == 0.0)
    assert np.allclose(np.hypot(*t), 1.0, rtol=0.0, atol=1e-15)


def test_batched_frame_follows_the_stable_axis_rule():
    # one stacked call per dimension against a per-jet reference.  In 2-D the
    # tangent is the turned normal, the reference's up to sign, and h is
    # quadratic in it; from 3-D up the axis rule sets the frame, and the tied
    # |nu| of the constructed gradients pin ties to the lowest axis (a
    # different seed axis rotates the frame and so changes h entrywise)
    rng = np.random.default_rng(7)
    ties = {2: [(1.0, 1.0), (-1.0, 1.0)], 3: [(1.0, 1.0, 0.0), (1.0, 1.0, 1.0), (0.0, 1.0, -1.0)]}
    for n, tied in ties.items():
        jets = [_random_jet(rng, n) for _ in range(1000)]
        grad = np.vstack([np.array(tied), [jet.grad for jet in jets]])
        hess = np.array([_random_jet(rng, n).hess for _ in tied] + [jet.hess for jet in jets])
        stack = PointJet(point=np.zeros_like(grad), value=np.zeros(len(grad)), grad=grad, hess=hess)
        h = second_fundamental_form(stack)
        reference = np.array([_reference_form(g, a) for g, a in zip(grad, hess)])
        assert h.shape == (len(grad), n - 1, n - 1)
        assert np.allclose(h, reference, rtol=1e-12, atol=1e-12)


def test_grid_geometry_calls_no_eigvalsh(monkeypatch):
    # 1x1 forms are their own eigenvalues: a 2-D grid field takes no
    # per-sample LAPACK call, while 2x2 forms (dimension 3) still use eigvalsh
    grid = _circle_grid(ns=33, ntheta=64)
    f = sample_field(grid, lambda x: 2.0 - np.sqrt(np.sum(x * x, axis=-1)),
                     boundary_values=(0.0, 1.0))
    jet3 = PointJet(point=np.zeros(3), value=0.0, grad=np.array([0.0, 0.0, 1.0]),
                    hess=np.diag([1.0, 2.0, 9.0]))

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", refuse)
        scan = rank_scan(f)
        rep = extract_level(f, 0.5)
        with pytest.raises(AssertionError, match="eigvalsh called"):
            principal_curvatures(jet3)
    assert scan.constant_rank and scan.min_rank == 1
    assert rep.kappa_min == pytest.approx(1.0 / 1.5, abs=5e-3)
    assert np.allclose(principal_curvatures(jet3), [-2.0, -1.0], rtol=0.0, atol=1e-15)


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
    # the frame-free route: in 2-D sigma_1 is the one curvature
    assert scan.lambda_min == pytest.approx(min(sigma_k_level(jet, 1) for jet in jets), rel=1e-12)


def _assert_matches_a_per_column_loop(f, c):
    """extract_level(f, c) against a loop over the theta columns that takes
    each column's first edge whose end values, less c, have a product <= 0."""
    grid = f.grid
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
        assert rep.kappa[j] == pytest.approx(sigma_k_level(jet, 1), rel=1e-12)
        grad_norms.append(np.linalg.norm(jet.grad))
    assert rep.grad_min == pytest.approx(min(grad_norms), rel=1e-12)
    assert np.array_equal(rep.points[-1], rep.points[0])
    assert rep.kappa[-1] == rep.kappa[0]


def test_extract_level_matches_a_per_column_loop(sphere_chart_field):
    for c in (0.1, 0.25, 0.4):
        _assert_matches_a_per_column_loop(sphere_chart_field, c)


def test_extract_level_keeps_its_crossing_rule():
    # u = s on the README ring at 17 x 32: levels on a node row, where a hit
    # at node i > 0 belongs to edge i-1 alone; a plateau of two rows at c,
    # whose first node takes the crossing; and decreasing data
    ring = make_ring(SpaceFormChart(epsilon=0.0, dim=2), make_curve("ellipse", radii=(3.0, 2.0)),
                     make_curve("ellipse", radii=(1.2, 0.8)))
    grid = build_grid(ring, 17, 32)
    s = np.repeat(grid.s[:, None], grid.ntheta, axis=1)
    rising = ScalarField(grid, s, (0.0, 1.0))
    for c in (0.5, 0.25, 0.3):
        _assert_matches_a_per_column_loop(rising, c)
    plateau = s.copy()
    plateau[9] = 0.5  # rows 8 and 9 both equal the level
    _assert_matches_a_per_column_loop(ScalarField(grid, plateau, (0.0, 1.0)), 0.5)
    falling = ScalarField(grid, 1.0 - s, (1.0, 0.0))
    for c in (0.5, 0.25, 0.3):
        _assert_matches_a_per_column_loop(falling, c)
    plateau = 1.0 - plateau
    _assert_matches_a_per_column_loop(ScalarField(grid, plateau, (1.0, 0.0)), 0.5)
    # without Dirichlet data the level may pass through row 0: edge 0 there
    shifted = s - 0.1 * (np.arange(grid.ntheta) % 2)
    _assert_matches_a_per_column_loop(ScalarField(grid, shifted), 0.0)


def _full_grid_crossings(v, c, lo, hi):
    """The reference crossing search: boolean masks of every edge of the
    grid, each column's crossing taken by argmax along the rows; the row
    extremes that bound the band are not read."""
    above, below = v > c, v < c
    crosses = (above[:-1] & ~above[1:]) | (below[:-1] & ~below[1:])
    crosses[0] |= ~(above[0] | below[0])
    counts = crosses.sum(axis=0)
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        raise TopologyError(f"level {c} crosses theta column {bad[0]} {counts[bad[0]]} times")
    cols = np.arange(v.shape[1])
    i = np.argmax(crosses, axis=0)
    d_lo, d_hi = v[i, cols] - c, v[i + 1, cols] - c
    denom = d_lo - d_hi
    return i, np.divide(d_lo, denom, out=np.zeros(v.shape[1]), where=denom != 0)


def _level_or_message(f, c):
    try:
        rep = extract_level(f, c)
    except TopologyError as exc:
        return str(exc)
    return rep.points, rep.kappa, rep.kappa_min, rep.grad_min


def _assert_band_matches_full_grid(monkeypatch, f, c):
    band = _level_or_message(f, c)
    with monkeypatch.context() as patch:
        patch.setattr(levelgeom, "_crossings", _full_grid_crossings)
        reference = _level_or_message(f, c)
    if isinstance(reference, str):
        assert band == reference
        return
    assert np.array_equal(band[0], reference[0]) and np.array_equal(band[1], reference[1])
    assert band[2:] == reference[2:]


_README_RING = make_ring(SpaceFormChart(epsilon=0.0, dim=2), make_curve("ellipse", radii=(3.0, 2.0)),
                         make_curve("ellipse", radii=(1.2, 0.8)))
_FOURIER_RING = make_ring(
    SpaceFormChart(epsilon=1.0, dim=2), make_curve("ellipse", radii=(1.2, 0.8)),
    make_curve("fourier", r0=0.4, center=(0.05, -0.03), cos_coeffs=(0.0, 0.03),
               sin_coeffs=(0.02, 0.0, 0.01)))


@pytest.mark.parametrize("ring", [_README_RING, _FOURIER_RING], ids=["readme", "fourier"])
@pytest.mark.parametrize("ns, ntheta", [(33, 64), (257, 512)])
def test_band_search_matches_the_full_grid_search(monkeypatch, ring, ns, ntheta):
    grid = build_grid(ring, ns, ntheta)
    s = np.repeat(grid.s[:, None], ntheta, axis=1)
    cos = np.cos(grid.theta)
    # u = s^(1 + cos(theta)/2): each level's band spans many rows
    fields = [ScalarField(grid, s ** (1.0 + 0.5 * cos), (0.0, 1.0))]
    if ns == 33:
        fields.append(solve_harmonic(grid, 1.0))
    for f in fields:
        for c in (0.05, 0.25, 0.5, 0.9):
            _assert_band_matches_full_grid(monkeypatch, f, c)
    # exact hits on an interior row and on row ns-2, of rising and falling data
    for c in (grid.s[ns // 3], grid.s[-2]):
        _assert_band_matches_full_grid(monkeypatch, ScalarField(grid, s, (0.0, 1.0)), c)
        _assert_band_matches_full_grid(monkeypatch, ScalarField(grid, 1.0 - s, (1.0, 0.0)), 1.0 - c)
    # no Dirichlet data: exact hits on row 0 in every other column
    shifted = s - 0.1 * (np.arange(ntheta) % 2)
    _assert_band_matches_full_grid(monkeypatch, ScalarField(grid, shifted), 0.0)
    # u = s + cos(theta)/2 hits c = 1/2 at node 0 of column 0 and at node
    # ns-1 of column ntheta/2, so its band spans every row; c = 1.2 misses
    # the columns near theta = pi
    tilted = ScalarField(grid, s + 0.5 * cos)
    assert tilted.boundary_values is None
    for c in (0.5, 0.45, 1.2):
        _assert_band_matches_full_grid(monkeypatch, tilted, c)
    # a column that dips to 0.1 halfway out crosses c = 0.2 and 0.3 three times
    folded = s.copy()
    folded[ns // 2:ns // 2 + 3, ntheta // 3] = 0.1
    folded = ScalarField(grid, folded, (0.0, 1.0))
    for c in (0.2, 0.3):
        with pytest.raises(TopologyError, match=f"column {ntheta // 3} 3 times"):
            extract_level(folded, c)
        _assert_band_matches_full_grid(monkeypatch, folded, c)


@pytest.mark.parametrize("ring", [_README_RING, _FOURIER_RING], ids=["readme", "fourier"])
@pytest.mark.parametrize("ns, ntheta", [(33, 64), (257, 512)])
def test_level_points_are_the_blend_map_at_the_crossings(ring, ns, ntheta):
    # the points blend the grid's boundary rows, which are the curves at
    # grid.theta: they are map_point's at the crossings, bit for bit
    grid = build_grid(ring, ns, ntheta)
    s = np.repeat(grid.s[:, None], ntheta, axis=1)
    f = ScalarField(grid, s ** (1.0 + 0.5 * np.cos(grid.theta)), (0.0, 1.0))
    for c in (0.05, 0.25, 0.5, 0.9):
        i, t = levelgeom._crossings(f.values, c, *f._row_extremes)
        expected = grid.map_point(grid.s[i] + t * grid.hs, grid.theta)
        points = extract_level(f, c).points
        assert points.tobytes() == np.vstack([expected, expected[:1]]).tobytes()


@pytest.mark.parametrize("ring", [_README_RING, _FOURIER_RING], ids=["readme", "fourier"])
def test_flat_gathers_match_indexing_the_table_views(ring):
    # the jets extract_level gathers by flat node index from the component
    # arrays are those indexed from the table's (ns, ntheta, ...) views
    grid = build_grid(ring, 33, 64)
    f = solve_harmonic(grid, 1.0)
    table, cols = f.jet_table(), np.arange(grid.ntheta)
    for c in (0.05, 0.25, 0.5, 0.9, grid.s[11]):
        rep = extract_level(f, c)
        i, t = levelgeom._crossings(f.values, c, *f._row_extremes)
        tg, th = t[:, None], t[:, None, None]
        grad = (1 - tg) * table["grad"][i, cols] + tg * table["grad"][i + 1, cols]
        hess = (1 - th) * table["hess"][i, cols] + th * table["hess"][i + 1, cols]
        h, norm = levelgeom._level_forms(rep.points[:-1], grad, hess)
        assert np.array_equal(rep.kappa[:-1], h[:, 0, 0])
        assert rep.grad_min == float(np.min(norm))


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


def _scan_numbers(scan):
    return (scan.samples, scan.min_rank, scan.max_rank, scan.lambda_min,
            scan.location.tolist(), scan.threshold)


def test_rank_scan_is_the_same_in_every_block_size(monkeypatch, sphere_chart_field):
    # the flat README ring and an epsilon = 1 ring, in blocks of one sample,
    # of one row and a ragged last block (31 * 64 samples in blocks of 100)
    ring = make_ring(SpaceFormChart(epsilon=0.0, dim=2), make_curve("ellipse", radii=(3.0, 2.0)),
                     make_curve("ellipse", radii=(1.2, 0.8)))
    grid = build_grid(ring, 33, 64)
    readme = ScalarField(grid, np.repeat(grid.s[:, None], grid.ntheta, axis=1), (0.0, 1.0))
    for f in (readme, sphere_chart_field):
        monkeypatch.setattr("convexring.ring._BLOCK", f.values.size)
        whole = _scan_numbers(rank_scan(f))
        for block in (1, f.grid.ntheta, 100):
            monkeypatch.setattr("convexring.ring._BLOCK", block)
            assert _scan_numbers(rank_scan(f)) == whole


def _curvature_stack(c):
    """2-D jets of grad e_1 and hess diag(0, -c): the one curvature is c,
    at the distinct points (2 i, 2 i + 1)."""
    hess = np.zeros((len(c), 2, 2))
    hess[:, 1, 1] = -np.asarray(c)
    return PointJet(point=np.arange(2.0 * len(c)).reshape(-1, 2), value=np.zeros(len(c)),
                    grad=np.broadcast_to([1.0, 0.0], (len(c), 2)), hess=hess)


def test_rank_scan_locates_the_first_minimum_across_blocks(monkeypatch):
    # the least curvature 1 comes twice, at samples 3 and 9, in the first
    # and the third block of four
    c = np.array([3.0, 2.0, 4.0, 1.0, 5.0, 6.0, 2.0, 7.0, 8.0, 1.0, 3.0])
    jets = _curvature_stack(c)
    for block in (4, 1, 5, len(c)):
        monkeypatch.setattr("convexring.ring._BLOCK", block)
        scan = rank_scan(jets)
        assert (scan.lambda_min, scan.location.tolist()) == (1.0, [6.0, 7.0])
        assert (scan.samples, scan.min_rank, scan.max_rank) == (len(c), 1, 1)
    # ties in blocks 0 and 1 of 3, and in blocks 1 and 2; a NaN counts as
    # lowest, as np.argmin takes it; ranks 0 and 1 with a negative tie.  The
    # scan equals the full-array one (_full_array_scan, below) bit for bit
    for c, first in (([3.0, 1.0, 2.0, 5.0, 1.0, 1.0, 4.0], 1),
                     ([3.0, 2.0, 2.0, 1.0, 5.0, 1.0, 1.0], 3),
                     ([3.0, 1.0, 2.0, np.nan, 1.0, np.nan, 0.5], 3),
                     ([0.0, 1e-9, 2.0, -1.0, 1e-9, -1.0, 7.0], 3)):
        jets = _curvature_stack(c)
        reference = _full_array_scan(jets)
        assert reference[4] == jets.point[first].tolist()
        for block in (3, 1, 2, len(c)):
            monkeypatch.setattr("convexring.ring._BLOCK", block)
            assert repr(_scan_numbers(rank_scan(jets))) == repr(reference)


def _full_array_scan(source):
    """The numbers of a rank scan over one array of every sample's
    curvatures and one rank array: the reference that rank_scan's blockwise
    reduction equals."""
    if isinstance(source, ScalarField):
        threshold = levelgeom._noise_floor(source.grid)
        table = source.jet_table()
        points, grad, hess = (a[1:-1] for a in (source.grid.nodes, table["grad"], table["hess"]))
    else:
        threshold = 1e-8
        points, grad, hess = source.point, source.grad, source.hess
    n = points.shape[-1]
    points, grad, hess = points.reshape(-1, n), grad.reshape(-1, n), hess.reshape(-1, n, n)
    eigs = levelgeom._curvatures(levelgeom._level_forms(points, grad, hess)[0])
    ranks = np.sum(eigs > threshold, axis=-1)
    k = int(np.argmin(eigs[:, 0]))
    return (len(eigs), int(ranks.min()), int(ranks.max()), float(eigs[k, 0]),
            points[k].tolist(), float(threshold))


_SPHERE_ELLIPSES = make_ring(SpaceFormChart(epsilon=1.0, dim=2),
                             make_curve("ellipse", radii=(1.2, 0.8)),
                             make_curve("ellipse", radii=(0.48, 0.32)))


@pytest.mark.parametrize("ring", [_README_RING, _SPHERE_ELLIPSES], ids=["readme", "sphere"])
@pytest.mark.parametrize("ns, ntheta", [(33, 64), (257, 512)])
def test_rank_scan_equals_the_full_array_scan(monkeypatch, ring, ns, ntheta):
    # u = s, and u = s plus a wave, on the outer curve's scale a, whose level
    # sets bend both ways, so that the ranks differ between blocks; the repr
    # compares floats bit for bit
    grid = build_grid(ring, ns, ntheta)
    s = np.repeat(grid.s[:, None], ntheta, axis=1)
    x, a = grid.nodes, ring.outer.axes[0]
    wave = 0.05 * np.sin(9 * x[..., 0] / a) * np.cos(6 * x[..., 1] / a)
    wave[[0, -1]] = 0.0
    for f in (ScalarField(grid, s, (0.0, 1.0)), ScalarField(grid, s + wave, (0.0, 1.0))):
        reference = repr(_full_array_scan(f))
        for block in (convexring.ring._BLOCK, ntheta + 3):
            monkeypatch.setattr("convexring.ring._BLOCK", block)
            assert repr(_scan_numbers(rank_scan(f))) == reference
    assert _full_array_scan(f)[1:3] == (0, 1)


def test_rank_scan_of_random_3d_jets_equals_the_full_array_scan(monkeypatch):
    # random gradients and Hessians: ranks 0, 1 and 2 in every block
    rng = np.random.default_rng(11)
    hess = rng.standard_normal((5000, 3, 3))
    jets = PointJet(point=rng.standard_normal((5000, 3)), value=np.zeros(5000),
                    grad=rng.standard_normal((5000, 3)), hess=hess + np.swapaxes(hess, 1, 2))
    reference = _full_array_scan(jets)
    assert reference[1:3] == (0, 2)
    for block in (convexring.ring._BLOCK, 7, 1000):
        monkeypatch.setattr("convexring.ring._BLOCK", block)
        assert repr(_scan_numbers(rank_scan(jets))) == repr(reference)


def test_rank_scan_names_the_first_singular_node_across_blocks(monkeypatch, sphere_chart_field):
    # a flat 3 x 3 patch has zero gradient at its centre: nodes (3, 10) and
    # (20, 5) lie in different blocks of one row
    f = sphere_chart_field
    values = f.values.copy()
    values[2:5, 9:12] = values[3, 10]
    values[19:22, 4:7] = values[20, 5]
    first_node = f.grid.nodes[3, 10].tolist()
    for block in (f.grid.ntheta, 1, 100, values.size):
        monkeypatch.setattr("convexring.ring._BLOCK", block)
        flat = ScalarField(f.grid, values, f.boundary_values)
        with pytest.raises(SingularGradientError, match=re.escape(f"at {first_node}")):
            rank_scan(flat)


def test_rank_scan_of_a_3d_stack_larger_than_a_block(monkeypatch):
    # u = -|x|^2: level spheres, curvatures 1/|x| twice, least at the largest |x|
    rng = np.random.default_rng(7)
    points = rng.uniform(-1.0, 1.0, (10_000, 3))
    points *= rng.uniform(1.0, 2.0, (len(points), 1)) / np.linalg.norm(points, axis=-1, keepdims=True)
    jets = PointJet(point=points, value=-np.sum(points * points, axis=-1), grad=-2 * points,
                    hess=np.broadcast_to(-2 * np.eye(3), (len(points), 3, 3)))
    blocks = (convexring.ring._BLOCK, 7)
    monkeypatch.setattr("convexring.ring._BLOCK", len(points))
    whole = _scan_numbers(rank_scan(jets))
    assert whole[:3] == (len(points), 2, 2)
    far = int(np.argmax(np.linalg.norm(points, axis=-1)))
    assert whole[3] == pytest.approx(1.0 / np.linalg.norm(points[far]), rel=1e-12)
    assert whole[4] == points[far].tolist()
    for block in blocks:
        monkeypatch.setattr("convexring.ring._BLOCK", block)
        assert _scan_numbers(rank_scan(jets)) == whole


def test_geometry_pass_peaks_near_what_it_keeps():
    # u = s on the README ring at 257 x 512: the jet table is written in
    # place into its one block of component arrays, and the rank scan reads
    # views of them; a reader that copied the table would hold another 2 to
    # 4 MiB.  Level extraction masks only the band of rows its level crosses,
    # so it holds nothing the size of ns * ntheta booleans.  The rank scan
    # reduces each block of samples as it goes: its peak is its blocks'
    # temporaries, 0.69 MiB measured; arrays of every sample's curvatures
    # and ranks would take another 1.5 MiB
    grid = build_grid(_README_RING, 257, 512)
    grid._node_geometry
    f = ScalarField(grid, np.repeat(grid.s[:, None], grid.ntheta, axis=1), (0.0, 1.0))
    table, kept, peak = traced_call(f.jet_table)
    assert kept >= table["grad"].nbytes + table["hess"].nbytes
    assert peak <= kept + 1.25 * 2**20, (peak, kept)  # 0.90 MiB measured
    for c in (1 / 9, 0.5, grid.s[100]):
        _, _, peak = traced_call(extract_level, f, c)
        assert peak < grid.ns * grid.ntheta, (c, peak)
    scan, _, peak = traced_call(rank_scan, f)
    assert scan.samples == 255 * 512
    assert peak <= 2**20, peak


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
