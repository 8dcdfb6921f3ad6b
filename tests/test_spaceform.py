"""Chart-level geometry: conformal factor, Christoffel symbols, covariant jets."""

from __future__ import annotations

import numpy as np
import pytest

from convexring.spaceform import (
    ChartDomainError,
    SpaceFormChart,
    christoffel,
    conformal_factor,
    covariant_jet,
    frame_components,
    sectional_curvature_probe,
)


def _fd_log_lambda_gradient(chart, x, h=1e-6):
    """Centered finite differences of log(lambda) in chart coordinates."""
    g = np.zeros(chart.dim)
    for a in range(chart.dim):
        xp = np.array(x, dtype=float)
        xm = np.array(x, dtype=float)
        xp[a] += h
        xm[a] -= h
        g[a] = (np.log(conformal_factor(chart, xp)) - np.log(conformal_factor(chart, xm))) / (2 * h)
    return g


def test_conformal_factor_flat_is_one():
    chart = SpaceFormChart(epsilon=0.0, dim=2)
    assert conformal_factor(chart, [0.3, -1.7]) == 1.0


def test_conformal_factor_sphere_value():
    # eps = 1 at (2, 0): 1 / (1 + 4/4) = 1/2
    chart = SpaceFormChart(epsilon=1.0, dim=2, chart_radius=1.99)
    assert conformal_factor(chart, [1.99, 0.0]) == pytest.approx(1.0 / (1 + 0.25 * 1.99**2), rel=1e-15)
    wide = SpaceFormChart(epsilon=1.0, dim=2, chart_radius=1.9999999)
    assert abs(conformal_factor(wide, [1.9999999, 0.0]) - 0.5) < 1e-7


def test_conformal_factor_broadcasts():
    chart = SpaceFormChart(epsilon=1.0, dim=2)
    pts = np.zeros((4, 5, 2))
    lam = conformal_factor(chart, pts)
    assert lam.shape == (4, 5)
    assert np.all(lam == 1.0)


def test_christoffel_hand_value():
    # eps = 1, x = (1, 0): Gamma^1_{11} = d_1 log(lambda) = -(1/2) * 1 * 0.8 = -0.4
    chart = SpaceFormChart(epsilon=1.0, dim=2)
    gamma = christoffel(chart, [1.0, 0.0])
    assert gamma[0, 0, 0] == pytest.approx(-0.4, abs=1e-15)
    # symmetry in the lower pair
    assert np.allclose(gamma, np.swapaxes(gamma, 1, 2))


def test_christoffel_matches_finite_differences():
    rng = np.random.default_rng(7)
    for eps in (0.0, 0.3, 1.0):
        chart = SpaceFormChart(epsilon=eps, dim=2)
        for _ in range(5):
            x = rng.uniform(-0.6, 0.6, size=2)
            phi = _fd_log_lambda_gradient(chart, x)
            gamma = christoffel(chart, x)
            eye = np.eye(2)
            expected = (
                eye[:, :, None] * phi[None, None, :]
                + eye[:, None, :] * phi[None, :, None]
                - eye[None, :, :] * phi[:, None, None]
            )
            assert np.allclose(gamma, expected, atol=1e-9)


def test_christoffel_vanishes_flat():
    chart = SpaceFormChart(epsilon=0.0, dim=3)
    gamma = christoffel(chart, [0.4, -0.2, 1.1])
    assert np.all(gamma == 0.0)


def test_sectional_curvature_probe_returns_epsilon():
    rng = np.random.default_rng(11)
    for eps in (0.0, 0.5, 1.0, 2.0):
        for dim in (2, 3):
            chart = SpaceFormChart(epsilon=eps, dim=dim)
            for _ in range(4):
                x = rng.uniform(-0.4, 0.4, size=dim)
                assert sectional_curvature_probe(chart, x) == pytest.approx(eps, abs=1e-12)
            stacked = sectional_curvature_probe(chart, rng.uniform(-0.4, 0.4, size=(3, 4, dim)))
            assert stacked.shape == (3, 4)
            assert np.allclose(stacked, eps, rtol=0.0, atol=1e-12)


def test_sectional_curvature_probe_spec_points():
    for x in ([1.0, 1.0], [0.5, 0.0], [0.1, 0.2]):
        chart = SpaceFormChart(epsilon=1.0, dim=2)
        assert sectional_curvature_probe(chart, x) == pytest.approx(1.0, abs=1e-12)


def test_covariant_jet_linear_field_on_sphere():
    # u = x_1 has zero coordinate Hessian; the covariant Hessian is pure
    # Christoffel correction, rescaled into the frame by lambda^{-2}.
    chart = SpaceFormChart(epsilon=1.0, dim=2)

    def sampler(x):
        return x[..., 0], np.array([1.0, 0.0]), np.zeros((2, 2))

    x = np.array([1.0, 0.0])
    jet = covariant_jet(chart, sampler, x)
    lam = conformal_factor(chart, x)
    gamma = christoffel(chart, x)
    expected_hess = -gamma[0] / lam**2
    assert jet.value == 1.0
    assert np.allclose(jet.grad, np.array([1.0 / lam, 0.0]))
    assert np.allclose(jet.hess, expected_hess, atol=1e-15)
    assert np.allclose(jet.hess, jet.hess.T)

    # stacked points: one sampler call, its constant derivatives broadcast
    points = np.array([[[1.0, 0.0], [0.3, -0.5]], [[0.0, 0.0], [-0.7, 0.4]]])
    stacked = covariant_jet(chart, sampler, points)
    assert stacked.value.shape == (2, 2) and stacked.grad.shape == (2, 2, 2)
    assert stacked.hess.shape == (2, 2, 2, 2)
    for idx in np.ndindex(2, 2):
        one = covariant_jet(chart, sampler, points[idx])
        assert stacked.value[idx] == one.value
        assert np.allclose(stacked.grad[idx], one.grad, rtol=0.0, atol=1e-15)
        assert np.allclose(stacked.hess[idx], one.hess, rtol=0.0, atol=1e-15)


def test_covariant_jet_flat_is_plain_derivatives():
    chart = SpaceFormChart(epsilon=0.0, dim=2)

    def sampler(x):
        value = x[0] ** 2 - 3.0 * x[0] * x[1]
        grad = np.array([2 * x[0] - 3 * x[1], -3 * x[0]])
        hess = np.array([[2.0, -3.0], [-3.0, 0.0]])
        return value, grad, hess

    jet = covariant_jet(chart, sampler, np.array([0.7, -0.2]))
    assert np.allclose(jet.grad, [2 * 0.7 + 0.6, -2.1])
    assert np.allclose(jet.hess, [[2.0, -3.0], [-3.0, 0.0]])


def test_frame_components_match_fd_of_frame_gradient():
    # Frame Hessian contracted twice with frame vectors must agree with a
    # geodesic-free consistency check: differentiate u and correct by Gamma.
    chart = SpaceFormChart(epsilon=1.0, dim=2)
    rng = np.random.default_rng(3)
    a = rng.standard_normal(5)

    def u(x):
        return a[0] + a[1] * x[0] + a[2] * x[1] + a[3] * x[0] * x[1] + a[4] * x[0] ** 2

    def du(x):
        return np.array([a[1] + a[3] * x[1] + 2 * a[4] * x[0], a[2] + a[3] * x[0]])

    d2u = np.array([[2 * a[4], a[3]], [a[3], 0.0]])
    x = np.array([0.3, 0.4])
    grad, hess = frame_components(chart, x, du(x), d2u)
    lam = conformal_factor(chart, x)
    gamma = christoffel(chart, x)
    raw = d2u - np.einsum("cab,c->ab", gamma, du(x))
    assert np.allclose(grad, du(x) / lam)
    assert np.allclose(hess, raw / lam**2)


def test_frame_components_closed_form_matches_christoffel_reference():
    # frame_components contracts Gamma in closed form; christoffel() keeps the
    # rank-3 tensor as the reference: (d2u - Gamma^c_ab du_c) / lambda^2
    rng = np.random.default_rng(17)
    for eps, opt_in in ((0.0, False), (0.7, False), (-0.5, True)):
        for dim in (2, 3):
            chart = SpaceFormChart(epsilon=eps, dim=dim, allow_negative_curvature=opt_in)
            x = rng.uniform(-0.5, 0.5, size=(5, 7, dim))
            du = rng.standard_normal((5, 7, dim))
            d2u = rng.standard_normal((5, 7, dim, dim))
            d2u = d2u + np.swapaxes(d2u, -1, -2)
            lam = conformal_factor(chart, x)
            ref = (d2u - np.einsum("...cab,...c->...ab", christoffel(chart, x), du)
                   ) / (lam**2)[..., None, None]
            grad, hess = frame_components(chart, x, du, d2u)
            assert np.array_equal(grad, du / lam[..., None])
            assert np.max(np.abs(hess - ref)) <= 1e-14 * np.max(np.abs(ref))
            assert np.allclose(sectional_curvature_probe(chart, x), eps, rtol=0.0, atol=1e-12)


def test_chart_rejects_points_outside_radius():
    chart = SpaceFormChart(epsilon=1.0, dim=2, chart_radius=0.5)
    with pytest.raises(ChartDomainError):
        conformal_factor(chart, [0.6, 0.0])


def test_chart_rejects_non_finite_points():
    with pytest.raises(ChartDomainError, match="not finite"):
        conformal_factor(SpaceFormChart(epsilon=1.0, dim=2), [[0.1, 0.0], [np.nan, 0.0]])
    flat = SpaceFormChart(epsilon=0.0, dim=2)
    assert flat.chart_radius == np.inf
    with pytest.raises(ChartDomainError, match="not finite"):
        conformal_factor(flat, [np.inf, 0.0])


def test_chart_radius_must_stay_inside_equator():
    with pytest.raises(ValueError):
        SpaceFormChart(epsilon=4.0, dim=2, chart_radius=1.0)  # limit is 2/sqrt(4) = 1


def test_negative_curvature_requires_opt_in():
    with pytest.raises(ValueError):
        SpaceFormChart(epsilon=-1.0, dim=2)
    chart = SpaceFormChart(epsilon=-1.0, dim=2, allow_negative_curvature=True)
    assert conformal_factor(chart, [0.5, 0.0]) == pytest.approx(1.0 / (1 - 0.0625))
    assert sectional_curvature_probe(chart, np.array([0.2, 0.1])) == pytest.approx(-1.0, abs=1e-12)


def test_dim_validation():
    with pytest.raises(ValueError):
        SpaceFormChart(epsilon=0.0, dim=4)
