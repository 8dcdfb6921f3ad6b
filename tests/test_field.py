"""Finite-difference jets, distances, and snapshots."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from convexring.field import (
    FieldShapeError,
    ScalarField,
    discrete_c2_distance,
    field_from_dict,
    field_to_dict,
    load_field,
    sample_field,
    save_field,
)
from convexring.ring import build_grid, make_curve, make_ring
from convexring.spaceform import SpaceFormChart, covariant_jet


def _circle_grid(ns=17, ntheta=32, eps=0.0, r_inner=1.0, r_outer=2.0):
    chart = SpaceFormChart(epsilon=eps, dim=2)
    ring = make_ring(
        chart,
        make_curve("circle", radius=r_outer),
        make_curve("circle", radius=r_inner),
    )
    return build_grid(ring, ns, ntheta)


def _ellipse_grid(ns=17, ntheta=48):
    chart = SpaceFormChart(epsilon=0.0, dim=2)
    ring = make_ring(
        chart,
        make_curve("ellipse", radii=(3.0, 2.0)),
        make_curve("ellipse", radii=(1.2, 0.8)),
    )
    return build_grid(ring, ns, ntheta)


def _trig(x):
    return np.sin(x[..., 0]) * np.cos(x[..., 1])


def _trig_jet(x):
    s0, c0 = np.sin(x[..., 0]), np.cos(x[..., 0])
    s1, c1 = np.sin(x[..., 1]), np.cos(x[..., 1])
    grad = np.stack([c0 * c1, -s0 * s1], axis=-1)
    hess = np.stack([-s0 * c1, -c0 * s1, -c0 * s1, -s0 * c1], axis=-1)
    return _trig(x), grad, hess.reshape(x.shape[:-1] + (2, 2))


def _fit_order(hs, errs):
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def test_field_shape_and_boundary_validation():
    grid = _circle_grid()
    vals = np.zeros((grid.ns, grid.ntheta))
    f = ScalarField(grid, vals, (0.0, 0.0))
    assert f.values.shape == (grid.ns, grid.ntheta)
    vals2 = vals.copy()
    vals2[0, 3] = 0.5
    with pytest.raises(FieldShapeError):
        ScalarField(grid, vals2, (0.0, 0.0))
    with pytest.raises(FieldShapeError):
        ScalarField(grid, np.zeros((3, 3)), (0.0, 0.0))


def test_jets_converge_at_second_order_flat():
    # smooth analytic field on an ellipse ring; compare frame jets (flat
    # chart: frame = coordinates) against closed-form derivatives
    errs, hs = [], []
    for ns, ntheta in ((17, 48), (33, 96), (65, 192)):
        grid = _ellipse_grid(ns, ntheta)
        table = sample_field(grid, _trig).jet_table()
        worst = 0.0
        for i in range(1, grid.ns - 1):
            for j in range(grid.ntheta):
                _, g, h = _trig_jet(grid.nodes[i, j])
                worst = max(
                    worst,
                    float(np.max(np.abs(table["grad"][i, j] - g))),
                    float(np.max(np.abs(table["hess"][i, j] - h))),
                )
        errs.append(worst)
        hs.append(grid.max_spacing)
    assert _fit_order(hs, errs) >= 1.9


def _off_centre_sphere_grid(ns, ntheta):
    # full J^{-1}, x_st and x_tt not radial, and phi != 0, all at once
    chart = SpaceFormChart(epsilon=1.0, dim=2)
    ring = make_ring(chart, make_curve("ellipse", radii=(1.2, 0.8)),
                     make_curve("ellipse", radii=(0.48, 0.32), center=(0.05, -0.03)))
    return build_grid(ring, ns, ntheta)


def test_jets_match_covariant_jet_on_sphere():
    # same field, curved chart: the interior jets must approach the analytic
    # covariant jet
    for grid_at, sizes, min_order in (
        (partial(_circle_grid, eps=1.0, r_inner=0.15, r_outer=0.4), ((17, 64), (33, 128)), 1.7),
        (_off_centre_sphere_grid, ((17, 64), (33, 128), (65, 256)), 1.8),
    ):
        errs, hs = [], []
        for ns, ntheta in sizes:
            grid = grid_at(ns, ntheta)
            table = sample_field(grid, _trig).jet_table()
            ref = covariant_jet(grid.ring.chart, _trig_jet, grid.nodes[1:-1])
            errs.append(max(float(np.max(np.abs(table["grad"][1:-1] - ref.grad))),
                            float(np.max(np.abs(table["hess"][1:-1] - ref.hess)))))
            hs.append(grid.max_spacing)
        assert all(b < a * 0.35 for a, b in zip(errs, errs[1:]))  # better than first order
        assert _fit_order(hs, errs) >= min_order, sizes


def test_discrete_c2_distance_linear_offset():
    grid = _circle_grid(ns=33, ntheta=64)
    base = sample_field(grid, lambda x: np.zeros(x.shape[:-1]), (0.0, 0.0))
    c = 0.35
    g = sample_field(grid, lambda x: c * x[..., 0])
    d = discrete_c2_distance(base, g)
    interior_x = np.abs(grid.nodes[1:-1, :, 0])
    # |dvalue| + |dgrad| exactly; the hessian term is pure O(h^2) mapping error
    expected = c * float(np.max(interior_x)) + c
    assert d >= expected - 1e-12
    assert d == pytest.approx(expected, abs=10 * grid.max_spacing**2)


def test_discrete_c2_distance_requires_same_grid():
    g1 = _circle_grid(ns=9, ntheta=16)
    g2 = _circle_grid(ns=11, ntheta=16)
    f1 = ScalarField(g1, np.zeros((9, 16)), (0.0, 0.0))
    f2 = ScalarField(g2, np.zeros((11, 16)), (0.0, 0.0))
    with pytest.raises(FieldShapeError):
        discrete_c2_distance(f1, f2)


def test_snapshot_round_trip_is_bit_exact(tmp_path):
    grid = _circle_grid(ns=9, ntheta=16)
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((9, 16))
    vals[0] = 0.0
    vals[-1] = 0.3
    f = ScalarField(grid, vals, (0.0, 0.3))
    path = str(tmp_path / "field.json")
    save_field(f, path)
    g = load_field(path)
    assert np.array_equal(f.values, g.values)
    assert f.boundary_values == g.boundary_values
    assert np.array_equal(f.grid.nodes, g.grid.nodes)
    # serialization is deterministic: a second save produces identical bytes
    path2 = str(tmp_path / "field2.json")
    save_field(g, path2)
    assert open(path).read() == open(path2).read()


def test_snapshot_rejects_foreign_format():
    with pytest.raises(FieldShapeError):
        field_from_dict({"format": "something-else"})


def test_sample_field_boundary_snapping():
    grid = _circle_grid(ns=9, ntheta=16)
    # requested Dirichlet values must match what the sampler produces
    with pytest.raises(FieldShapeError):
        sample_field(grid, lambda x: x[..., 0], boundary_values=(0.0, 0.0))
    f = sample_field(grid, lambda x: np.sqrt(np.sum(x * x, axis=-1)) - 2.0,
                     boundary_values=(0.0, -1.0))
    assert f.boundary_values == (0.0, -1.0)
    assert np.all(f.values[0] == 0.0)
    # without a declaration any shape of data is a valid synthetic field
    g = sample_field(grid, lambda x: x[..., 0])
    assert g.boundary_values is None


def test_field_to_dict_is_self_describing():
    grid = _circle_grid(ns=9, ntheta=16)
    f = ScalarField(grid, np.zeros((9, 16)), (0.0, 0.0))
    d = field_to_dict(f)
    assert d["format"] == "convexring-field"
    assert d["ring"]["outer"]["kind"] == "circle"
    assert d["grid"] == {"ns": 9, "ntheta": 16}
