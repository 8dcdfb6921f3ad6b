"""Finite-difference jets, distances, and snapshots."""

from __future__ import annotations

import gc
import re
import weakref
from functools import partial

import numpy as np
import pytest

from convexring import field
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
from convexring.levelgeom import extract_level
from convexring.ring import AnnularGrid, build_grid, make_curve, make_ring
from convexring.spaceform import SpaceFormChart, covariant_jet, frame_components


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


_README_RING = make_ring(SpaceFormChart(epsilon=0.0, dim=2), make_curve("ellipse", radii=(3.0, 2.0)),
                         make_curve("ellipse", radii=(1.2, 0.8)))
_FOURIER_RING = make_ring(
    SpaceFormChart(epsilon=1.0, dim=2), make_curve("ellipse", radii=(1.2, 0.8)),
    make_curve("fourier", r0=0.4, center=(0.05, -0.03), cos_coeffs=(0.0, 0.03),
               sin_coeffs=(0.02, 0.0, 0.01)))


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


def test_values_must_be_finite():
    # one NaN or infinity at an interior node or on either boundary row is
    # rejected, with or without declared Dirichlet data
    grid = _circle_grid()
    u = np.repeat(grid.s[:, None], grid.ntheta, axis=1)
    for bad in (np.nan, np.inf, -np.inf):
        for node in ((grid.ns // 2, 5), (0, 3), (grid.ns - 1, grid.ntheta - 1)):
            values = u.copy()
            values[node] = bad
            for declared in (None, (0.0, 1.0)):
                with pytest.raises(FieldShapeError, match="values must be finite"):
                    ScalarField(grid, values, declared)


def test_row_extremes_are_kept_read_only():
    # the extremes the finiteness guard and the level search read
    grid = _circle_grid()
    f = ScalarField(grid, np.repeat(grid.s[:, None] ** 2, grid.ntheta, axis=1), (0.0, 1.0))
    lo, hi = f._row_extremes
    assert np.array_equal(lo, f.values.min(axis=1)) and np.array_equal(hi, f.values.max(axis=1))
    with pytest.raises(ValueError, match="read-only"):
        lo[0] = 1.0


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


def _matmul_jet_table(grid, values):
    # the stacked 2x2 matmul chain and frame_components the jet table once
    # ran, with J^{-1} from np.linalg.inv and x_st, x_tt from the curves
    s, theta, outer, inner = grid.s[:, None, None], grid.theta, grid.ring.outer, grid.ring.inner
    x_s, x_t, _ = grid._jacobian(grid.s[:, None], theta)
    jac = np.stack(np.broadcast_arrays(x_s[0], x_t[0], x_s[1], x_t[1]), axis=-1)
    jinv = np.linalg.inv(jac.reshape(values.shape + (2, 2)))
    x_st = inner.d1(theta) - outer.d1(theta)
    x_tt = (1.0 - s) * outer.d2(theta) + s * inner.d2(theta)
    u_s, u_t, u_ss, u_st, u_tt = field._comp_derivatives(values, grid.hs, grid.htheta)
    coord_grad = u_s[..., None] * jinv[..., 0, :] + u_t[..., None] * jinv[..., 1, :]
    u_st = u_st - np.sum(x_st * coord_grad, axis=-1)
    u_tt = u_tt - np.sum(x_tt * coord_grad, axis=-1)
    comp_hess = np.stack([u_ss, u_st, u_st, u_tt], axis=-1).reshape(values.shape + (2, 2))
    coord_hess = np.swapaxes(jinv, -1, -2) @ comp_hess @ jinv
    return frame_components(grid.ring.chart, grid.nodes, coord_grad, coord_hess)


def test_jet_table_matches_the_matmul_reference():
    # flat README ellipses, and a curved ring with an off-centre fourier
    # inner curve: full J^{-1}, x_st and x_tt off the radial, phi != 0
    sphere = make_ring(
        SpaceFormChart(epsilon=1.0, dim=2), make_curve("ellipse", radii=(1.2, 0.8)),
        make_curve("fourier", r0=0.4, center=(0.05, -0.03), cos_coeffs=(0.0, 0.03),
                   sin_coeffs=(0.02, 0.0, 0.01)))
    for grid in (_ellipse_grid(33, 64), build_grid(sphere, 33, 64)):
        table = sample_field(grid, _trig).jet_table()
        grad, hess = _matmul_jet_table(grid, table["value"])
        for new, ref in ((table["grad"], grad), (table["hess"], hess)):
            # every row, the two boundary rows included
            err = np.max(np.abs(new - ref).reshape(grid.ns, -1), axis=1)
            scale = np.max(np.abs(ref).reshape(grid.ns, -1), axis=1)
            assert np.all(err <= 1e-13 * scale)


def _rolled_comp_derivatives(values, hs, ht, first=True, last=True):
    # field._comp_derivatives with its theta neighbours taken by np.roll
    u = values
    u_next, u_prev = np.roll(u, -1, axis=1), np.roll(u, 1, axis=1)
    u_t = (u_next - u_prev) / (2 * ht)
    u_tt = (u_next - 2 * u + u_prev) / ht**2

    def d_s(a):
        out = np.empty_like(a)
        out[1:-1] = (a[2:] - a[:-2]) / (2 * hs)
        if first:
            out[0] = (-3 * a[0] + 4 * a[1] - a[2]) / (2 * hs)
        if last:
            out[-1] = (3 * a[-1] - 4 * a[-2] + a[-3]) / (2 * hs)
        return out

    u_ss = np.empty_like(u)
    u_ss[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / hs**2
    if first:
        u_ss[0] = (2 * u[0] - 5 * u[1] + 4 * u[2] - u[3]) / hs**2
    if last:
        u_ss[-1] = (2 * u[-1] - 5 * u[-2] + 4 * u[-3] - u[-4]) / hs**2
    return d_s(u), u_t, u_ss, d_s(u_t), u_tt


@pytest.mark.parametrize("ring", [_README_RING, _FOURIER_RING], ids=["readme", "fourier"])
@pytest.mark.parametrize("ns, ntheta", [(33, 64), (257, 512)])
def test_wrapped_window_matches_rolled_neighbours(monkeypatch, ring, ns, ntheta):
    # the theta neighbours as views of one wrapped window give the table
    # that np.roll copies give, bit for bit
    grid = build_grid(ring, ns, ntheta)
    values = np.random.default_rng(ns).standard_normal((ns, ntheta))
    table = field._build_jet_table(grid, values)
    monkeypatch.setattr(field, "_comp_derivatives", _rolled_comp_derivatives)
    rolled = field._build_jet_table(grid, values)
    assert np.array_equal(table["grad"], rolled["grad"])
    assert np.array_equal(table["hess"], rolled["hess"])


def test_flat_jet_table_skips_an_identity_conversion(monkeypatch):
    # on the flat README ring lambda = 1 and grad log lambda = 0: converting
    # the table through _to_frame changes no bit, and the table never calls
    # it; the epsilon = 1 table does, and meets the matmul reference
    conversions = []
    to_frame = field._to_frame

    def counting(*args):
        conversions.append(len(args[0]))
        return to_frame(*args)

    monkeypatch.setattr(field, "_to_frame", counting)
    grid = _ellipse_grid(33, 64)
    table = sample_field(grid, _trig).jet_table()
    assert conversions == []
    grad = np.moveaxis(table["grad"], -1, 0)
    hess = np.moveaxis(table["hess"], (-2, -1), (0, 1))
    one, zero = np.ones((grid.ns, grid.ntheta)), np.zeros((grid.ns, grid.ntheta))
    frame_grad, frame_hess = np.empty_like(grad), np.empty_like(hess)
    to_frame(one, [zero, zero], list(grad), [list(row) for row in hess], frame_grad, frame_hess)
    assert np.array_equal(frame_grad, grad) and np.array_equal(frame_hess, hess)

    sphere = build_grid(make_ring(SpaceFormChart(epsilon=1.0, dim=2),
                                  make_curve("ellipse", radii=(1.2, 0.8)),
                                  make_curve("ellipse", radii=(0.48, 0.32))), 33, 64)
    table = sample_field(sphere, _trig).jet_table()
    assert sum(conversions) == sphere.ns
    for new, ref in zip((table["grad"], table["hess"]), _matmul_jet_table(sphere, table["value"])):
        assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))


_SPHERE_RING = make_ring(SpaceFormChart(epsilon=1.0, dim=2), make_curve("ellipse", radii=(1.2, 0.8)),
                         make_curve("ellipse", radii=(0.48, 0.32)))


@pytest.mark.parametrize("ring", [_README_RING, _SPHERE_RING], ids=["readme", "sphere"])
@pytest.mark.parametrize("ns, ntheta", [(33, 64), (257, 512)])
def test_jet_table_is_frame_components_of_the_coordinate_jets(ring, ns, ntheta):
    # the coordinate derivatives of the whole grid in one block, converted by
    # spaceform.frame_components at every node: a curved table's blocks take
    # lambda and grad log lambda of their own nodes and equal it bit for bit,
    # and a flat table, which skips the conversion, equals it too
    grid = build_grid(ring, ns, ntheta)
    values = sample_field(grid, _trig).values
    du, d2u = np.empty((2, ns, ntheta)), np.empty((2, 2, ns, ntheta))
    comp = field._comp_derivatives(values, grid.hs, grid.htheta)
    field._coordinate_derivatives(grid._node_geometry, slice(None), comp, du, d2u)
    d2u[1, 0] = d2u[0, 1]
    grad, hess = frame_components(ring.chart, grid.nodes, np.moveaxis(du, 0, -1),
                                  np.moveaxis(d2u, (0, 1), (-2, -1)))
    table = field._build_jet_table(grid, values)
    assert np.array_equal(table["grad"], grad) and np.array_equal(table["hess"], hess)


def test_jet_table_is_a_view_of_component_arrays():
    # grad and hess are views of one (6, ns, ntheta) array, rows 0-1 the
    # gradient and rows 2-5 the Hessian; the rank scan's flattened samples
    # and level extraction's flat component arrays are views of it too
    grid = _off_centre_sphere_grid(17, 48)
    table = sample_field(grid, _trig).jet_table()
    base = table["grad"].base
    assert base.flags.c_contiguous and base.shape == (6, grid.ns, grid.ntheta)
    assert table["hess"].base is base
    components = {"grad": base[:2], "hess": base[2:].reshape(2, 2, grid.ns, grid.ntheta)}
    for key, axes in (("grad", 1), ("hess", 2)):
        assert np.array_equal(np.moveaxis(components[key], range(axes), range(-axes, 0)), table[key])
        samples = table[key][1:-1].reshape((-1,) + (2,) * axes)
        assert np.shares_memory(samples, base)
        flat = np.moveaxis(table[key], range(-axes, 0), range(axes)).reshape(2**axes, -1)
        assert flat.base is not None and np.shares_memory(flat, base)
    assert np.array_equal(table["hess"][..., 0, 1], table["hess"][..., 1, 0])


def test_jet_table_is_the_same_in_every_block_size(monkeypatch):
    # the flat README ring, an epsilon = 1 ring and the smallest grid, in
    # blocks of one row (asked as a whole row or as one sample) and of 3 and
    # 5 rows with a ragged last block (a size short of 6 rows rounds down to
    # 5); every block's window must hold 4 rows.  The grid builds its nodes
    # in blocks of the same constant: its nodes and spacing are the same too
    sphere = make_ring(
        SpaceFormChart(epsilon=1.0, dim=2), make_curve("ellipse", radii=(1.2, 0.8)),
        make_curve("ellipse", radii=(0.48, 0.32), center=(0.05, -0.03)))
    comp = field._comp_derivatives
    windows = []

    def recording(values, *args):
        windows.append(len(values))
        return comp(values, *args)

    monkeypatch.setattr(field, "_comp_derivatives", recording)
    for grid in (_ellipse_grid(17, 48), build_grid(sphere, 17, 48), _ellipse_grid(4, 8)):
        values = sample_field(grid, _trig).values
        monkeypatch.setattr("convexring.ring._BLOCK", grid.ns * grid.ntheta)
        whole = field._build_jet_table(grid, values)
        whole_grid = AnnularGrid(grid.ring, grid.ns, grid.ntheta)
        for rows, block in ((1, grid.ntheta), (1, 1), (3, 3 * grid.ntheta), (5, 6 * grid.ntheta - 1)):
            windows.clear()
            monkeypatch.setattr("convexring.ring._BLOCK", block)
            blocked = AnnularGrid(grid.ring, grid.ns, grid.ntheta)
            assert np.array_equal(blocked.nodes, whole_grid.nodes)
            assert blocked.max_spacing == whole_grid.max_spacing
            table = field._build_jet_table(grid, values)
            assert len(windows) == -(-grid.ns // rows) and min(windows) >= 4
            assert np.array_equal(table["grad"], whole["grad"])
            assert np.array_equal(table["hess"], whole["hess"])


def test_node_geometry_is_built_once_per_grid_and_freed_with_it(monkeypatch):
    calls = []
    inverse = AnnularGrid._jacobian_inverse

    def counting(self, s, theta):
        calls.append(np.broadcast_shapes(np.shape(s), np.shape(theta)))
        return inverse(self, s, theta)

    monkeypatch.setattr(AnnularGrid, "_jacobian_inverse", counting)
    grid = _ellipse_grid(17, 48)
    assert calls == [] and "_node_geometry" not in vars(grid)
    f = sample_field(grid, _trig)
    g = sample_field(grid, lambda x: x[..., 0] ** 2)
    f.jet_table(), g.jet_table()
    assert calls == [(grid.ns, grid.ntheta)]

    geometry = weakref.ref(grid._node_geometry)
    del grid, f, g
    gc.collect()
    assert geometry() is None


def test_field_owns_its_values():
    # the caller's array is copied: writing it after the jets are cached
    # changes neither the levels the field reads nor its Dirichlet rows
    grid = _circle_grid()
    u = np.repeat(grid.s[:, None], grid.ntheta, axis=1)
    f = ScalarField(grid, u, (0.0, 1.0))
    before = extract_level(f, 0.5).kappa_min
    u[1:-1] **= 2
    squared = ScalarField(grid, u, (0.0, 1.0))
    u[0] = 5.0
    assert np.array_equal(f.values, np.repeat(grid.s[:, None], grid.ntheta, axis=1))
    assert extract_level(f, 0.5).kappa_min == before == pytest.approx(1 / 1.5)
    assert np.all(squared.values[0] == 0.0)
    assert extract_level(squared, 0.5).kappa_min == pytest.approx(0.77421, abs=1e-5)
    with pytest.raises(ValueError, match="read-only"):
        f.values[0] = 5.0


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


def test_discrete_c2_distance_requires_the_same_chart():
    # circles 1 / 0.4 in the flat and the epsilon = 1 chart share their
    # nodes, but their jet tables are in different frames
    fields = [sample_field(_circle_grid(eps=eps, r_inner=0.4, r_outer=1.0),
                           lambda x: np.sum(x * x, axis=-1)) for eps in (0.0, 1.0)]
    assert np.array_equal(fields[0].grid.nodes, fields[1].grid.nodes)
    with pytest.raises(FieldShapeError, match="same grid"):
        discrete_c2_distance(*fields)
    # a second grid on an equal ring is the same grid
    twin = sample_field(_circle_grid(r_inner=0.4, r_outer=1.0), lambda x: np.sum(x * x, axis=-1))
    assert discrete_c2_distance(fields[0], twin) == 0.0


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


def test_snapshot_reads_only_version_1():
    grid = _circle_grid(ns=9, ntheta=16)
    snapshot = field_to_dict(ScalarField(grid, np.repeat(0.3 * grid.s[:, None], 16, axis=1),
                                         (0.0, 0.3)))
    assert snapshot["version"] == 1
    for version in (99, 2, 0, "1", 1.0, True, None, [1]):
        with pytest.raises(FieldShapeError, match=f"snapshot has version {re.escape(repr(version))};"):
            field_from_dict({**snapshot, "version": version})
    unversioned = {k: v for k, v in snapshot.items() if k != "version"}
    with pytest.raises(FieldShapeError, match="snapshot has no version"):
        field_from_dict(unversioned)
    assert field_from_dict(snapshot).boundary_values == (0.0, 0.3)


def test_snapshot_rejects_a_malformed_field_before_building_its_grid(monkeypatch):
    # values of another shape than the declared grid and boundary values that
    # are not a pair are FieldShapeErrors, raised before any grid is built, so
    # a snapshot that declares a huge grid allocates none of its nodes
    grid = _circle_grid(ns=9, ntheta=16)
    values = np.repeat(0.3 * grid.s[:, None], 16, axis=1)
    snapshot = field_to_dict(ScalarField(grid, values, (0.0, 0.3)))
    built, build = [], AnnularGrid.__init__
    monkeypatch.setattr(AnnularGrid, "__init__",
                        lambda self, *args: built.append(args) or build(self, *args))
    for declared in ({"ns": 9, "ntheta": 17}, {"ns": 8, "ntheta": 16},
                     {"ns": 257, "ntheta": 512}):
        with pytest.raises(FieldShapeError, match="values shape"):
            field_from_dict({**snapshot, "grid": declared})
    for pair in ([], [0.0], [0.0, 0.3, 1.0], 0.3, "ab", {"0": 0.0, "1": 0.3}):
        with pytest.raises(FieldShapeError, match="boundary_values"):
            field_from_dict({**snapshot, "boundary_values": pair})
    assert built == []
    assert field_from_dict(snapshot).boundary_values == (0.0, 0.3)
    assert len(built) == 1


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


def test_sample_field_boundary_tolerance_scales_with_the_data():
    # 1.3 tau (2 - r) on circles 2 / 1 misses the inner value tau by 30%,
    # at every scale of tau; tau (2 - r) meets it to rounding
    grid = _circle_grid(ns=9, ntheta=16)
    for tau in (1.0, 1e-3, 1e-7, 1e-12):
        with pytest.raises(FieldShapeError):
            sample_field(grid, lambda x: 1.3 * tau * (2.0 - np.linalg.norm(x, axis=-1)),
                         boundary_values=(0.0, tau))
        f = sample_field(grid, lambda x: tau * (2.0 - np.linalg.norm(x, axis=-1)),
                         boundary_values=(0.0, tau))
        assert np.all(f.values[-1] == tau)
    # zero data on both rows: the scale is the largest sampled magnitude
    with pytest.raises(FieldShapeError):
        sample_field(grid, lambda x: 1e-9 * x[..., 0], boundary_values=(0.0, 0.0))


def test_field_to_dict_is_self_describing():
    grid = _circle_grid(ns=9, ntheta=16)
    f = ScalarField(grid, np.zeros((9, 16)), (0.0, 0.0))
    d = field_to_dict(f)
    assert d["format"] == "convexring-field"
    assert d["ring"]["outer"]["kind"] == "circle"
    assert d["grid"] == {"ns": 9, "ntheta": 16}
