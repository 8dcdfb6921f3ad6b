"""Boundary curves, ring validation, and the blended annular grid."""

from __future__ import annotations

import numpy as np
import pytest

from convexring.ring import (
    TWO_PI,
    VALIDATION_THETA,
    AnnularGrid,
    ContainmentError,
    ConvexRing,
    ConvexityError,
    GridFoldError,
    _check_grid_size,
    boundary_convexity_report,
    build_grid,
    containment_margin,
    curve_from_dict,
    geodesic_curvature,
    make_curve,
    make_ring,
    ring_from_dict,
)
from convexring.spaceform import ChartDomainError, SpaceFormChart
from traced_memory import traced_call


def _flat_chart():
    return SpaceFormChart(epsilon=0.0, dim=2)


def _circle_ring(r_inner=1.0, r_outer=2.0, chart=None):
    chart = chart or _flat_chart()
    return make_ring(
        chart,
        make_curve("circle", radius=r_outer),
        make_curve("circle", radius=r_inner),
    )


def test_circle_curvature_is_inverse_radius():
    c = make_curve("circle", radius=2.0)
    theta = np.linspace(0, 2 * np.pi, 17)
    assert np.allclose(c.chart_curvature(theta), 0.5)


def test_ellipse_curvature_extremes():
    # semiaxes (2, 1): curvature ranges over [b/a^2, a/b^2] = [0.25, 2.0]
    e = make_curve("ellipse", radii=(2.0, 1.0))
    theta = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    kappa = e.chart_curvature(theta)
    assert np.min(kappa) == pytest.approx(0.25, rel=1e-6)
    assert np.max(kappa) == pytest.approx(2.0, rel=1e-6)


def test_parametric_derivatives_match_fd():
    rng = np.random.default_rng(5)
    c = make_curve("fourier", r0=1.5, cos_coeffs=(0.05, 0.02), sin_coeffs=(0.0, 0.03))
    h = 1e-6
    for theta in rng.uniform(0, 2 * np.pi, size=6):
        fd1 = (c.point(theta + h) - c.point(theta - h)) / (2 * h)
        fd2 = (c.point(theta + h) - 2 * c.point(theta) + c.point(theta - h)) / h**2
        assert np.allclose(c.d1(theta), fd1, atol=1e-8)
        assert np.allclose(c.d2(theta), fd2, atol=1e-3)


def _per_kind_reference(kind, center, radius=0.0, radii=(0.0, 0.0), r0=0.0,
                        cos_coeffs=(), sin_coeffs=()):
    """point, d1 and d2 written out separately for each curve kind."""

    def radial(theta):
        r = np.full_like(theta, r0)
        dr = np.zeros_like(r)
        d2r = np.zeros_like(r)
        for k, a in enumerate(cos_coeffs, start=1):
            r += a * np.cos(k * theta)
            dr += -a * k * np.sin(k * theta)
            d2r += -a * k * k * np.cos(k * theta)
        for k, b in enumerate(sin_coeffs, start=1):
            r += b * np.sin(k * theta)
            dr += b * k * np.cos(k * theta)
            d2r += -b * k * k * np.sin(k * theta)
        return r, dr, d2r

    def formulas(theta):
        c = np.asarray(center)
        e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        ep = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
        if kind == "circle":
            return c + radius * e, radius * ep, -radius * e
        if kind == "ellipse":
            a, b = radii
            return (c + np.stack([a * np.cos(theta), b * np.sin(theta)], axis=-1),
                    np.stack([-a * np.sin(theta), b * np.cos(theta)], axis=-1),
                    np.stack([-a * np.cos(theta), -b * np.sin(theta)], axis=-1))
        r, dr, d2r = radial(theta)
        return (c + r[..., None] * e, dr[..., None] * e + r[..., None] * ep,
                (d2r - r)[..., None] * e + (2.0 * dr)[..., None] * ep)

    return formulas


def test_one_formula_matches_the_per_kind_formulas_bit_for_bit():
    rng = np.random.default_rng(17)
    theta = rng.uniform(-2.0, 8.0, size=(7, 33))
    specs = [
        dict(kind="circle", center=(0.3, -0.2), radius=1.7),
        dict(kind="ellipse", center=(-0.4, 0.25), radii=(2.3, 1.1)),
        dict(kind="fourier", center=(0.1, 0.05), r0=1.2,
             cos_coeffs=(0.04, 0.0, 0.013, 0.0, 0.0037), sin_coeffs=(0.0, 0.031, 0.0, 0.0071)),
    ]
    for spec in specs:
        curve = curve_from_dict(spec)
        reference = _per_kind_reference(**spec)
        for t in (theta, theta[0, 0]):
            for got, want in zip((curve.point(t), curve.d1(t), curve.d2(t)), reference(t)):
                assert got.shape == want.shape
                # + 0.0 maps -0.0 to 0.0: signed zeros may differ
                assert np.array_equal(got + 0.0, want + 0.0), spec["kind"]


def test_missing_or_non_finite_curve_parameter_is_rejected():
    for kind, key in (("circle", "radius"), ("ellipse", "radii"), ("fourier", "r0")):
        with pytest.raises(ValueError, match=f"{kind} curve is missing '{key}'"):
            make_curve(kind, center=(0.0, 0.0))
    for kind, params in (
        ("circle", {"radius": np.nan}),
        ("circle", {"radius": np.inf}),
        ("ellipse", {"radii": (2.0, np.inf)}),
        ("ellipse", {"radii": (2.0, 1.0), "center": (np.nan, 0.0)}),
        ("fourier", {"r0": 1.0, "sin_coeffs": (0.0, np.nan)}),
    ):
        with pytest.raises(ValueError, match=f"{kind} curve parameters must be finite"):
            make_curve(kind, **params)
    # no string or bool reads as a number; center and radii are pairs
    for kind, params in (
        ("ellipse", {"radii": "32"}),
        ("circle", {"radius": True}),
        ("circle", {"radius": 1.0, "center": "00"}),
        ("fourier", {"r0": 1.0, "cos_coeffs": (np.False_,)}),
    ):
        with pytest.raises(ValueError, match=f"{kind} curve parameters must be a number"):
            make_curve(kind, **params)
    # finite lengths whose squares or cubes overflow or underflow
    for kind, params in (
        ("circle", {"radius": 1e300}),
        ("circle", {"radius": 1e-300}),
        ("circle", {"radius": 1.0, "center": (1e200, 0.0)}),
        ("ellipse", {"radii": (1e300, 1.0)}),
        ("fourier", {"r0": 1e308, "cos_coeffs": (1e308,)}),
    ):
        with pytest.raises(ValueError, match=f"{kind} curve lengths must lie between"):
            make_curve(kind, **params)
    assert make_curve("circle", radius=1e99).r0 == 1e99
    for center in ((0.5,), (0.0, 0.0, 1.0)):
        with pytest.raises(ValueError, match="unpack"):
            make_curve("circle", radius=1.0, center=center)


def test_dented_curve_rejected():
    with pytest.raises(ConvexityError):
        make_curve("fourier", r0=1.0, cos_coeffs=(0.0, 0.0, 0.3))


def test_mild_fourier_curve_accepted():
    c = make_curve("fourier", r0=1.0, cos_coeffs=(0.0, 0.0, 0.05))
    assert c.kind == "fourier"


def test_containment_margin_circles():
    outer = make_curve("circle", radius=2.0)
    inner = make_curve("circle", radius=1.0)
    assert containment_margin(outer, inner) == pytest.approx(1.0, abs=1e-6)


def _table_margin(outer, inner):
    """The containment margin as the table of every inner sample against
    every supporting line of the outer samples, m x m entries."""
    q = outer.point(VALIDATION_THETA)
    nu = outer.outward_normal(VALIDATION_THETA)
    p = inner.point(VALIDATION_THETA)
    offsets = np.einsum("mk,mk->m", nu, q)
    gaps = offsets[None, :] - np.einsum("mk,pk->pm", nu, p)
    return float(np.min(gaps))


def _random_curve(rng, scale, center):
    """A random strictly convex circle, ellipse or fourier curve."""
    kind = ("circle", "ellipse", "fourier")[rng.integers(3)]
    if kind == "circle":
        return make_curve("circle", center=center, radius=scale)
    if kind == "ellipse":
        return make_curve("ellipse", center=center, radii=tuple(scale * rng.uniform(0.3, 1.0, 2)))
    while True:
        k = np.arange(1, rng.integers(2, 7))
        cos_coeffs, sin_coeffs = scale * rng.uniform(-1.0, 1.0, (2, k.size)) / (5.0 * k * k)
        try:
            return make_curve("fourier", center=center, r0=scale,
                              cos_coeffs=tuple(cos_coeffs), sin_coeffs=tuple(sin_coeffs))
        except ConvexityError:
            continue


def _shrunk(curve, factor):
    """The curve scaled by ``factor`` about its centre."""
    spec = curve.to_dict()
    for key in ("radius", "radii", "r0", "cos_coeffs", "sin_coeffs"):
        if key in spec:
            spec[key] = (np.asarray(spec[key]) * factor).tolist()
    return curve_from_dict(spec)


def test_containment_margin_is_the_table_minimum_bit_for_bit():
    # random off-centre pairs of every kind, contained or not, and inner
    # curves that nearly touch the outer one: scaled copies of it, and
    # circles pushed to within 1e-3 .. 1e-12 of it
    rng = np.random.default_rng(30)
    pairs = []
    for _ in range(200):
        outer = _random_curve(rng, rng.uniform(0.5, 3.0), tuple(rng.uniform(-1.0, 1.0, 2)))
        center = np.asarray(outer.center) + rng.uniform(-0.5, 0.5, 2)
        pairs.append((outer, _random_curve(rng, rng.uniform(0.05, 2.5), tuple(center))))
    for _ in range(70):
        outer = _random_curve(rng, rng.uniform(0.5, 3.0), tuple(rng.uniform(-1.0, 1.0, 2)))
        pairs.append((outer, _shrunk(outer, 1.0 - 10.0 ** -rng.uniform(3, 12))))
    for _ in range(40):
        radius, gap = rng.uniform(0.5, 3.0), 10.0 ** -rng.uniform(3, 12)
        r = rng.uniform(0.1, 0.9) * radius
        angle = rng.uniform(0.0, TWO_PI)
        offset = (radius - r - gap) * np.array([np.cos(angle), np.sin(angle)])
        pairs.append((make_curve("circle", radius=radius),
                      make_curve("circle", center=tuple(offset), radius=r)))
    signs = set()
    for outer, inner in pairs:
        margin = containment_margin(outer, inner)
        assert margin == _table_margin(outer, inner), (outer, inner)
        signs.add(margin > 0)
    assert len(pairs) >= 300 and signs == {True, False}


def test_containment_margin_allocates_no_table():
    # fewer bytes at peak than one byte per pair of samples
    outer = make_curve("ellipse", radii=(3.0, 2.0))
    inner = make_curve("fourier", center=(0.1, 0.0), r0=1.0, cos_coeffs=(0.05, 0.02))
    containment_margin(outer, inner)
    _, _, peak = traced_call(containment_margin, outer, inner)
    assert peak < len(VALIDATION_THETA) ** 2, peak


def test_overlapping_curves_rejected():
    chart = _flat_chart()
    outer = make_curve("circle", radius=2.0)
    sticking_out = make_curve("circle", center=(1.5, 0.0), radius=1.0)
    with pytest.raises(ContainmentError):
        make_ring(chart, outer, sticking_out)


def test_ring_requires_curves_inside_chart_ball():
    # eps = 1: the chart ends at the equator |x| = 2, so a circle of radius 2
    # is rejected, while one of radius 1.9 (0.95 of the equator) builds, being
    # geodesically convex: kappa_g = 1/1.9 - 1.9/4 = 0.0513
    chart = SpaceFormChart(epsilon=1.0, dim=2)
    inner = make_curve("circle", radius=0.5)
    with pytest.raises(ChartDomainError, match="equator"):
        make_ring(chart, make_curve("circle", radius=2.0), inner)
    ring = make_ring(chart, make_curve("circle", radius=1.9), inner)
    kg_min = boundary_convexity_report(ring)["outer"]["geodesic_kappa_min"]
    assert kg_min == pytest.approx(1.0 / 1.9 - 1.9 / 4.0, abs=1e-12)


def test_ring_requires_a_chart_of_dimension_two():
    # the curves and the grid are planar: a 3-D chart builds no ring, with a
    # message that names the rule rather than a point shape
    outer, inner = make_curve("circle", radius=2.0), make_curve("circle", radius=1.0)
    for eps in (0.0, 1.0):
        with pytest.raises(ValueError, match="dimension 2 only, got a chart of dim 3"):
            make_ring(SpaceFormChart(epsilon=eps, dim=3), outer, inner)


def test_geodesic_curvature_circle_matches_closed_form():
    # chart circle of radius R about the origin on the eps-sphere:
    # kappa_g = 1/R - eps R / 4 (equals cot of the geodesic radius, scaled)
    for eps in (0.5, 1.0):
        chart = SpaceFormChart(epsilon=eps, dim=2)
        for R in (0.3, 0.8, 1.2):
            c = make_curve("circle", radius=R)
            kg = geodesic_curvature(c, chart, np.linspace(0, 2 * np.pi, 64))
            assert np.allclose(kg, 1.0 / R - eps * R / 4.0, atol=1e-12)


def test_geodesic_convexity_rejects_flat_spot_on_sphere():
    # ellipse (1.7, 1.0) at eps = 1: chart curvature at (0, 1) is about 0.35
    # but the conformal correction drags the geodesic curvature below zero
    chart = SpaceFormChart(epsilon=1.0, dim=2)
    outer = make_curve("ellipse", radii=(1.7, 1.0))
    inner = make_curve("circle", radius=0.3)
    with pytest.raises(ConvexityError):
        make_ring(chart, outer, inner)
    # the same pair is a perfectly fine flat ring
    assert make_ring(_flat_chart(), outer, inner) is not None


def test_boundary_convexity_report_circles():
    report = boundary_convexity_report(_circle_ring())
    assert report["outer"]["chart_kappa_min"] == pytest.approx(0.5, abs=1e-9)
    assert report["inner"]["chart_kappa_min"] == pytest.approx(1.0, abs=1e-9)
    assert report["containment_margin"] == pytest.approx(1.0, abs=1e-6)


def test_grid_node_positions_circles():
    grid = build_grid(_circle_ring(), ns=9, ntheta=32)
    # s = 0.5 is row 4; radius blends to 1.5 at theta = 0
    assert np.allclose(grid.nodes[0, 0], [2.0, 0.0])
    assert np.allclose(grid.nodes[8, 0], [1.0, 0.0])
    assert np.allclose(grid.nodes[4, 0], [1.5, 0.0])
    assert grid.nodes.shape == (9, 32, 2)


def test_grid_determinant_single_signed():
    grid = build_grid(_circle_ring(), ns=12, ntheta=48)
    _, _, det = grid._jacobian(grid.s[:, None], grid.theta)
    assert np.all(det < 0) or np.all(det > 0)


def test_max_spacing_is_the_norm_of_the_longest_node_edge():
    # bit for bit the largest np.linalg.norm of the node differences along s
    # and, with the wrap from the last column to the first, along theta, over
    # every node; at 5 x 512 the s-edges are the longest
    readme = make_ring(_flat_chart(), make_curve("ellipse", radii=(3.0, 2.0)),
                       make_curve("ellipse", radii=(1.2, 0.8)))
    curved = make_ring(SpaceFormChart(epsilon=1.0, dim=2), make_curve("circle", radius=1.5),
                       make_curve("ellipse", center=(0.2, 0.1), radii=(0.6, 0.4)))
    for ring in (readme, curved):
        for ns, ntheta in ((17, 32), (65, 128), (257, 512), (5, 512)):
            grid = build_grid(ring, ns, ntheta)
            ds = np.linalg.norm(np.diff(grid.nodes, axis=0), axis=-1)
            dt = np.linalg.norm(np.roll(grid.nodes, -1, axis=1) - grid.nodes, axis=-1)
            assert grid.max_spacing == float(max(ds.max(), dt.max()))
            if (ns, ntheta) == (5, 512):
                assert ds.max() > dt.max()


def test_grid_jacobian_matches_fd():
    ring = make_ring(
        _flat_chart(),
        make_curve("ellipse", radii=(3.0, 2.0)),
        make_curve("ellipse", radii=(1.2, 0.8)),
    )
    grid = build_grid(ring, ns=8, ntheta=16)
    h = 1e-6
    rng = np.random.default_rng(2)
    for _ in range(5):
        s = rng.uniform(0.1, 0.9)
        t = rng.uniform(0, 2 * np.pi)
        x_s, x_t, _ = grid._jacobian(s, t)
        fd_s = (grid.map_point(s + h, t) - grid.map_point(s - h, t)) / (2 * h)
        fd_t = (grid.map_point(s, t + h) - grid.map_point(s, t - h)) / (2 * h)
        assert np.allclose(x_s, fd_s, atol=1e-8)
        assert np.allclose(x_t, fd_t, atol=1e-8)
    # the node geometry's second derivatives, at interior nodes
    geo = grid._node_geometry
    for _ in range(5):
        i, j = rng.integers(1, grid.ns - 1), rng.integers(grid.ntheta)
        s, t = grid.s[i], grid.theta[j]
        fd_st = (
            grid.map_point(s + h, t + h) - grid.map_point(s + h, t - h)
            - grid.map_point(s - h, t + h) + grid.map_point(s - h, t - h)
        ) / (4 * h * h)
        fd_tt = (grid.map_point(s, t + h) - 2 * grid.map_point(s, t) + grid.map_point(s, t - h)) / h**2
        assert np.allclose([c[j] for c in geo.x_st], fd_st, atol=1e-3)
        assert np.allclose([c[i, j] for c in geo.x_tt], fd_tt, atol=1e-3)


_README_RING = make_ring(_flat_chart(), make_curve("ellipse", radii=(3.0, 2.0)),
                         make_curve("ellipse", radii=(1.2, 0.8)))
_SPHERE_RING = make_ring(SpaceFormChart(epsilon=1.0, dim=2), make_curve("ellipse", radii=(1.2, 0.8)),
                         make_curve("ellipse", radii=(0.48, 0.32)))


@pytest.mark.parametrize("ring", [_README_RING, _SPHERE_RING], ids=["readme", "sphere"])
@pytest.mark.parametrize("ns, ntheta", [(33, 64), (257, 512)])
def test_node_geometry_is_the_whole_grid_evaluation(ring, ns, ntheta):
    # J^{-1} and x_tt written block by block equal J^{-1} and the x_tt blend
    # taken over the whole grid at once, bit for bit
    grid = build_grid(ring, ns, ntheta)
    geo = grid._node_geometry
    s, theta = grid.s[:, None], grid.theta
    jinv, _ = grid._jacobian_inverse(s, theta)
    outer, inner = ring.outer, ring.inner
    x_tt = [(1.0 - s) * outer.d2(theta)[..., k] + s * inner.d2(theta)[..., k] for k in range(2)]
    x_st = [inner.d1(theta)[..., k] - outer.d1(theta)[..., k] for k in range(2)]
    for row, ref in zip(geo.jinv, jinv):
        assert all(np.array_equal(a, b) for a, b in zip(row, ref))
    assert all(np.array_equal(a, b) for a, b in zip(geo.x_tt, x_tt))
    assert all(np.array_equal(a, b) for a, b in zip(geo.x_st, x_st))
    assert not hasattr(geo, "lam") and not hasattr(geo, "dlog")


@pytest.mark.parametrize("outer, inner", [(2.5, 1.0), (1.0, 2.5)], ids=["first-block", "last-block"])
def test_node_geometry_rejects_a_node_beyond_the_equator(outer, inner):
    # a ring built without make_ring's checks on the unit sphere, whose
    # equator has radius 2: the nodes past it lie on the first rows, or
    # (a reversed blend, which does not fold) on the last rows, blocks away
    ring = ConvexRing(SpaceFormChart(epsilon=1.0, dim=2), make_curve("circle", radius=outer),
                      make_curve("circle", radius=inner))
    grid = build_grid(ring, 257, 512)
    with pytest.raises(ChartDomainError, match="reaches the equator"):
        grid._node_geometry


def test_node_geometry_peaks_near_what_it_keeps():
    # the README ring at 257 x 512: the node geometry keeps six arrays of the
    # grid's size, J^{-1} and x_tt, plus x_st (8 kB at 512 angles), and no
    # lambda or grad log lambda.  It fills them in blocks of rows, so its
    # peak lies within a MiB of what it keeps (0.67 MiB measured; full-grid
    # x_t, det J, lambda and its gradient would take another 3.1 MiB)
    grid = build_grid(_README_RING, ns=257, ntheta=512)
    geometry, kept, peak = traced_call(lambda: grid._node_geometry)
    grid_bytes = grid.ns * grid.ntheta * 8
    assert geometry.x_tt[0].nbytes == grid_bytes
    assert 6 * grid_bytes <= kept <= 6 * grid_bytes + 2**15, kept
    assert peak <= kept + 2**20, (peak, kept)


def test_grid_peaks_near_what_it_keeps():
    # the README ring at 257 x 512: the nodes and the s-edges are taken in
    # blocks of rows, and the grid keeps its nodes and no det J array
    ring = make_ring(
        _flat_chart(),
        make_curve("ellipse", radii=(3.0, 2.0)),
        make_curve("ellipse", radii=(1.2, 0.8)),
    )
    build_grid(ring, 257, 512)
    grid, kept, peak = traced_call(build_grid, ring, 257, 512)
    assert not hasattr(grid, "det")
    assert kept >= grid.nodes.nbytes
    assert peak <= 1.5 * kept, (peak, kept)


def _full_grid_fold(ring, ns, ntheta):
    """The fold check's message on det J at every node, written out from the
    curves, or None when the grid passes."""
    s = np.linspace(0.0, 1.0, ns)[:, None]
    theta = TWO_PI * np.arange(ntheta) / ntheta
    x_s = ring.inner.point(theta) - ring.outer.point(theta)
    x_t = (1.0 - s)[..., None] * ring.outer.d1(theta) + s[..., None] * ring.inner.d1(theta)
    det = x_s[..., 0] * x_t[..., 1] - x_t[..., 0] * x_s[..., 1]
    try:
        AnnularGrid._validate_determinants(det)
    except GridFoldError as exc:
        return str(exc)
    return None


def _degenerate_ring(rng):
    """A folding ring whose det J on its inner row vanishes, to rounding, at
    theta = 3 pi / 8: the inner ellipse's centre is bisected onto the zero."""
    outer = make_curve("ellipse", radii=tuple(np.array([2.6, 1.1]) * rng.uniform(0.97, 1.03, 2)))
    radii = tuple(np.array([0.1, 0.85]) * rng.uniform(0.97, 1.03, 2))
    theta = TWO_PI * 3 / 16

    def inner_det(cx):
        inner = make_curve("ellipse", center=(cx, 0.0), radii=radii)
        x_s, d1 = inner.point(theta) - outer.point(theta), inner.d1(theta)
        return inner, x_s[0] * d1[1] - d1[0] * x_s[1]

    lo, hi = 0.9, 1.3
    assert inner_det(lo)[1] < 0.0 < inner_det(hi)[1]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if inner_det(mid)[1] < 0.0 else (lo, mid)
    return make_ring(_flat_chart(), outer, inner_det(lo)[0])


def test_fold_verdicts_match_the_full_grid():
    # random off-centre inner curves; small ones near the tip of a long
    # ellipse, which often fold; and rings whose det J vanishes at a node of
    # the inner row, which degenerate there
    rng = np.random.default_rng(31)
    chart = _flat_chart()
    rings = [_degenerate_ring(rng) for _ in range(8)]
    while len(rings) < 68:
        a = rng.uniform(1.0, 3.0)
        if len(rings) < 48:
            outer = make_curve("ellipse", radii=(a, a * rng.uniform(0.25, 0.5)))
            center = (rng.choice([-1.0, 1.0]) * rng.uniform(0.6, 0.95) * a, 0.0)
            inner = _random_curve(rng, a * rng.uniform(0.01, 0.08), center)
        else:
            outer = _random_curve(rng, a, (0.0, 0.0))
            inner = _random_curve(rng, a * rng.uniform(0.03, 0.3), tuple(rng.uniform(-0.5, 0.5, 2)))
        try:
            rings.append(make_ring(chart, outer, inner))
        except ContainmentError:
            continue
    messages = []
    for ring in rings:
        for ns, ntheta in ((9, 32), (17, 48), (33, 64)):
            want = _full_grid_fold(ring, ns, ntheta)
            if want is None:
                build_grid(ring, ns, ntheta)
            else:
                with pytest.raises(GridFoldError) as caught:
                    build_grid(ring, ns, ntheta)
                assert str(caught.value) == want
            messages.append(want)
    kinds = {None if m is None else m.split(" at node")[0] for m in messages}
    assert kinds == {None, "blend map folds", "blend map degenerates"}, kinds
    assert "blend map degenerates at node (8, 6)" in messages


def test_grid_refinement_nests_nodes():
    grid = build_grid(_circle_ring(), ns=7, ntheta=16)
    fine = grid.refine()
    assert fine.ns == 13 and fine.ntheta == 32
    assert np.allclose(fine.nodes[::2, ::2], grid.nodes, atol=1e-14)


def test_fold_detector_names_offending_node():
    det = np.ones((5, 6))
    det[3, 2] = -1.0
    with pytest.raises(GridFoldError, match=r"\(3, 2\)"):
        AnnularGrid._validate_determinants(det)
    det2 = np.ones((4, 4))
    det2[1, 3] = 0.0
    with pytest.raises(GridFoldError, match=r"\(1, 3\)"):
        AnnularGrid._validate_determinants(det2)


def test_grid_minimum_sizes():
    ring = _circle_ring()
    with pytest.raises(ValueError):
        build_grid(ring, ns=3, ntheta=32)
    with pytest.raises(ValueError):
        build_grid(ring, ns=9, ntheta=4)


def test_grid_maximum_size_fits_int32_jacobian_indices():
    # 9 (ns - 2) ntheta Jacobian entries must fit the solver's int32 sparse
    # indices; a grid past that is rejected before any node is allocated
    ring = _circle_ring()
    for ns, ntheta, larger in ((10**400, 32, "ns"), (10**6, 10**6, "ns"),
                               (17, 10**6 * 17, "ntheta"), (10**6, 256, "ns")):
        with pytest.raises(ValueError, match=f"^{larger} too large: "):
            AnnularGrid(ring, ns, ntheta)
    # the bound itself: 9 * 238609294 = 2**31 - 2 entries pass, one row more fails
    _check_grid_size(2 + 238609294, 1, "ns")
    with pytest.raises(ValueError, match="^oracle_grid_sizes entry too large"):
        _check_grid_size(3 + 238609294, 1, "oracle_grid_sizes entry")


def test_grid_sizes_are_whole_numbers():
    ring = _circle_ring()
    grid = AnnularGrid(ring, 17.0, np.int64(32))
    assert (grid.ns, grid.ntheta) == (17, 32)
    assert type(grid.ns) is int and type(grid.ntheta) is int
    for ns, ntheta in ((17.9, 32), (17, float("inf")), (float("nan"), 32), (True, 32),
                       ("17", 32)):
        with pytest.raises(ValueError, match="whole number"):
            AnnularGrid(ring, ns, ntheta)


def test_curve_serialization_round_trip():
    curves = [
        make_curve("circle", center=(0.1, -0.2), radius=1.5),
        make_curve("ellipse", radii=(2.0, 1.0)),
        make_curve("fourier", r0=1.2, cos_coeffs=(0.03,), sin_coeffs=(0.0, 0.02)),
    ]
    for c in curves:
        back = curve_from_dict(c.to_dict())
        assert back == c


def test_ring_serialization_round_trip():
    ring = _circle_ring()
    d = ring.to_dict()
    assert d["chart"] == {"epsilon": ring.chart.epsilon, "dim": ring.chart.dim}
    back = ring_from_dict(d)
    assert back.outer == ring.outer and back.inner == ring.inner
    # a chart written with more keys reads its epsilon and dim alone, and a
    # negative epsilon is rejected on reading as on building
    assert ring_from_dict({**d, "chart": {**d["chart"], "chart_radius": np.inf}}) == back
    with pytest.raises(ValueError, match="epsilon must be >= 0"):
        ring_from_dict({**d, "chart": {"epsilon": -0.5, "dim": 2}})
    assert back.chart.epsilon == ring.chart.epsilon
