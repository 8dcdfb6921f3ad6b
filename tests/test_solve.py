"""Solver tests against closed-form and structural oracles.

The harmonic solve has an exact radial answer on concentric circles,
ln(R0/r)/ln(R0/R1), which pins down both the discretization order and the
tau-linearity.  The nonlinear solve is checked structurally here (Jacobian
consistency, residual decrease, comparison with the supersolution); the
radial ODE oracle comparison lives with the verification suite.
"""

import gc
import inspect
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from convexring import field, solve
from convexring.field import ScalarField
from convexring.ring import build_grid, make_curve, make_ring
from convexring.solve import (
    ContinuationError,
    SolveOptions,
    SolverError,
    _Assembler,
    _assembler,
    _coarse_grid,
    _prolong,
    build_supersolution,
    continuation_solve,
    continuation_targets,
    minimal_graph_residual,
    solve_harmonic,
    solve_minimal_graph,
    solve_prescribed_mean_curvature,
)
from convexring.spaceform import SpaceFormChart, conformal_factor


def _circle_ring(eps=0.0, r_out=2.0, r_in=1.0):
    chart = SpaceFormChart(epsilon=eps)
    return make_ring(chart, make_curve("circle", radius=r_out),
                     make_curve("circle", radius=r_in))


def _ellipse_ring():
    chart = SpaceFormChart(epsilon=0.0)
    outer = make_curve("ellipse", radii=(2.0, 1.4))
    inner = make_curve("circle", radius=0.5)
    return make_ring(chart, outer, inner)


def _readme_ring():
    chart = SpaceFormChart(epsilon=0.0)
    return make_ring(chart, make_curve("ellipse", radii=(3.0, 2.0)),
                     make_curve("ellipse", radii=(1.2, 0.8)))


def _harmonic_errors(ns, ntheta):
    grid = build_grid(_circle_ring(), ns, ntheta)
    f = solve_harmonic(grid, 1.0)
    r = np.linalg.norm(grid.nodes, axis=-1)
    exact = np.log(2.0 / r) / np.log(2.0)
    return float(np.max(np.abs(f.values - exact)))


def test_harmonic_matches_radial_logarithm():
    err_coarse = _harmonic_errors(17, 48)
    err_fine = _harmonic_errors(33, 96)
    order = np.log2(err_coarse / err_fine)
    assert err_fine < 1e-3
    assert order > 1.8


def test_harmonic_tau_scaling_is_exact():
    grid = build_grid(_ellipse_ring(), 13, 40)
    full = solve_harmonic(grid, 1.0)
    scaled = solve_harmonic(grid, 0.3)
    assert np.allclose(scaled.values, 0.3 * full.values, atol=1e-12)


def test_harmonic_maximum_principle():
    grid = build_grid(_ellipse_ring(), 13, 40)
    f = solve_harmonic(grid, 0.7)
    assert f.values.min() >= -1e-12
    assert f.values.max() <= 0.7 + 1e-12
    assert np.all(f.values[0] == 0.0)
    assert np.all(f.values[-1] == 0.7)


def test_harmonic_rejects_tau_outside_unit_interval():
    grid = build_grid(_circle_ring(), 9, 24)
    with pytest.raises(ValueError):
        solve_harmonic(grid, 0.0)
    with pytest.raises(ValueError):
        solve_harmonic(grid, 1.5)
    for bad in ("0.5", True):
        with pytest.raises(ValueError, match="tau must be a number"):
            solve_harmonic(grid, bad)


def test_residual_zero_for_constant_field():
    grid = build_grid(_ellipse_ring(), 9, 24)
    f = ScalarField(grid=grid, values=np.full((9, 24), 0.37))
    assert np.all(minimal_graph_residual(f) == 0.0)


def test_residual_affine_field_is_truncation_small():
    # planes are minimal in the flat chart; only mapping truncation remains
    def affine(p):
        return 0.2 + 0.5 * p[..., 0] - 0.3 * p[..., 1]

    errs = []
    for ns, ntheta in ((17, 48), (33, 96)):
        grid = build_grid(_ellipse_ring(), ns, ntheta)
        f = ScalarField(grid=grid, values=affine(grid.nodes))
        errs.append(float(np.max(np.abs(minimal_graph_residual(f)))))
    assert errs[1] < 2e-3
    assert np.log2(errs[0] / errs[1]) > 1.8


def _sphere_ellipse_ring():
    chart = SpaceFormChart(epsilon=1.0)
    outer = make_curve("ellipse", radii=(1.2, 0.9))
    inner = make_curve("ellipse", center=(0.1, 0.0), radii=(0.5, 0.3))
    return make_ring(chart, outer, inner)


def test_jacobian_matches_directional_difference():
    rng = np.random.default_rng(7)
    h = 1e-6
    for ring in (_circle_ring(eps=1.0, r_out=1.2, r_in=0.5), _sphere_ellipse_ring()):
        grid = build_grid(ring, 7, 16)
        asm = _Assembler(grid)
        # the Jacobian's rows and columns are in nested-dissection order:
        # node n (row-major) sits at position[n]
        position = asm._pattern[3]

        def nd_order(x):
            out = np.empty(position.size)
            out[position] = x.ravel()
            return out

        for linear in (False, True):
            v = 0.3 * rng.standard_normal((7, 16))
            direction = rng.standard_normal((5, 16))
            # the linear residual's Jacobian is the Jacobian at zero gradient
            jac = asm.jacobian(np.zeros_like(v) if linear else v)
            reference = jac @ nd_order(direction)

            vp, vm = v.copy(), v.copy()
            vp[1:-1] += h * direction
            vm[1:-1] -= h * direction
            fd = nd_order(asm.residual(vp, linear=linear) - asm.residual(vm, linear=linear)) / (2 * h)
            scale = max(1.0, np.max(np.abs(reference)))
            assert np.max(np.abs(fd - reference)) < 1e-6 * scale, (ring.outer.kind, linear)


def test_face_flux_matches_tensor_formulas():
    # reference: p = J^{-T} d, g = det J^{-1} A(p) and B = det J^{-1} dA/dp J^{-T}
    # with A(p) = lambda^(n-2) p / W, written with full 2x2 tensors
    rng = np.random.default_rng(5)
    grid = build_grid(_sphere_ellipse_ring(), 9, 24)
    asm = _Assembler(grid)
    sf = np.meshgrid(grid.s[:-1] + 0.5 * grid.hs, grid.theta, indexing="ij")
    tf = np.meshgrid(grid.s[1:-1], grid.theta + 0.5 * grid.htheta, indexing="ij")
    for a, (ss, tt) in enumerate((sf, tf)):
        x_s, x_t, _ = grid._jacobian(ss, tt)
        jac = np.stack([x_s[0], x_t[0], x_s[1], x_t[1]], axis=-1).reshape(ss.shape + (2, 2))
        jinv, det = np.linalg.inv(jac), np.linalg.det(jac)
        lam = conformal_factor(grid.ring.chart, grid.map_point(ss, tt))
        lam_pow = lam ** (grid.ring.chart.dim - 2)
        u_s, u_t = rng.standard_normal((2,) + ss.shape)
        p = np.einsum("...ai,...a->...i", jinv, np.stack([u_s, u_t], axis=-1))
        for linear in (False, True):
            w = np.ones_like(lam) if linear else np.sqrt(1.0 + np.sum(p * p, axis=-1) / lam**2)
            m = (lam_pow / w)[..., None, None] * np.eye(2)
            if not linear:
                m -= (lam_pow / (lam**2 * w**3))[..., None, None] * p[..., :, None] * p[..., None, :]
            g = det[..., None] * np.einsum("...ai,...i->...a", jinv, (lam_pow / w)[..., None] * p)
            b = det[..., None, None] * np.einsum("...ai,...ij,...bj->...ab", jinv, m, jinv)
            flux = asm._flux(a, u_s, u_t, linear)
            # W = 1 exactly at zero gradient, which is the linear operator
            d_s, d_t = asm._sensitivity(a, *((0.0 * u_s, 0.0 * u_t) if linear else (u_s, u_t)))
            for got, want in ((flux, g[..., a]), (d_s, b[..., a, 0]), (d_t, b[..., a, 1])):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _roll_face_gradients(asm, v):
    """(u_s, u_t) on s-faces and on theta-faces by explicit roll formulas."""
    hs, ht = asm.h
    vp, vm = np.roll(v, -1, axis=1), np.roll(v, 1, axis=1)
    s_face = ((v[1:] - v[:-1]) / hs, (vp[:-1] + vp[1:] - vm[:-1] - vm[1:]) / (4.0 * ht))
    hi = v[2:] + np.roll(v[2:], -1, axis=1)
    lo = v[:-2] + np.roll(v[:-2], -1, axis=1)
    vi = v[1:-1]
    t_face = ((hi - lo) / (4.0 * hs), (np.roll(vi, -1, axis=1) - vi) / ht)
    return s_face, t_face


def test_stencil_table_matches_roll_formulas():
    rng = np.random.default_rng(3)

    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    for ring in (_ellipse_ring(), _sphere_ellipse_ring()):
        grid = build_grid(ring, 9, 24)
        asm = _Assembler(grid)
        hs, ht = asm.h
        for linear in (False, True):
            v = 0.3 * rng.standard_normal((9, 24))
            faces = _roll_face_gradients(asm, v)
            for normal, want in enumerate(faces):
                for got, ref in zip(asm._gradients(v, normal), want):
                    assert_close(got, ref)
            gs = asm._flux(0, *faces[0], linear)
            gt = asm._flux(1, *faces[1], linear)
            div = (gs[1:] - gs[:-1]) / hs + (gt - np.roll(gt, 1, axis=1)) / ht
            assert_close(asm.residual(v, linear=linear),
                         div / grid._jacobian(grid.s[1:-1, None], grid.theta)[2])


def test_jacobian_calls_share_the_sparsity_pattern():
    rng = np.random.default_rng(11)
    grid = build_grid(_sphere_ellipse_ring(), 9, 24)
    asm = _assembler(grid)
    first = asm.jacobian(0.3 * rng.standard_normal((9, 24)))
    second = asm.jacobian(0.3 * rng.standard_normal((9, 24)))
    assert np.shares_memory(first.indptr, second.indptr)
    assert np.shares_memory(first.indices, second.indices)
    assert not np.array_equal(first.data, second.data)
    # the harmonic operator uses the same pattern
    harmonic = asm.jacobian(np.zeros((9, 24)))
    assert np.shares_memory(first.indices, harmonic.indices)


@pytest.mark.parametrize("ns, ntheta", [(17, 32), (33, 64)])
def test_nested_dissection_orders_every_unknown_once_with_small_leaves(ns, ntheta):
    rows = ns - 2
    blocks = solve._dissection_blocks(rows, ntheta)
    order = solve._nested_dissection(rows, ntheta)
    # a bijection of the interior unknowns, row-major inside every block
    assert np.array_equal(np.sort(order), np.arange(rows * ntheta))
    assert order.tolist() == [r * ntheta + c for r0, c0, h, w in blocks
                              for r in range(r0, r0 + h) for c in range(c0, c0 + w)]
    # column 0 cuts the periodic ring and comes last
    assert blocks[-1] == (0, 0, rows, 1)
    assert np.array_equal(order[-rows:], np.arange(rows) * ntheta)
    # a leaf touches no earlier block through the 9-point stencil and has at
    # most 16 nodes; every other block is one separating column or row
    block_of = np.empty((rows, ntheta), dtype=int)
    for k, (r0, c0, h, w) in enumerate(blocks):
        block_of[r0:r0 + h, c0:c0 + w] = k
    for k, (r0, c0, h, w) in enumerate(blocks):
        touches_earlier = any(block_of[r + a, (c + b) % ntheta] < k
                              for r in range(r0, r0 + h) for c in range(c0, c0 + w)
                              for a in (-1, 0, 1) for b in (-1, 0, 1) if 0 <= r + a < rows)
        assert (not touches_earlier and h * w <= 16) or min(h, w) == 1, (k, blocks[k])
    # the assembler's position of each node inverts the order
    position = _assembler(build_grid(_readme_ring(), ns, ntheta))._pattern[3]
    assert np.array_equal(position[order], np.arange(rows * ntheta))


def test_jacobian_is_canonical_csc():
    # sorted, duplicate-free row indices in each column: SuperLU gets the
    # nested-dissection matrix as it is, with no conversion, sort or copy
    rng = np.random.default_rng(13)
    grid = build_grid(_sphere_ellipse_ring(), 17, 32)
    asm = _assembler(grid)
    jac = asm.jacobian(0.3 * rng.standard_normal((17, 32)))
    assert jac.format == "csc"
    assert jac.has_canonical_format
    # a nine-point stencil: nine entries per column, six next to a Dirichlet row
    counts = np.diff(jac.indptr)[asm._pattern[3]].reshape(15, 32)
    assert np.all(counts[1:-1] == 9) and np.all(counts[[0, -1]] == 6)


def test_assembler_is_cached_per_grid():
    grid = build_grid(_ellipse_ring(), 9, 24)
    asm = _assembler(grid)
    assert _assembler(grid) is asm
    finer = grid.refine()
    assert _assembler(finer) is not asm
    assert (_assembler(finer).ns, _assembler(finer).ntheta) == (finer.ns, finer.ntheta)
    # an equal but separately built grid gets its own assembler
    assert _assembler(build_grid(_ellipse_ring(), 9, 24)) is not asm


def test_assembler_cache_releases_dropped_grids(monkeypatch):
    grid = build_grid(_ellipse_ring(), 9, 24)
    f, _ = solve_minimal_graph(grid, 0.5)
    minimal_graph_residual(f)
    grid_ref = weakref.ref(grid)
    asm_ref = weakref.ref(_assembler(grid))
    del grid, f
    gc.collect()
    assert grid_ref() is None
    assert asm_ref() is None

    # a nested solve frees each coarse grid before the next level factors:
    # at every factorisation the cache holds the factored grid alone
    cached = []
    factorize = solve._factorize

    def recording(matrix):
        cached.append((matrix.shape[0], [(g.ns, g.ntheta) for g in solve._ASSEMBLERS.keys()]))
        return factorize(matrix)

    monkeypatch.setattr(solve, "_factorize", recording)
    grid = build_grid(_ellipse_ring(), 65, 64)
    f, report = solve_minimal_graph(grid, 0.5)
    assert len(cached) == report.factorizations
    assert {shapes[0] for _, shapes in cached} == {(17, 16), (33, 32), (65, 64)}
    for n, shapes in cached:
        ((ns, ntheta),) = shapes
        assert n == (ns - 2) * ntheta
    gc.collect()
    assert [(g.ns, g.ntheta) for g in solve._ASSEMBLERS.keys()] == [(65, 64)]


def test_minimal_graph_converges_and_obeys_report_contract():
    grid = build_grid(_circle_ring(), 17, 48)
    f, report = solve_minimal_graph(grid, 0.5)
    assert report.converged
    assert report.final_residual_max <= 1e-10
    assert report.tau == 0.5
    assert report.min_gradient_norm > 0.0
    assert report.wall_time >= 0.0
    assert np.all(f.values[0] == 0.0)
    assert np.all(f.values[-1] == 0.5)
    # residual recomputed from the returned field agrees with the report
    r = minimal_graph_residual(f)
    assert np.max(np.abs(r)) <= 1e-10


def test_newton_count_is_mesh_independent():
    counts = []
    for ns, ntheta in ((17, 48), (33, 96)):
        grid = build_grid(_circle_ring(), ns, ntheta)
        _, report = solve_minimal_graph(grid, 0.5)
        counts.append(report.newton_iterations)
    assert abs(counts[0] - counts[1]) <= 2


def test_small_tau_solution_stays_near_harmonic():
    grid = build_grid(_circle_ring(), 17, 48)
    tau = 0.01
    omega = solve_harmonic(grid, tau)
    u, report = solve_minimal_graph(grid, tau)
    assert report.converged
    # the nonlinear correction enters at higher order in tau
    assert np.max(np.abs(u.values - omega.values)) < 1e-5 * tau


def test_supersolution_formula_and_boundary():
    grid = build_grid(_circle_ring(), 9, 24)
    tau = 0.4
    omega = solve_harmonic(grid, tau)
    v = build_supersolution(omega, tau)
    w = omega.values
    assert np.allclose(v.values[1:-1], -w[1:-1] ** 2 / (4 * tau) + 1.25 * w[1:-1])
    assert np.all(v.values[0] == 0.0)
    assert np.all(v.values[-1] == tau)
    # g(tau/2) = 9 tau / 16
    assert -((tau / 2) ** 2) / (4 * tau) + 1.25 * (tau / 2) == pytest.approx(9 * tau / 16)


def test_supersolution_requires_matching_boundary_data():
    grid = build_grid(_circle_ring(), 9, 24)
    omega = solve_harmonic(grid, 0.4)
    with pytest.raises(SolverError):
        build_supersolution(omega, 0.5)


def test_solution_below_supersolution():
    grid = build_grid(_ellipse_ring(), 17, 48)
    tau = 0.5
    omega = solve_harmonic(grid, tau)
    v = build_supersolution(omega, tau)
    u, report = solve_minimal_graph(grid, tau)
    assert report.converged
    # u = v on the Dirichlet rows, and u < v strictly inside
    assert np.array_equal(u.values[[0, -1]], v.values[[0, -1]])
    assert np.max(u.values[1:-1] - v.values[1:-1]) < 0.0


def test_prescribed_zero_curvature_matches_minimal():
    grid = build_grid(_circle_ring(), 9, 24)
    u0, _ = solve_minimal_graph(grid, 0.3)
    u1, report = solve_prescribed_mean_curvature(grid, 0.3, lambda p: np.zeros(p.shape[:-1]))
    assert report.converged
    assert np.array_equal(u0.values, u1.values)


def test_prescribed_large_curvature_reports_failure():
    # the flux is bounded, so a large source has no solution; the solver
    # must hand back a non-converged report instead of raising
    grid = build_grid(_circle_ring(), 9, 24)
    options = SolveOptions(max_newton=8)
    _, report = solve_prescribed_mean_curvature(grid, 0.3, lambda p: np.full(p.shape[:-1], 20.0),
                                                options=options)
    assert not report.converged
    assert report.final_residual_max > 1e-10


def test_continuation_walks_targets_on_circles():
    grid = build_grid(_circle_ring(), 13, 32)
    trace = continuation_solve(grid, [0.25, 0.5, 1.0])
    assert trace.tau_schedule == [0.25, 0.5, 1.0]
    assert all(s.report.converged for s in trace.steps)
    assert all(s.report.min_gradient_norm > 0.0 for s in trace.steps)
    assert all(s.min_level_curvature > 0.0 for s in trace.steps)
    assert all(s.outer_boundary_min_gradient > 0.0 for s in trace.steps)
    diffs = np.diff(trace.tau_schedule)
    assert np.all(diffs > 0)
    assert trace.final_field is trace.steps[-1].field
    assert trace.steps[-1].tau == 1.0


def test_continuation_single_target_needs_no_halving():
    grid = build_grid(_ellipse_ring(), 13, 32)
    trace = continuation_solve(grid, [1.0])
    assert trace.tau_schedule == [1.0]
    assert all(s.report.converged for s in trace.steps)


def test_continuation_small_first_target_starts_there():
    grid = build_grid(_circle_ring(), 9, 24)
    trace = continuation_solve(grid, [0.02])
    assert trace.tau_schedule == [0.02]
    # the schedule is the targets, with no step of its own before them
    trace = continuation_solve(grid, [0.0500000000000001, 0.3])
    assert trace.tau_schedule == [0.0500000000000001, 0.3]


def _circles_eps1_ring():
    return make_ring(SpaceFormChart(epsilon=1.0), make_curve("circle", radius=1.2),
                     make_curve("circle", radius=0.5))


@pytest.mark.parametrize("ring", [_readme_ring, _circles_eps1_ring], ids=["readme", "circles-eps1"])
@pytest.mark.parametrize("tau", [0.5, 1.0])
def test_continuation_solves_exactly_its_targets(ring, tau):
    # a first target gets no step below it: the walk's one step starts from
    # the nested start and reaches the field of a walk that steps through
    # 0.05 first, also at tau = 1, where 33x64 does not resolve the field
    grid = build_grid(ring(), 33, 64)
    trace = continuation_solve(grid, [tau])
    assert trace.tau_schedule == [tau]
    assert trace.steps[0].report.converged
    through = continuation_solve(grid, [0.05, tau])
    assert through.tau_schedule == [0.05, tau]
    assert np.max(np.abs(trace.final_field.values - through.final_field.values)) <= 1e-9


def test_continuation_empty_targets_empty_trace():
    grid = build_grid(_circle_ring(), 9, 24)
    trace = continuation_solve(grid, [])
    assert trace.steps == []
    assert trace.final_field is None


def test_continuation_validates_targets():
    grid = build_grid(_circle_ring(), 9, 24)
    with pytest.raises(ValueError):
        continuation_solve(grid, [0.5, 0.25])
    with pytest.raises(ValueError):
        continuation_solve(grid, [0.5, 1.5])


def test_continuation_failure_carries_partial_trace():
    grid = build_grid(_circle_ring(), 9, 24)
    # an unreachable tolerance plus a line-search floor that forbids damping
    # makes every solve stagnate at the rounding level and report failure
    options = SolveOptions(newton_tol=1e-30, max_newton=6, min_step=0.6)
    with pytest.raises(ContinuationError) as excinfo:
        continuation_solve(grid, [0.05], options=options)
    assert excinfo.value.trace.steps == []
    assert "continuation stalled at tau=0.05:" in str(excinfo.value)


def test_step_that_cannot_converge_ends_the_walk(monkeypatch):
    # three Newton steps reach tau = 0.05 but not 0.5 from there: the walk
    # makes one solve at 0.5 and stops, with no smaller step tried in between
    taus = []
    real = solve.solve_minimal_graph

    def recording(grid, tau, *args, **kwargs):
        taus.append(tau)
        return real(grid, tau, *args, **kwargs)

    monkeypatch.setattr(solve, "solve_minimal_graph", recording)
    grid = build_grid(_readme_ring(), 33, 64)
    with pytest.raises(ContinuationError) as excinfo:
        continuation_solve(grid, [0.05, 0.5, 1.0], options=SolveOptions(max_newton=3))
    assert taus == [0.05, 0.5]
    assert excinfo.value.trace.tau_schedule == [0.05]
    message = str(excinfo.value)
    assert message.startswith("continuation stalled at tau=0.5: max residual ")
    assert message.endswith(" after 3 Newton steps")


def test_readme_walk_keeps_its_newton_and_factorisation_counts():
    # (Newton steps, factorisations) per step of a converging walk: the
    # nested start at tau = 0.5 (the harmonic solve on 17x32, then one
    # factorisation on each Newton level), then the rescaled previous field
    grid = build_grid(_readme_ring(), 65, 128)
    trace = continuation_solve(grid, [0.5, 1.0])
    assert trace.tau_schedule == [0.5, 1.0]
    assert [(s.report.newton_iterations, s.report.factorizations)
            for s in trace.steps] == [(4, 4), (9, 3)]


def test_linear_solver_option_is_gone():
    # one direct SuperLU path; naming a linear solver is a TypeError, which
    # the CLI reports as a config error (see test_cli)
    with pytest.raises(TypeError):
        SolveOptions(linear_solver="stabilized-iterative")
    with pytest.raises(TypeError):
        SolveOptions(linear_tol=1e-12)


def test_readme_ring_keeps_newton_counts_and_lu_fill():
    ring = _readme_ring()
    # chord Newton from the cubic nested start: 33x64 starts from 17x32,
    # which starts from its harmonic field; factorisations count every level
    # (the harmonic one, then 1 + 1 at tau = 0.5 and 2 + 2 at tau = 1), steps
    # only the requested level, which starts at a max residual of 0.10 and
    # 0.48 (linear midpoints: 0.95 and 1.5, and 4 and 7 steps)
    for tau, steps, factorizations in ((0.5, 4, 3), (1.0, 4, 5)):
        _, report = solve_minimal_graph(build_grid(ring, 33, 64), tau)
        assert report.converged
        assert (report.newton_iterations, report.factorizations) == (steps, factorizations)
    # 65x128 from 33x64 from 17x32: the harmonic solve on 17x32, then two
    # factorisations on each Newton level; 65x128 starts at 0.42 (linear: 1.7,
    # and 6 steps)
    _, report = solve_minimal_graph(build_grid(ring, 65, 128), 1.0)
    assert (report.newton_iterations, report.factorizations) == (4, 7)
    # the nested-dissection order gives 518842 at 65x128; SuperLU's own
    # minimum degree on A^T + A gave 522760, and COLAMD 941244
    assert 0 < report.lu_fill < 600_000


def _scaled_readme_ring(scale):
    chart = SpaceFormChart(epsilon=0.0)
    return make_ring(chart, make_curve("ellipse", radii=(3.0 * scale, 2.0 * scale)),
                     make_curve("ellipse", radii=(1.2 * scale, 0.8 * scale)))


@pytest.mark.parametrize("scale, outcome", [
    (1e-30, "harmonic solve left residual max "),
    (1e-10, "harmonic solve left residual max "),
    (1e18, (True, 0, 1)),
])
def test_scaled_ring_ends_as_with_float64_factors(scale, outcome):
    # Jacobian entries scale as scale^-2 (1e60 and 1e-36 here), past the
    # float32 range both ways: the power-of-two scaling keeps the cast
    # finite (an overflow would be a RuntimeWarning, an error under pytest,
    # and then a singular factor).  Each ring ends as it does with float64
    # factors: the absolute residual bars fail the small rings, and the
    # large one starts converged (the bars are not scale-aware, ROADMAP
    # item 1)
    grid = build_grid(_scaled_readme_ring(scale), 33, 64)
    if isinstance(outcome, str):
        with pytest.raises(SolverError) as excinfo:
            solve_minimal_graph(grid, 1.0)
        assert str(excinfo.value).startswith(outcome)
    else:
        _, report = solve_minimal_graph(grid, 1.0)
        assert (report.converged, report.newton_iterations, report.factorizations) == outcome


def test_float32_newton_step_matches_a_float64_solve():
    grid = build_grid(_readme_ring(), 129, 256)
    asm = _assembler(grid)
    v = solve_harmonic(grid, 1.0).values
    jac, r = asm.jacobian(v), asm.residual(v)
    factors = solve._factorize(jac)
    assert factors._lu.L.dtype == np.float32
    step = asm.newton_step(factors, r)
    reference = asm.newton_step(spla.splu(jac, permc_spec="NATURAL"), r)
    assert step.dtype == np.float64
    assert np.max(np.abs(step - reference)) <= 1e-4 * np.max(np.abs(reference))


def test_every_factorisation_keeps_its_superlu_settings(monkeypatch):
    # a return to SuperLU's default 10-column panels lifts the 257x512
    # peak memory ~30 MB above the factors, and gives the same answers
    calls = []

    class Recording:
        def splu(self, matrix, **kwargs):
            calls.append((matrix.format, matrix.dtype, kwargs))
            return spla.splu(matrix, **kwargs)

    monkeypatch.setattr(solve, "spla", Recording())
    _, report = solve_minimal_graph(build_grid(_readme_ring(), 65, 128), 1.0)
    assert report.converged and len(calls) == report.factorizations > 1
    solve_harmonic(build_grid(_readme_ring(), 33, 64), 1.0)
    assert len(calls) == report.factorizations + 1
    assert all(call == ("csc", np.float32, {"permc_spec": "NATURAL", "panel_size": 1})
               for call in calls)


def test_harmonic_refinement_meets_its_tolerance_and_the_float64_solve():
    grid = build_grid(_readme_ring(), 129, 256)
    asm = _assembler(grid)
    f = solve_harmonic(grid, 1.0)
    assert np.max(np.abs(asm.residual(f.values, linear=True))) <= solve.HARMONIC_RESIDUAL_TOL
    v = np.zeros_like(f.values)
    v[-1] = 1.0
    lu = spla.splu(asm.jacobian(np.zeros_like(v)), permc_spec="NATURAL")
    v[1:-1] += asm.newton_step(lu, asm.residual(v, linear=True))
    assert np.max(np.abs(f.values - v)) <= 1e-10


def _refined_harmonic(grid, tau):
    """The reference harmonic solve: its own loop reapplies one set of
    float32 factors to the float64 residual while the max residual falls
    and is above HARMONIC_RESIDUAL_TOL."""
    asm = _assembler(grid)
    v = np.zeros((grid.ns, grid.ntheta))
    v[-1] = tau
    lu = solve._Factors(asm.jacobian(np.zeros_like(v)))
    r = asm.residual(v, linear=True)
    rmax = float(np.max(np.abs(r)))
    while True:
        v[1:-1] += asm.newton_step(lu, r)
        r = asm.residual(v, linear=True)
        previous, rmax = rmax, float(np.max(np.abs(r)))
        if rmax <= solve.HARMONIC_RESIDUAL_TOL or not rmax < previous:
            return v


@pytest.mark.parametrize("ring", [_readme_ring(), _sphere_ellipse_ring()],
                         ids=["readme", "sphere-ellipse"])
@pytest.mark.parametrize("ns, ntheta", [(33, 64), (129, 256)])
def test_harmonic_solve_is_the_refinement_loop_bit_for_bit(monkeypatch, ring, ns, ntheta):
    # the chord loop on the linear operator takes full steps on factors it
    # never rebuilds: refinement sweeps contract far below CHORD_CONTRACTION
    factorisations = _call_count(monkeypatch, solve, "_factorize")
    grid = build_grid(ring, ns, ntheta)
    for tau in (1.0, 0.3):
        assert np.array_equal(solve_harmonic(grid, tau).values, _refined_harmonic(grid, tau))
    assert factorisations == [2]


@pytest.mark.parametrize("ns, ntheta", [(33, 64), (65, 128), (129, 256)])
def test_stalled_harmonic_solve_factors_once(monkeypatch, ns, ntheta):
    # a bar of 1e-17 lies below the residual's round-off, so the loop stalls;
    # the W = 1 matrix cannot change, so a rejected step ends it unrefactored
    monkeypatch.setattr(solve, "HARMONIC_RESIDUAL_TOL", 1e-17)
    factorisations = _call_count(monkeypatch, solve, "_factorize")
    with pytest.raises(SolverError, match="harmonic solve left residual max"):
        solve_harmonic(build_grid(_readme_ring(), ns, ntheta), 1.0, SolveOptions(newton_tol=1e-17))
    assert factorisations == [1]


def test_every_factorisation_runs_in_the_chord_loop(monkeypatch):
    callers = []
    factorize = solve._factorize

    def recording(matrix):
        callers.append(inspect.currentframe().f_back.f_code)
        return factorize(matrix)

    monkeypatch.setattr(solve, "_factorize", recording)
    grid = build_grid(_readme_ring(), 33, 64)
    solve_harmonic(grid, 1.0)
    _, cold = solve_minimal_graph(grid, 1.0)
    walk = continuation_solve(grid, [0.5, 1.0])
    _, prescribed = solve_prescribed_mean_curvature(grid, 0.3, lambda p: 0.1 + 0.0 * p[..., 0])
    assert len(callers) == 1 + cold.factorizations + prescribed.factorizations + sum(
        step.report.factorizations for step in walk.steps)
    assert all(code is solve._chord_newton.__code__ for code in callers)


def test_lu_fill_is_zero_without_a_factorisation():
    grid = build_grid(_circle_ring(), 9, 24)
    u, _ = solve_minimal_graph(grid, 0.3)
    _, report = solve_minimal_graph(grid, 0.3, init=u)
    assert report.newton_iterations == 0
    assert report.lu_fill == 0
    assert report.factorizations == 0


def test_options_validation():
    with pytest.raises(SolverError):
        SolveOptions(newton_tol=-1.0)
    with pytest.raises(SolverError):
        SolveOptions(max_newton=0)
    # a JSON true would otherwise read as 1: an unconverged field passes
    # newton_tol=1.0, and max_newton=1 stalls the continuation
    for bad in ({"newton_tol": True}, {"min_step": True}, {"newton_tol": np.True_},
                {"max_newton": True}, {"newton_tol": "1e-10"}, {"min_step": np.inf}):
        with pytest.raises(SolverError):
            SolveOptions(**bad)
    for bad in ([True], [0.5, True], [np.True_], ["0.5"], [0.5, np.nan]):
        with pytest.raises(ValueError):
            continuation_targets(bad)


def test_tau_is_read_alike_with_and_without_an_initializer():
    # an initializer skips the harmonic start, whose tau check once was the
    # only one: a start carrying tau = 2 converged and reported tau = 2.0,
    # and True ran as tau = 1.0
    grid = build_grid(_circle_ring(), 9, 24)
    omega = solve_harmonic(grid, 1.0)
    doubled = ScalarField(grid=grid, values=2.0 * omega.values, boundary_values=(0.0, 2.0))
    for bad in (2.0, 0.0, True, "0.5", np.inf):
        start = doubled if bad == 2.0 else omega
        for run in (lambda init: solve_minimal_graph(grid, bad, init=init),
                    lambda init: solve_prescribed_mean_curvature(
                        grid, bad, lambda p: 0.0 * p[..., 0], init=init)):
            with pytest.raises(ValueError, match="tau must") as cold:
                run(None)
            with pytest.raises(ValueError) as warm:
                run(start)
            assert str(warm.value) == str(cold.value), bad


def test_initializer_must_fit_the_grid_and_its_data():
    grid = build_grid(_readme_ring(), 33, 64)
    coarse = solve_harmonic(build_grid(_readme_ring(), 17, 32), 1.0)
    with pytest.raises(SolverError, match=r"shape \(33, 64\).*shape \(17, 32\)"):
        solve_minimal_graph(grid, 1.0, init=coarse)
    with pytest.raises(SolverError, match=r"Dirichlet data \(0, tau\)"):
        solve_minimal_graph(grid, 0.5, init=solve_harmonic(grid, 1.0))


def test_oracle_init_converges_fast():
    # initializing at the converged solution must need no further steps
    grid = build_grid(_circle_ring(), 17, 48)
    u, _ = solve_minimal_graph(grid, 0.5)
    _, report = solve_minimal_graph(grid, 0.5, init=u)
    assert report.converged
    assert report.newton_iterations == 0


# -- nested start --------------------------------------------------------------


def test_coarse_grid_is_every_other_node():
    grid = build_grid(_readme_ring(), 65, 128)
    coarse = _coarse_grid(grid)
    assert (coarse.ns, coarse.ntheta) == (33, 64)
    assert np.allclose(coarse.refine().nodes, grid.nodes, rtol=0.0, atol=1e-14)
    assert np.allclose(coarse.nodes, grid.nodes[::2, ::2], rtol=0.0, atol=1e-14)
    # even ns, odd ntheta, or a coarse grid below 17x16 do not nest
    for ns, ntheta in ((64, 64), (65, 65), (17, 48), (9, 24), (65, 30)):
        assert _coarse_grid(build_grid(_readme_ring(), ns, ntheta)) is None, (ns, ntheta)
    for ns, ntheta in ((33, 32), (33, 96)):
        assert _coarse_grid(build_grid(_readme_ring(), ns, ntheta)) is not None, (ns, ntheta)


def test_prolongation_injects_and_takes_cubic_midpoints():
    rng = np.random.default_rng(2)
    coarse = rng.standard_normal((9, 16))
    coarse[0], coarse[-1] = 0.0, 0.7
    fine = _prolong(coarse, 0.7)
    assert fine.shape == (17, 32)
    assert np.array_equal(fine[::2, ::2], coarse)
    assert np.all(fine[0] == 0.0) and np.all(fine[-1] == 0.7)
    # a cubic in s, constant in theta, is reproduced exactly, the one-sided
    # midpoints next to the Dirichlet rows included
    s = np.linspace(0.0, 1.0, 17)
    cubic = 0.7 * s + s * (1.0 - s) * (0.3 + 2.0 * s)
    assert np.allclose(_prolong(np.repeat(cubic[::2, None], 16, axis=1), 0.7),
                       np.repeat(cubic[:, None], 32, axis=1), rtol=0.0, atol=1e-15)

    # fourth order in theta: quadratic in s, so the error is the periodic
    # theta midpoints' alone; it shrinks ~16x per halving
    def sampled(ns, ntheta):
        s = np.linspace(0.0, 1.0, ns)[:, None]
        theta = 2.0 * np.pi * np.arange(ntheta)[None, :] / ntheta
        return s * (1.0 - s) * (np.cos(theta) + 0.2 * np.sin(2.0 * theta))

    errors = [np.max(np.abs(_prolong(sampled(ns, ntheta), 0.0)
                            - sampled(2 * ns - 1, 2 * ntheta)))
              for ns, ntheta in ((9, 16), (17, 32), (33, 64))]
    assert errors[0] / errors[1] >= 14.0 and errors[1] / errors[2] >= 14.0, errors


def test_cubic_start_factors_the_finest_level_once(monkeypatch):
    # the prolonged 65x128 iterate is accurate enough that chord steps on the
    # first 129x256 factors converge; linear midpoints start at a max
    # residual of 1.7 and need a second factorisation there
    shapes, starts = [], {}
    factorize, newton = solve._factorize, solve._chord_newton

    def recording_factorize(matrix):
        shapes.append(matrix.shape[0])
        return factorize(matrix)

    def recording_newton(grid, v, options, *args, **kwargs):
        starts[(grid.ns, grid.ntheta)] = float(np.max(np.abs(_assembler(grid).residual(v))))
        return newton(grid, v, options, *args, **kwargs)

    monkeypatch.setattr(solve, "_factorize", recording_factorize)
    monkeypatch.setattr(solve, "_chord_newton", recording_newton)
    _, report = solve_minimal_graph(build_grid(_readme_ring(), 129, 256), 1.0)
    assert report.converged
    assert len(shapes) == report.factorizations
    assert shapes.count(127 * 256) == 1
    assert starts[(129, 256)] < 0.5


@pytest.mark.parametrize("ring, ns, ntheta", [(_readme_ring(), 65, 128),
                                               (_sphere_ellipse_ring(), 33, 64)],
                         ids=["readme-65x128", "sphere-ellipse-33x64"])
def test_nested_start_matches_harmonic_start(ring, ns, ntheta):
    grid = build_grid(ring, ns, ntheta)
    nested, report = solve_minimal_graph(grid, 1.0)
    harmonic, reference = solve_minimal_graph(grid, 1.0, init=solve_harmonic(grid, 1.0))
    assert report.converged and reference.converged
    assert np.max(np.abs(nested.values - harmonic.values)) <= 1e-12


def test_prescribed_curvature_nested_start_matches_harmonic_start(monkeypatch):
    grid = build_grid(_circle_ring(), 33, 64)

    def h_fn(p):
        return 0.1 + 0.02 * p[..., 0]

    # each level's Newton loop gets the source at its own interior nodes;
    # the coarsest level's harmonic start runs the linear loop without one
    calls = []
    newton = solve._chord_newton

    def recording(*args, **kwargs):
        call = inspect.signature(newton).bind(*args, **kwargs)
        call.apply_defaults()
        calls.append(call.arguments)
        return newton(*args, **kwargs)

    monkeypatch.setattr(solve, "_chord_newton", recording)
    nested, report = solve_prescribed_mean_curvature(grid, 0.3, h_fn)
    assert [(c["grid"].ns, c["grid"].ntheta, c["linear"]) for c in calls] == [
        (17, 32, True), (17, 32, False), (33, 64, False)]
    assert calls[0]["source"] is None
    for c in calls[1:]:
        assert np.allclose(c["source"], h_fn(c["grid"].nodes[1:-1]), rtol=0.0, atol=1e-14)

    harmonic, reference = solve_prescribed_mean_curvature(
        grid, 0.3, h_fn, init=solve_harmonic(grid, 0.3))
    assert report.converged and reference.converged
    assert np.max(np.abs(nested.values - harmonic.values)) <= 1e-12


def _harmonic_grids(monkeypatch):
    grids = []
    harmonic = solve.solve_harmonic

    def counting(grid, *args, **kwargs):
        grids.append((grid.ns, grid.ntheta))
        return harmonic(grid, *args, **kwargs)

    monkeypatch.setattr(solve, "solve_harmonic", counting)
    return grids


def _call_count(monkeypatch, module, name):
    """Patch module.name to count its calls; returns the one-item counter."""
    calls = [0]
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_non_nesting_grid_starts_from_its_own_harmonic_field(monkeypatch):
    grids = _harmonic_grids(monkeypatch)
    _, report = solve_minimal_graph(build_grid(_circle_ring(), 64, 64), 0.5)
    assert report.converged
    assert grids == [(64, 64)]


def test_nested_grid_runs_one_harmonic_solve_on_the_coarsest_grid(monkeypatch):
    grids = _harmonic_grids(monkeypatch)
    # coarse levels run the Newton loop alone: one public solve, one jet table
    solves = _call_count(monkeypatch, solve, "solve_minimal_graph")
    jet_tables = _call_count(monkeypatch, field, "_build_jet_table")
    _, report = solve.solve_minimal_graph(build_grid(_readme_ring(), 129, 256), 1.0)
    assert report.converged
    assert grids == [(17, 32)]
    assert (solves, jet_tables) == ([1], [1])


def test_unconverged_coarse_iterate_is_still_prolonged(monkeypatch):
    # one Newton step cannot converge on any level; each level still starts
    # from the prolonged coarse iterate, so only the coarsest grid solves
    # for its harmonic field
    grids = _harmonic_grids(monkeypatch)
    grid = build_grid(_readme_ring(), 65, 128)
    _, report = solve_minimal_graph(grid, 1.0, options=SolveOptions(max_newton=1))
    assert not report.converged
    assert grids == [(17, 32)]
    assert report.factorizations == 1 + 3


def test_rejected_chord_step_refactors_instead_of_ending_the_solve(monkeypatch):
    # factors that turn useless once reused (their second solve points
    # uphill): the chord step is rejected, and the solve must refactor at
    # the current iterate and go on, where a rejected fresh step would end it
    class OneShot:
        def __init__(self, lu):
            self.lu, self.nnz, self.solves = lu, lu.nnz, 0

        def solve(self, rhs):
            self.solves += 1
            delta = self.lu.solve(rhs)
            return delta if self.solves == 1 else -delta

    factors = []
    factorize = solve._factorize

    def one_shot(matrix):
        factors.append(OneShot(factorize(matrix)))
        return factors[-1]

    grid = build_grid(_circle_ring(), 9, 24)
    omega = solve_harmonic(grid, 0.3)
    monkeypatch.setattr(solve, "_factorize", one_shot)
    _, report = solve_minimal_graph(grid, 0.3, init=omega)
    assert report.converged
    assert report.factorizations == len(factors)
    assert max(f.solves for f in factors) == 2  # some chord step was rejected


def test_step_that_backtracks_is_followed_by_fresh_factors(monkeypatch):
    # with the contraction rule switched off (every accepted step shrinks
    # the residual), only backtracking can trigger a refactorisation; log
    # factorisations (F), linear solves (S) and residual evaluations (R)
    events = []

    class Logged:
        def __init__(self, lu):
            self.lu, self.nnz = lu, lu.nnz

        def solve(self, rhs):
            events.append("S")
            return self.lu.solve(rhs)

    factorize, residual = solve._factorize, _Assembler.residual

    def logged_factorize(matrix):
        events.append("F")
        return Logged(factorize(matrix))

    def logged_residual(self, *args, **kwargs):
        events.append("R")
        return residual(self, *args, **kwargs)

    grid = build_grid(_sphere_ellipse_ring(), 33, 64)
    omega = solve_harmonic(grid, 1.0)
    monkeypatch.setattr(solve, "_factorize", logged_factorize)
    monkeypatch.setattr(_Assembler, "residual", logged_residual)
    monkeypatch.setattr(solve, "CHORD_CONTRACTION", 1.0)
    _, report = solve_minimal_graph(grid, 1.0, init=omega)
    assert report.converged
    steps = "".join(events).split("S")[1:]
    backtracked = [step for step in steps[:-1] if step.count("R") > 1]
    assert backtracked  # the harmonic start of this ring needs damping
    assert all(step.endswith("F") for step in backtracked)
