"""Acceptance suite: the eleven release criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py``; every test prints a
``criterion N: PASS/FAIL`` line with the measured quantities so the log reads
as a checklist.  Tolerances are the stated ones, not tuned values.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from convexring.cli import main
from convexring.field import ScalarField
from convexring.levelgeom import (
    elementary_symmetric,
    principal_curvatures,
    rank_scan,
    sigma_k_level,
    structure_condition_check,
)
from convexring.oracle import radial_oracle
from convexring.ring import ConvexCurve, ConvexityError, build_grid, make_curve, make_ring
from convexring.solve import continuation_solve, solve_harmonic, solve_minimal_graph
from convexring.spaceform import PointJet, SpaceFormChart
from convexring.verify import (
    check_convexity_and_rank,
    check_gradient_max_principle,
    check_gradient_monotonicity,
    check_small_tau_regime,
    check_solver_vs_oracle,
    check_supersolution,
    check_tau_estimates,
)


def _criterion(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _ring(chart_eps, outer_kind, outer_params, inner_kind, inner_params):
    chart = SpaceFormChart(epsilon=chart_eps, dim=2)
    return make_ring(chart,
                     make_curve(outer_kind, **outer_params),
                     make_curve(inner_kind, **inner_params))


@pytest.fixture(scope="module")
def test_rings():
    """The standard test rings: flat circles, flat ellipse ring, curved circles."""
    return {
        "circles-eps0": _ring(0.0, "circle", {"radius": 2.0}, "circle", {"radius": 1.0}),
        "ellipse-eps0": _ring(0.0, "ellipse", {"radii": (2.0, 1.4)},
                              "circle", {"radius": 0.5}),
        "circles-eps1": _ring(1.0, "circle", {"radius": 1.2}, "circle", {"radius": 0.5}),
    }


@pytest.fixture(scope="module")
def solved_fields(test_rings):
    """tau = 0.5 minimal graphs on every test ring, shared by criteria 4 and 8."""
    fields = {}
    for name, ring in test_rings.items():
        grid = build_grid(ring, 33, 64)
        f, report = solve_minimal_graph(grid, 0.5)
        assert report.converged, name
        fields[name] = f
    return fields


@pytest.fixture(scope="module")
def big_ellipse_field():
    """Criterion 7 geometry: ellipse(3,2) outside ellipse(1.2,0.8), tau = 1."""
    ring = _ring(0.0, "ellipse", {"radii": (3.0, 2.0)},
                 "ellipse", {"radii": (1.2, 0.8)})
    grid = build_grid(ring, 97, 192)
    trace = continuation_solve(grid, [1.0])
    assert all(s.report.converged for s in trace.steps)
    return trace.final_field


def test_criterion_01_solver_matches_radial_oracle():
    report = check_solver_vs_oracle(grid_sizes=(64, 128, 256))
    errors = report.extras["max_errors"]
    orders = report.extras["orders"]
    ok = (report.passed
          and errors[-1] <= 5e-4
          and min(orders) >= 1.8
          and report.runtime_s <= 180.0)  # 60 s budget for each of the 3 solves
    _criterion(1, ok, f"max error {errors[-1]:.3e} at 256x256, "
                      f"orders {[f'{o:.2f}' for o in orders]}, "
                      f"runtime {report.runtime_s:.1f}s")


def test_criterion_02_sigma_routes_agree_on_random_jets():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in (2, 3):
        for _ in range(1000):
            g = rng.standard_normal(n)
            g *= rng.uniform(0.5, 2.0) / np.linalg.norm(g)
            a = rng.standard_normal((n, n))
            jet = PointJet(point=np.zeros(n), value=0.0, grad=g, hess=0.5 * (a + a.T))
            eigs = principal_curvatures(jet)
            for k in range(1, n):
                dev = abs(sigma_k_level(jet, k) - elementary_symmetric(eigs, k))
                worst = max(worst, dev)
    _criterion(2, worst <= 1e-10,
               f"2000 jets in n=2,3, max route deviation {worst:.2e}")


def test_criterion_03_supersolution_inequalities(test_rings):
    margins = {}
    for name in ("circles-eps0", "ellipse-eps0"):
        grid = build_grid(test_rings[name], 33, 64)
        for tau in (0.25, 0.5, 1.0):
            omega = solve_harmonic(grid, tau)
            u, rep = solve_minimal_graph(grid, tau)
            assert rep.converged
            margins[f"{name}@{tau}"] = check_supersolution(u, omega).margin
    worst = min(margins.values())
    _criterion(3, worst >= 0.0,
               f"defect and comparison hold on 2 rings x 3 tau, "
               f"worst margin {worst:.4f}")


def test_criterion_04_gradient_max_principle(solved_fields):
    margins = {name: check_gradient_max_principle(f).margin
               for name, f in solved_fields.items()}
    worst = min(margins.values())
    _criterion(4, worst >= 0.0,
               f"interior never beats boundary + 10h^2 for eps in {{0,1}}, "
               f"worst margin {worst:.4f}")


def test_criterion_05_tau_bands_within_two(test_rings):
    grid = build_grid(test_rings["circles-eps0"], 33, 64)
    taus = (0.1, 0.2, 0.4, 0.8)
    trace = continuation_solve(grid, taus)  # one step per target
    report = check_tau_estimates([s.field for s in trace.steps])
    control = check_tau_estimates([solve_harmonic(grid, t) for t in taus])
    bg, bd = report.extras["gradient_band"], report.extras["distance_band"]
    control_exact = (abs(control.extras["gradient_band"] - 1.0) <= 1e-9
                     and abs(control.extras["distance_band"] - 1.0) <= 1e-9)
    ok = report.passed and bg <= 2.0 and bd <= 2.0 and control_exact
    _criterion(5, ok, f"gradient band x{bg:.3f}, distance band x{bd:.3f}, "
                      f"harmonic control exactly linear")


def test_criterion_06_small_tau_quadratic_regime(test_rings):
    grid = build_grid(test_rings["circles-eps0"], 33, 64)
    trace = continuation_solve(grid, (0.01, 0.02, 0.04))
    report = check_small_tau_regime([s.field for s in trace.steps], solve_harmonic(grid, 1.0))
    ratios = [f"{q:.4f}" for q in report.extras["ratios"]]
    _criterion(6, report.passed,
               f"|u - omega|_C2 / tau^2 ratios {ratios} inside the 1.5 band")


def test_criterion_07_strict_convexity_and_constant_rank(big_ellipse_field):
    f = big_ellipse_field
    report = check_convexity_and_rank(f)
    grad = f.jet_table()["grad"][1:-1]
    grad_min = float(np.min(np.linalg.norm(grad, axis=-1)))
    levels_ok = len(report.extras["kappa_min_by_level"]) >= 8
    rank_ok = report.extras["rank_min"] == 1 and report.extras["rank_max"] == 1

    oracle = radial_oracle(1.0, 2.0, 0.3, n=3)
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(200, 3))
    pts *= (rng.uniform(1.1, 1.9, size=200) / np.linalg.norm(pts, axis=1))[:, None]
    scan = rank_scan(oracle.jet(pts))
    rank3d_ok = scan.constant_rank and scan.min_rank == 2 and scan.lambda_min > 0.0

    ok = (report.passed and levels_ok and rank_ok and grad_min > 0.0 and rank3d_ok)
    _criterion(7, ok, f"8 levels, min kappa {report.extras['kappa_min']:.4f} > "
                      f"10h^2 = {report.tolerance:.4f}, min |grad u| {grad_min:.4f}, "
                      f"rank 1 in 2D and rank 2 on the 3D radial oracle")


def test_criterion_08_gradient_monotonicity(solved_fields, big_ellipse_field):
    fields = dict(solved_fields)
    fields["big-ellipse"] = big_ellipse_field
    results = {name: check_gradient_monotonicity(f) for name, f in fields.items()}
    worst_fraction = min(r.extras["positive_fraction"] for r in results.values())
    ok = all(r.passed for r in results.values())
    _criterion(8, ok, f"{len(fields)} converged rings, worst strict fraction "
                      f"{worst_fraction:.4f} >= 0.99, floor -10h^2 respected")


def test_criterion_09_structure_condition_examples():
    pts = np.array([[1.2, 0.0], [0.0, 1.5], [1.0, 1.0]])
    flat = SpaceFormChart(epsilon=0.0, dim=2)
    curved = SpaceFormChart(epsilon=1.0, dim=2)
    zero = np.zeros(2), np.zeros((2, 2))

    a = structure_condition_check(lambda x: (0.0, *zero), flat, pts)
    b = structure_condition_check(lambda x: (2.0, *zero), flat, pts)
    c = structure_condition_check(lambda x: (2.0, *zero), curved, pts)

    pattern_ok = a.passed and b.passed and not c.passed
    exact_ok = (a.min_eigenvalue == 0.0 and b.min_eigenvalue == 0.0
                and abs(c.min_eigenvalue + 16.0) < 1e-12)
    _criterion(9, pattern_ok and exact_ok,
               f"H=0 pass, H=2/eps=0 pass, H=2/eps=1 fails with "
               f"margin {c.min_eigenvalue:.1f} = -4H^2")


def test_criterion_10_negative_controls(test_rings):
    # dented boundary: convexity validation rejects it with a quantified dip
    dented = ConvexCurve(kind="fourier", r0=1.0, cos_coeffs=(0.0, 0.0, 0.3))
    kappa_min = float(np.min(dented.chart_curvature(
        np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False))))
    with pytest.raises(ConvexityError):
        make_curve("fourier", r0=1.0, cos_coeffs=(0.0, 0.0, 0.3))

    # saddle-bearing synthetic field: convexity/rank check must fail
    grid = build_grid(test_rings["circles-eps0"], 33, 64)
    ss, tt = np.meshgrid(grid.s, grid.theta, indexing="ij")
    saddle = ScalarField(grid, ss + 0.08 * np.sin(5.0 * tt) * np.sin(np.pi * ss),
                         boundary_values=(0.0, 1.0))
    saddle_report = check_convexity_and_rank(saddle)

    # constant curvature source on the curved space violates the structure bound
    curved = SpaceFormChart(epsilon=1.0, dim=2)
    const_h = structure_condition_check(
        lambda x: (2.0, np.zeros(2), np.zeros((2, 2))), curved,
        np.array([[0.3, 0.0], [0.0, 0.4]]))

    ok = (kappa_min < 0.0
          and not saddle_report.passed and saddle_report.margin < 0.0
          and not const_h.passed and const_h.min_eigenvalue < 0.0)
    _criterion(10, ok, f"dented boundary kappa_min {kappa_min:.2f}, saddle field "
                       f"margin {saddle_report.margin:.2f}, constant-H margin "
                       f"{const_h.min_eigenvalue:.1f}: all fail with nonzero margin")


def test_criterion_11_verify_reports_are_deterministic(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "chart": {"epsilon": 0.0, "dim": 2},
        "ring": {"outer": {"kind": "circle", "radius": 2.0},
                 "inner": {"kind": "circle", "radius": 1.0}},
        "grid": {"ns": 17, "ntheta": 48},
        "checks": ["gradient-max-principle", "tau-estimates"],
    }, indent=1))
    texts = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        texts.append((out / "verification.json").read_text())
    docs = [json.loads(t) for t in texts]
    stamps = [doc.pop("timestamp") for doc in docs]
    identical = (docs[0] == docs[1]
                 and json.dumps(docs[0], indent=1) == json.dumps(docs[1], indent=1)
                 and all("written_at" in s and "runtime_s" in s for s in stamps))
    _criterion(11, identical,
               "two cmd_verify runs byte-identical apart from the timestamp key")
