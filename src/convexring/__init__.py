"""Minimal graphs over convex rings in nonnegatively curved space forms.

Numerical laboratory for the Dirichlet problem of the minimal surface
equation on a ring domain between two convex boundaries, with solvers,
level-set geometry, and a verification suite for the qualitative claims
(gradient bounds, convexity of level sets, curvature-rank behavior).

``import convexring`` imports none of the modules below: each public name
imports its home module on first use (PEP 562), so code that never solves
never imports scipy.
"""

from importlib import import_module

# home module -> the public names it defines
_HOMES = {
    "field": (
        "FieldShapeError", "ScalarField", "discrete_c2_distance", "field_from_dict",
        "field_to_dict", "load_field", "sample_field", "save_field",
    ),
    "levelgeom": (
        "GRAD_FLOOR", "LevelRangeError", "LevelSetReport", "RankScan",
        "SingularGradientError", "StructureReport", "TopologyError",
        "elementary_symmetric", "extract_level", "fd_scalar_sampler", "phi_test",
        "principal_curvatures", "rank_scan", "second_fundamental_form",
        "sigma_k_level", "structure_condition_check",
    ),
    "ring": (
        "AnnularGrid", "ContainmentError", "ConvexCurve", "ConvexRing",
        "ConvexityError", "GridFoldError", "boundary_convexity_report", "build_grid",
        "containment_margin", "curve_from_dict", "geodesic_curvature", "make_curve",
        "make_ring", "ring_from_dict",
    ),
    "solve": (
        "ContinuationError", "ContinuationTrace", "SolveOptions", "SolveReport",
        "SolverError", "StepRecord", "build_supersolution", "continuation_solve",
        "minimal_graph_residual", "solve_harmonic", "solve_minimal_graph",
        "solve_prescribed_mean_curvature",
    ),
    "spaceform": (
        "ChartDomainError", "PointJet", "SpaceFormChart", "christoffel",
        "conformal_factor", "covariant_jet", "frame_components",
        "sectional_curvature_probe",
    ),
    "verify": (
        "SUITE_CHECKS", "OracleInfeasibleError", "RadialOracle", "VerificationReport",
        "check_convexity_and_rank", "check_gradient_max_principle",
        "check_gradient_monotonicity", "check_hopf_boundary_bound",
        "check_small_tau_regime", "check_solver_vs_oracle", "check_supersolution",
        "check_tau_estimates", "radial_height", "radial_oracle", "run_suite",
    ),
}
# public name -> home module
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
