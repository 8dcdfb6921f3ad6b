"""Workload inputs, correctness gates and accuracy numbers.

Every workload starts from the README ring: ellipses with semi-axes (3, 2)
outside and (1.2, 0.8) inside, in the flat chart (epsilon = 0).  Seed 0 is
exactly that ring.  Other seeds change it the way user configs differ from
the README one: each semi-axis by up to 3% and the inner centre by up to 0.05
in each coordinate.  The perturbation was fixed before any result was seen.

Library workloads run inside ``worker.py``; the CLI workload is driven by
``run.py``.  Gates return a list of failure messages (empty when the
operation's output is correct).
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

WORKLOADS = ("solve-fine", "geometry-fine", "cli-readme")
LIBRARY = ("solve-fine", "geometry-fine")

# (ns, ntheta) per workload; "tiny" is the self-test size
GRIDS = {
    "full": {"solve-fine": (257, 512), "geometry-fine": (257, 512),
             "cli-readme": (65, 128)},
    # geometry-fine stays at 129x256: coarser grids hit the rank-threshold
    # defect (ROADMAP item 3) and fail the gates
    "tiny": {"solve-fine": (17, 32), "geometry-fine": (129, 256),
             "cli-readme": (17, 32)},
}
ORACLE_SIZES = {"full": (64, 128, 256), "tiny": (16, 32)}
ORACLE_BUDGET = 5e-4   # solver-vs-oracle error budget at the 256 grid (the suite's)
ORDER_FLOOR = 1.8      # observed convergence order the suite requires
TAU = 1.0              # boundary height of the library workloads
LEVEL_FRACTIONS = [k / 9.0 for k in range(1, 9)]  # the levels check_convexity_and_rank extracts

README_RING = {
    "outer": {"kind": "ellipse", "radii": [3.0, 2.0]},
    "inner": {"kind": "ellipse", "radii": [1.2, 0.8]},
}


def ring_spec(seed: int) -> dict:
    """The ring of one seed, as the ``ring`` section of a CLI config."""
    spec = copy.deepcopy(README_RING)
    if seed == 0:
        return spec
    rng = random.Random(seed)
    for curve in ("outer", "inner"):
        spec[curve]["radii"] = [round(r * (1.0 + rng.uniform(-0.03, 0.03)), 6)
                                for r in spec[curve]["radii"]]
    spec["inner"]["center"] = [round(rng.uniform(-0.05, 0.05), 6) for _ in range(2)]
    return spec


def cli_config(workload: str, seed: int, size: str) -> dict:
    """The README config with this seed's ring."""
    ns, ntheta = GRIDS[size][workload]
    return {
        "chart": {"epsilon": 0.0, "dim": 2},
        "ring": ring_spec(seed),
        "grid": {"ns": ns, "ntheta": ntheta},
        "tau": [0.5, 1.0],
        "levels": [0.25, 0.5, 0.75],
        "oracle": {"r_inner": 1.0, "r_outer": 2.0, "tau": 0.3, "samples": 33},
    }


def build_ring(seed: int):
    """The seed's ring through the library API (what a config load builds)."""
    from convexring import SpaceFormChart, make_curve, make_ring

    spec = ring_spec(seed)

    def curve(entry):
        params = {k: tuple(v) for k, v in entry.items() if k != "kind"}
        return make_curve(entry["kind"], **params)

    return make_ring(SpaceFormChart(epsilon=0.0, dim=2),
                     curve(spec["outer"]), curve(spec["inner"]))


def oracle_error(sizes) -> dict:
    """Max nodal error against the radial oracle at each size, and the orders.

    The same computation as the suite's solver-vs-oracle check."""
    from convexring import check_solver_vs_oracle

    report = check_solver_vs_oracle(grid_sizes=sizes)
    return {"grid_sizes": report.extras["grid_sizes"],
            "max_errors": report.extras["max_errors"],
            "orders": report.extras["orders"],
            "newton_iterations": report.extras["newton_iterations"]}


# -- gates --------------------------------------------------------------------


def gate_solve(report, newton_tol: float) -> list[str]:
    failures = []
    if not report.converged:
        failures.append("Newton did not converge")
    if not report.final_residual_max <= newton_tol:
        failures.append(f"residual {report.final_residual_max:.3e} > {newton_tol:.1e}")
    return failures


def gate_geometry(kappa_mins, scan, grid) -> list[str]:
    failures = []
    if not (scan.constant_rank and scan.min_rank == 1):
        failures.append(f"rank {scan.min_rank}..{scan.max_rank}, expected constant 1")
    if not min(kappa_mins) > 0.0:
        failures.append(f"kappa_min {min(kappa_mins):.6g} is not positive")
    expected = (grid.ns - 2) * grid.ntheta
    if scan.samples != expected:
        failures.append(f"rank scan saw {scan.samples} samples, expected {expected}")
    return failures


def gate_oracle(oracle: dict, size: str) -> list[str]:
    """The radial-oracle comparison run after the timed loop: error budget
    at the finest grid (benchmark size only) and observed orders."""
    failures = []
    if size == "full" and not oracle["max_errors"][-1] <= ORACLE_BUDGET:
        failures.append(f"oracle error {oracle['max_errors'][-1]:.3e} > {ORACLE_BUDGET}")
    if not all(o >= ORDER_FLOOR for o in oracle["orders"]):
        failures.append(f"oracle orders {oracle['orders']} below {ORDER_FLOOR}")
    return failures


def gate_cli(codes, out_dir: Path, cfg: dict) -> tuple[list[str], dict]:
    """solve then levels: exit codes, snapshot round trip, every CSV and the SVG."""
    from convexring import field_to_dict, load_field

    failures = [f"{cmd} exit code {code}" for cmd, code in codes.items() if code != 0]
    accuracy = {}
    trace_path = out_dir / "trace.json"
    if not trace_path.is_file():
        return failures + ["trace.json missing"], accuracy
    trace = json.loads(trace_path.read_text())
    accuracy["newton_iterations"] = [s["newton_iterations"] for s in trace["steps"]]
    accuracy["min_level_curvature"] = [s["min_level_curvature"] for s in trace["steps"]]
    for step in trace["steps"]:
        path = out_dir / step["snapshot"]
        if not path.is_file():
            failures.append(f"{step['snapshot']} missing")
            continue
        text = path.read_text()
        if json.dumps(field_to_dict(load_field(str(path))), indent=1) != text:
            failures.append(f"{step['snapshot']} does not round-trip bit-exactly")
    ntheta = cfg["grid"]["ntheta"]
    kappas = {}
    for level in cfg["levels"]:
        path = out_dir / f"level_{level:.6g}.csv"
        rows = path.read_text().splitlines() if path.is_file() else []
        if len(rows) != ntheta + 2 or rows[0] != "x,y,kappa":
            failures.append(f"{path.name} missing or not {ntheta + 1} points")
            continue
        kappas[f"{level:.6g}"] = min(float(r.rsplit(",", 1)[1]) for r in rows[1:])
    accuracy["level_kappa_min"] = kappas
    svg = out_dir / "levels.svg"
    if not (svg.is_file() and svg.read_text().rstrip().endswith("</svg>")):
        failures.append("levels.svg missing or truncated")
    return failures, accuracy
