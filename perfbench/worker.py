"""Fresh-interpreter worker for the benchmark.

    worker.py setup  --workload W --seed S --size full|tiny
        time import convexring + ring + grid + inputs; print {"setup_s": t}
    worker.py ref-import
        time the third-party imports convexring needs; print {"ref_import_s": t}
        (the reference that set-up times are normalised by)
    worker.py run    --workload W --seed S --size full|tiny --seconds N --trace 0|1
        set up, then run the library workload's operations in a closed loop
        for N seconds; print one JSON object with operation times, gate
        failures, accuracy numbers, peak RSS and (traced) spans

The last line of stdout is the JSON result.  The convexring under test is the
one in ``src/`` of the checkout this file sits in, never an installed one.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(Path(__file__).resolve().parent))


# what a fresh interpreter imports before it can run convexring: the
# reference that set-up times are normalised by (see run.py)
REFERENCE_IMPORTS = ("numpy", "scipy.sparse", "scipy.sparse.linalg", "scipy.integrate")


def _import_convexring():
    import convexring

    if Path(convexring.__file__).resolve().parent != SRC / "convexring":
        raise SystemExit(f"imported convexring from {convexring.__file__}, not {SRC}")
    return convexring


def setup_inputs(cr, workload: str, seed: int, size: str):
    """Ring, grid and the workload's inputs, as the timed set-up builds them."""
    import numpy as np

    from workloads import GRIDS, TAU, build_ring

    ring = build_ring(seed)
    grid = cr.build_grid(ring, *GRIDS[size][workload])
    values = None
    if workload == "geometry-fine":
        # u = tau * s: every level set is a blend of the two boundary
        # ellipses, hence itself an ellipse, so strictly convex with rank 1
        values = np.repeat((TAU * grid.s)[:, None], grid.ntheta, axis=1)
        values[0], values[-1] = 0.0, TAU
    return ring, grid, values


def _solve_op(cr, grid, values):
    from workloads import TAU, gate_solve

    options = cr.SolveOptions()
    _, report = cr.solve_minimal_graph(grid, TAU, options=options)
    accuracy = {"newton_iterations": report.newton_iterations,
                "final_residual_max": report.final_residual_max,
                "min_gradient_norm": report.min_gradient_norm}
    return gate_solve(report, options.newton_tol), accuracy


def _geometry_op(cr, grid, values):
    from workloads import LEVEL_FRACTIONS, TAU, gate_geometry

    f = cr.ScalarField(grid=grid, values=values.copy(), boundary_values=(0.0, TAU))
    kappa_mins = [cr.extract_level(f, TAU * k).kappa_min for k in LEVEL_FRACTIONS]
    scan = cr.rank_scan(f)
    accuracy = {"kappa_min": min(kappa_mins), "lambda_min": scan.lambda_min,
                "rank_min": scan.min_rank, "rank_max": scan.max_rank,
                "rank_threshold": scan.threshold, "samples": scan.samples}
    return gate_geometry(kappa_mins, scan, grid), accuracy


OPERATIONS = {"solve-fine": _solve_op, "geometry-fine": _geometry_op}


def cmd_setup(args) -> dict:
    cr = _import_convexring()
    setup_inputs(cr, args.workload, args.seed, args.size)
    return {"setup_s": time.perf_counter() - T_START}


def cmd_ref_import(args) -> dict:
    import importlib

    for name in REFERENCE_IMPORTS:
        importlib.import_module(name)
    return {"ref_import_s": time.perf_counter() - T_START}


def cmd_run(args) -> dict:
    from tracing import Tracer, install
    from workloads import ORACLE_SIZES, oracle_error

    cr = _import_convexring()
    _, grid, values = setup_inputs(cr, args.workload, args.seed, args.size)
    operation = OPERATIONS[args.workload]

    ops, spans = [], []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        uninstall = tracer = None
        if traced:
            tracer = Tracer()
            uninstall = install(tracer)
        t0 = time.perf_counter()
        try:
            failures, accuracy = operation(cr, grid, values)
        except Exception as exc:  # a crashed operation is a failed one
            traceback.print_exc()
            failures, accuracy = [f"{type(exc).__name__}: {exc}"], {}
        elapsed = time.perf_counter() - t0
        if uninstall is not None:
            uninstall()
            spans.append(tracer.spans)
        ops.append({"wall_s": elapsed, "traced": traced,
                    "failures": failures, "accuracy": accuracy})
        if len(ops) == 1:
            # set-up plus one operation: later operations can raise the peak
            # only because freed memory is not reused, and their number
            # depends on host speed
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        enough = len(ops) >= (2 if args.trace else 1)
        if enough and time.perf_counter() - start >= args.seconds:
            break

    return {
        "ops": ops,
        "spans": spans,
        "oracle": oracle_error(ORACLE_SIZES[args.size]),
        "peak_rss_mb": peak_rss_mb,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "ref-import", "run"))
    parser.add_argument("--workload", default="solve-fine")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    handler = {"setup": cmd_setup, "ref-import": cmd_ref_import, "run": cmd_run}[args.mode]
    print(json.dumps(handler(args)))


if __name__ == "__main__":
    main()
