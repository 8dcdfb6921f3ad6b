"""Benchmark for convexring: one run of one workload, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is ``src/convexring``
of that checkout.  Workloads (closed loop, one client, one process at a time):

    solve-fine     library solve_minimal_graph at 257x512, tau = 1
    geometry-fine  8 x extract_level + rank_scan on a sampled 257x512 field
    cli-readme     CLI ``solve`` then ``levels`` on the README config

``--trace 0`` prints the end-to-end metrics (run_s, setup_s, peak_rss_mb,
oracle_err); ``--trace 1`` alternates untraced and traced operations and
prints the per-layer metrics of ``tracing.PER_LAYER``.  Human-readable lines
and a full JSON report come first; the last line of stdout is the result
object.  ``--tiny`` shrinks every grid for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from tracing import PER_LAYER, layer_metrics, top_shares  # noqa: E402
from workloads import (  # noqa: E402
    LIBRARY, ORACLE_SIZES, WORKLOADS, cli_config, gate_cli, gate_oracle, oracle_error,
)

SETUP_SAMPLES = 3        # fresh-interpreter set-ups, and reference imports, per run
# The host is a shared VM whose speed drifts by tens of percent over minutes,
# with CPU time tracking wall time.  Each set-up is therefore paired with a
# fresh interpreter doing only the third-party imports, and setup_s is the
# ratio of their medians times the reference's typical time on a 2-core Xeon
# VM at 2.1 GHz: seconds at that host speed.
IMPORT_NOMINAL_S = 0.70
# run_s is not normalised: in the committed steadiness sets, dividing the
# operation times by the same reference narrowed their spread or their shift
# between sets on some workloads and widened them on others
# (perfbench/README.md, "Steadiness").
CHILD_TIMEOUT_S = 160.0  # no single child may outlive the 180 s run limit
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("oracle_err", "abs"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one BLAS thread: two runs on a shared 2-core host measure the program,
    # not the scheduling of an idle thread pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_timed(cmd, stdout_path: Path) -> tuple[int, float, float]:
    """Run a child to completion: (exit code, wall seconds, peak RSS in MB)."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def worker(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int, size: str) -> dict:
    """Fresh-interpreter set-up times, each paired with the reference import."""
    base = ("--workload", workload, "--seed", str(seed), "--size", size)
    setup, ref = [], []
    for _ in range(SETUP_SAMPLES):
        ref.append(worker("ref-import")["ref_import_s"])
        setup.append(worker("setup", *base)["setup_s"])
    return {"setup_raw_s": setup, "ref_import_s": ref,
            "setup_s": statistics.median(setup) / statistics.median(ref) * IMPORT_NOMINAL_S}


def run_library(args, size: str) -> dict:
    result = worker("run", "--workload", args.workload, "--seed", str(args.seed),
                    "--size", size, "--seconds", str(args.seconds),
                    "--trace", str(args.trace))
    spans = [{"import_s": 0.0, "spans": s} for s in result.pop("spans")]
    result["traces"] = spans
    return result


def _cli(op_dir: Path, traced: bool, *cli_args: str):
    spans_path = op_dir / f"spans-{cli_args[0]}.json"
    if traced:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *cli_args]
    else:
        cmd = [sys.executable, "-m", "convexring.cli", *cli_args]
    code, wall, rss = run_timed(cmd, op_dir / f"stdout-{cli_args[0]}.txt")
    trace = json.loads(spans_path.read_text()) if traced and spans_path.is_file() else None
    return code, wall, rss, trace


def run_cli(args, size: str, work: Path) -> dict:
    cfg = cli_config(args.workload, args.seed, size)
    config = work / "config.json"
    config.write_text(json.dumps(cfg, indent=1) + "\n")
    ops, traces = [], []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        op_dir = work / f"op{len(ops)}"
        op_dir.mkdir()
        common = ("--config", str(config), "--out", str(op_dir))
        code_s, wall_s, rss_s, trace_s = _cli(op_dir, traced, "solve", *common)
        snapshot = op_dir / "field_tau_1.json"
        code_l, wall_l, rss_l, trace_l = _cli(op_dir, traced, "levels", *common,
                                             "--snapshot", str(snapshot))
        wall, rss, op_traces = wall_s + wall_l, max(rss_s, rss_l), [trace_s, trace_l]
        try:
            failures, accuracy = gate_cli({"solve": code_s, "levels": code_l}, op_dir, cfg)
        except (OSError, ValueError, KeyError) as exc:
            failures, accuracy = [f"outputs unreadable: {exc}"], {}
        if traced:
            traces += [t for t in op_traces if t is not None]
        ops.append({"wall_s": wall, "traced": traced, "peak_rss_mb": rss,
                    "failures": failures, "accuracy": accuracy})
        shutil.rmtree(op_dir)
        enough = len(ops) >= (2 if args.trace else 1)
        if enough and time.perf_counter() - start >= args.seconds:
            break

    untraced_rss = [op["peak_rss_mb"] for op in ops if not op["traced"]]
    return {"ops": ops, "traces": traces,
            "oracle": oracle_error(ORACLE_SIZES[size]),
            "peak_rss_mb": statistics.median(untraced_rss)}


def machine() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_openblas": blas(numpy),
            "scipy_openblas": blas(scipy), "blas_threads": 1}


def _flatten(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _flatten(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test grids instead of the benchmark's")
    args = parser.parse_args()
    if not (ROOT / "src" / "convexring" / "__init__.py").is_file():
        print(f"error: no convexring sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    size = "tiny" if args.tiny else "full"

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup = measure_setup(args.workload, args.seed, size)
        if args.workload in LIBRARY:
            result = run_library(args, size)
        else:
            result = run_cli(args, size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = result["ops"]
    untraced = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    failed = sum(1 for op in ops if op["failures"])
    oracle_failures = gate_oracle(result["oracle"], size)
    run_raw_s = statistics.median(op["wall_s"] for op in untraced)

    if args.trace:
        traced_raw_s = statistics.median(op["wall_s"] for op in traced)
        metrics = layer_metrics([t["spans"] for t in result["traces"]],
                                [t["import_s"] for t in result["traces"]], len(traced))
        metrics["trace.traced_run_s"] = traced_raw_s
        metrics["trace.untraced_run_s"] = run_raw_s
        metrics["trace.overhead_s"] = traced_raw_s - run_raw_s
        units = dict(PER_LAYER)
        shares = top_shares(metrics, traced_raw_s)
    else:
        metrics = {"run_s": run_raw_s,
                   "setup_s": setup["setup_s"],
                   "peak_rss_mb": result["peak_rss_mb"],
                   "oracle_err": result["oracle"]["max_errors"][-1]}
        units = dict(END_TO_END)
        shares = {}

    report = {
        "workload": args.workload, "seed": args.seed, "size": size,
        "seconds": args.seconds, "trace": args.trace, "machine": machine(),
        "setup": setup,
        "operations": ops,
        "oracle": result["oracle"],
        "shares_of_traced_run": shares,
    }
    for failure in [f for op in ops for f in op["failures"]] + oracle_failures:
        print(f"gate failed: {failure}")
    print(f"{args.workload} seed={args.seed}: {len(ops)} operations, {failed} failed, "
          f"median operation time {run_raw_s:.4g} s")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    print("accuracy (first operation; every operation is in the report):")
    accuracy = {**ops[0]["accuracy"], "oracle": result["oracle"]}
    for name, value in _flatten(accuracy):
        print(f"  {name:<40} {value}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in report["machine"].items()))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and not oracle_failures,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
