"""Spread of every end-to-end metric over two interleaved sets of runs.

    python3 perfbench/steadiness.py --seeds 1-10 [--out FILE.json]

Runs ``run.py --trace 0`` for BENCHMARK.json's ``run_seconds`` once per
(set, seed, workload): two sets of the given seeds, each cycling through all
of BENCHMARK.json's workloads inside each seed, so that host drift hits every
workload alike.
For each workload, set and metric it prints the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json, then the shift of set
2's median against set 1's.  Two diagnostics are summarised the same way:
``raw.setup_s``, the set-up time before normalisation, and ``norm.run_s``,
the operation time normalised by the run's reference imports as ``setup_s``
is, for comparison with the raw ``run_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import IMPORT_NOMINAL_S  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def one_run(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["raw.setup_s"] = statistics.median(report["setup"]["setup_raw_s"])
    values["norm.run_s"] = (values["run_s"] * IMPORT_NOMINAL_S
                            / statistics.median(report["setup"]["ref_import_s"]))
    return {"workload": workload, "seed": seed, "wall_s": wall,
            "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"], "values": values, "setup": report["setup"]}


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def summarise(runs: list[dict], bounds: dict) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        sets = (1, 2)
        per_set = {}
        for s in sets:
            rows = [r for r in runs if r["workload"] == workload and r["set"] == s]
            names = rows[0]["values"].keys()
            per_set[s] = {n: spread([r["values"][n] for r in rows]) for n in names}
            per_set[s]["failed_runs"] = sum(1 for r in rows if r["failed"])
        summary[workload] = per_set
        print(f"\n{workload}")
        for name in (n for n in per_set[sets[0]] if n != "failed_runs"):
            bound = bounds.get(name)
            cells = []
            for s in sets:
                st = per_set[s][name]
                cells.append(f"set {s}: median {st['median']:.5g} spread {st['spread']:.3f}")
            first, second = (per_set[s][name]["median"] for s in sets)
            shift = f"  shift {(second - first) / first if first else 0.0:+.3f}"
            limit = f" (bound {bound})" if bound is not None else " (diagnostic)"
            print(f"  {name:<14}{limit:<18} " + "; ".join(cells) + shift)
        print("  failed runs per set: "
              + ", ".join(str(per_set[s]["failed_runs"]) for s in sets))
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None, help="write every run and the summary here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for s in (1, 2):
        for seed in parse_seeds(args.seeds):
            for workload in workloads:
                run = one_run(workload, seed, seconds)
                run["set"] = s
                runs.append(run)
                print(f"set {s} seed {seed} {workload}: {run['wall_s']:.1f} s, "
                      f"failed {run['failed']}/{run['attempted']}, "
                      + ", ".join(f"{k}={v:.5g}" for k, v in run["values"].items()),
                      flush=True)
    summary = summarise(runs, bounds)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary},
                                             indent=1) + "\n")


if __name__ == "__main__":
    main()
