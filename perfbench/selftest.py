"""Self-test of the benchmark on tiny grids.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json with ``--tiny`` in both modes and
checks the result line: exactly the keys correct/attempted/failed/metrics,
at least one operation, and every end-to-end (``--trace 0``) or per-layer
(``--trace 1``) metric of BENCHMARK.json printed by name with its unit and a
finite value.  It also checks that ``tracing.PER_LAYER`` and BENCHMARK.json
agree, and that the benchmark fails without printing a result in a directory
that holds only BENCHMARK.json and the benchmark's own files.  Exits 1 on
any failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def check_result(proc, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted {result['attempted']!r}")
    if not isinstance(result["failed"], int):
        problems.append(f"failed {result['failed']!r}")
    metrics = result["metrics"]
    if list(metrics) != list(expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        value = entry.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{name}: value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    if modes[1] != dict(PER_LAYER):
        failures.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in modes.items():
            proc = run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                       "--trace", str(trace), "--tiny")
            problems = check_result(proc, expected)
            verdict = "ok" if not problems else "FAILED"
            gates = ""
            if proc.returncode == 0:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                gates = (f"  ({result['attempted']} operations, "
                         f"{result['failed']} failed gates)")
            print(f"{workload:<14} trace={trace}: {verdict}{gates}")
            failures += [f"{workload} trace={trace}: {p}" for p in problems]

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "0",
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    printed_result = proc.stdout.strip().endswith("}")
    print(f"bare directory: exit code {proc.returncode}, "
          f"{'printed a result' if printed_result else 'no result'}")
    if proc.returncode == 0 or printed_result:
        failures.append("benchmark did not fail in a directory without the program")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest passed" if not failures else f"selftest: {len(failures)} problems")
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
