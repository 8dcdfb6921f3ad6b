"""Command-line front end: config parsing, run orchestration, and exports.

One JSON config document drives every command.  Exit codes are scriptable,
each failure printing one line on stderr: 0 success, 1 config problem,
command-line usage error or unreadable snapshot (naming the line of the
offending key, if any), 2 solver
or continuation failure, level diagnostics included (partial outputs are
kept), 3 verification failure or check error.  ``verify`` makes one ``run_suite``
call, the library's driver, so its checks share their solves and each
runtime includes the solves its check triggered.  Reports are byte-identical
across reruns except for the single top-level "timestamp" key, which holds
every volatile quantity (wall-clock times, write date).

Config keys by command:

    solve    chart, ring, grid, tau (continuation targets), solve (options)
    levels   levels (values to extract; snapshot comes from --snapshot)
    verify   chart, ring, grid, checks (default: all), verify (tau,
             oracle_grid_sizes)
    oracle   oracle (r_inner, r_outer, tau, n, samples)

Every section (chart, ring, grid, solve, verify, oracle) takes only its own
keys, listed with their defaults in _SECTIONS (solve: the fields of
SolveOptions); an unknown key or a bad value is a config error at that
key's line.  Curve specs are {"kind": circle|ellipse|fourier,
...parameters} as accepted by make_curve.  ``levels`` checks every level
against the snapshot's boundary values before it extracts any, so a level
out of range is a config error even when another level would fail.

Each command imports only the modules it runs: ``levels`` never imports
scipy, and ``oracle`` no sparse solver.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import re
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from .field import _atomic_write_text, load_field, save_field
from .levelgeom import (
    LevelSetReport,
    SingularGradientError,
    TopologyError,
    _check_level,
    extract_level,
)
from .ring import AnnularGrid, ConvexRing, build_grid, curve_from_dict, make_ring
from .spaceform import SpaceFormChart, _whole

# solve, verify and oracle (and with them scipy) are imported by the commands that run them
if TYPE_CHECKING:
    from .solve import SolveOptions


class ConfigError(ValueError):
    """Invalid configuration; the message names the line when locatable."""


# each config section's keys and their defaults; "solve" takes the fields of
# SolveOptions, whose module is imported only by the commands that solve
_SECTIONS: dict[str, dict[str, Any]] = {
    "chart": {"epsilon": 0.0, "dim": 2},
    "ring": {"outer": None, "inner": None},
    "grid": {"ns": 33, "ntheta": 64},
    "verify": {"tau": 0.5, "oracle_grid_sizes": (64, 128, 256)},
    "oracle": {"r_inner": 1.0, "r_outer": 2.0, "tau": 0.3, "n": 2, "samples": 33},
}


# -- config loading ------------------------------------------------------------


# a JSON string, with the colon that makes it a key, or a bracket
_JSON_TOKEN = re.compile(r'("(?:[^"\\]|\\.)*")(\s*:)?|[{}\[\]]')


def _line_of_key(raw: str, path: str) -> int | None:
    """Line of the key at the dotted ``path`` from the top-level object
    ("tau", "verify.tau", "ring.outer"), or None when the config lacks it: a
    "tau" inside "verify" or "oracle" is not the top-level one.  A path is a
    key or a section and its key, and only that key may hold a dot."""
    *sections, target = path.split(".", 1)
    enclosing, key = [], None
    for token in _JSON_TOKEN.finditer(raw):
        if token.group(2):
            key = json.loads(token.group(1))  # escapes decoded, as in cfg
            if key == target and enclosing[1:] == sections:
                return raw.count("\n", 0, token.start()) + 1
        elif token.group() in ("{", "["):
            enclosing.append(key)  # the key whose value opens here
            key = None
        elif token.group() in ("}", "]"):
            enclosing.pop()
            key = None
    return None


def _fail(raw: str, path: str, message: str) -> None:
    line = _line_of_key(raw, path)
    where = f"line {line}: " if line is not None else ""
    raise ConfigError(f"config {where}{message}")


@contextmanager
def _errors_at(raw: str, path: str, errors=(ValueError, TypeError), named=()):
    """Report the listed exceptions as a config error at the key ``path``, or
    at the key of that section in named that opens the message, bare or after
    the section's name ("verify tau ..."): the library names the value it
    rejects first."""
    try:
        yield
    except errors as exc:
        message, section = str(exc), path.rsplit(".", 1)[-1]
        key = next((k for k in named if message.startswith((f"{k} ", f"{section} {k} "))), None)
        _fail(raw, path if key is None else f"{path}.{key}", message)


def _section(cfg: dict, raw: str, name: str, defaults: dict[str, Any] | None = None,
             required: bool = True) -> dict:
    """The object at the top-level key ``name`` laid over its ``defaults``
    (those of _SECTIONS by default), or the defaults alone if it is absent and
    not ``required``; a key without a default fails at its own line."""
    defaults = _SECTIONS[name] if defaults is None else defaults
    section = cfg.get(name, None if required else {})
    if not isinstance(section, dict):
        _fail(raw, name, f'missing or invalid "{name}" section' if required
              else f'"{name}" must be an options object')
    for key in section:
        if key not in defaults:
            _fail(raw, f"{name}.{key}",
                  f"unknown {name} key {key!r}; the keys are {', '.join(defaults)}")
    return {**defaults, **section}


def load_config(path: str) -> tuple[dict, str]:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg, raw


def _build_chart(cfg: dict, raw: str) -> SpaceFormChart:
    section = _section(cfg, raw, "chart")
    with _errors_at(raw, "chart", named=section):
        return SpaceFormChart(**section)


def _build_ring(cfg: dict, raw: str, chart: SpaceFormChart) -> ConvexRing:
    curves = {}
    for key, spec in _section(cfg, raw, "ring").items():
        with _errors_at(raw, f"ring.{key}"):
            curves[key] = curve_from_dict(spec)
    # make_ring first rejects a chart of any dimension but 2: the "dim" key's fault
    with _errors_at(raw, "ring" if chart.dim == 2 else "chart.dim"):
        return make_ring(chart, **curves)


def _build_grid(cfg: dict, raw: str, ring: ConvexRing) -> AnnularGrid:
    section = _section(cfg, raw, "grid")
    with _errors_at(raw, "grid", named=section):
        return build_grid(ring, **section)


def _solve_options(cfg: dict, raw: str) -> SolveOptions:
    from .solve import SolveOptions, SolverError

    defaults = {f.name: f.default for f in dataclasses.fields(SolveOptions)}
    section = _section(cfg, raw, "solve", defaults, required=False)
    with _errors_at(raw, "solve", SolverError, named=section):
        return SolveOptions(**section)


def _tau_targets(cfg: dict, raw: str) -> list[float]:
    from .solve import continuation_targets

    targets = cfg.get("tau")
    if not isinstance(targets, list) or not targets:
        _fail(raw, "tau", '"tau" must be a non-empty list of continuation targets')
    with _errors_at(raw, "tau"):
        return continuation_targets(targets)


# -- serialization helpers -----------------------------------------------------


def _write_json(path: Path, obj: Any) -> None:
    # numpy arrays and the numpy scalars that are no Python number become lists
    # and numbers; np.float64 is a float and prints its shortest digits as is
    text = json.dumps(obj, indent=1, default=lambda o: o.tolist())
    _atomic_write_text(str(path), text + "\n")


def _file_number(x: float) -> str:
    """x in a file name and on its output line: its shortest round-trip
    digits as repr writes them, 1 for 1.0 and 1e-300 for 1e-300, so distinct
    values never share a file and no name outgrows the file system's limit."""
    return repr(float(x)).removesuffix(".0")


def _timestamp(runtimes: dict[str, float]) -> dict[str, Any]:
    now = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return {"written_at": now, "runtime_s": runtimes}


# -- commands ------------------------------------------------------------------


def cmd_solve(cfg: dict, raw: str, out_dir: Path) -> int:
    from .solve import ContinuationError, continuation_solve

    chart = _build_chart(cfg, raw)
    ring = _build_ring(cfg, raw, chart)
    grid = _build_grid(cfg, raw, ring)
    targets = _tau_targets(cfg, raw)
    options = _solve_options(cfg, raw)

    failure = None
    try:
        trace = continuation_solve(grid, targets, options=options)
    except ContinuationError as exc:
        trace = exc.trace
        failure = str(exc)

    steps, runtimes = [], {}
    for record in trace.steps:
        snapshot = f"field_tau_{_file_number(record.tau)}.json"
        save_field(record.field, str(out_dir / snapshot))
        runtimes[snapshot] = record.report.wall_time
        steps.append({
            "tau": record.tau,
            "snapshot": snapshot,
            "converged": record.report.converged,
            "newton_iterations": record.report.newton_iterations,
            "factorizations": record.report.factorizations,
            "lu_fill": record.report.lu_fill,
            "final_residual_max": record.report.final_residual_max,
            "min_interior_gradient": record.report.min_gradient_norm,
            "min_level_curvature": record.min_level_curvature,
            "outer_boundary_min_gradient": record.outer_boundary_min_gradient,
        })
        print(f"tau={_file_number(record.tau)}  newton={record.report.newton_iterations}  "
              f"max residual={record.report.final_residual_max:.3e}  "
              f"min |grad u|={record.report.min_gradient_norm:.6g}  "
              f"min level curvature={record.min_level_curvature:.6g}")

    payload = {
        "timestamp": _timestamp(runtimes),
        "completed": failure is None,
        "tau_schedule": trace.tau_schedule,
        "steps": steps,
    }
    if failure is not None:
        payload["failure"] = failure
    _write_json(out_dir / "trace.json", payload)
    if failure is not None:
        print(f"continuation failed: {failure}", file=sys.stderr)
        return 2
    return 0


def _svg_color(kappa: float) -> str:
    return "#2ca02c" if kappa >= 0.0 else "#d62728"


def _svg_path(points: np.ndarray, closed: bool) -> str:
    cmds = [f"{'M' if i == 0 else 'L'} {p[0]:.6g} {-p[1]:.6g}" for i, p in enumerate(points)]
    if closed:
        cmds.append("Z")
    return " ".join(cmds)


def _level_svg(ring: ConvexRing, reports: list[LevelSetReport]) -> str:
    thetas = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    outer = ring.outer.point(thetas)
    inner = ring.inner.point(thetas)
    all_pts = np.vstack([outer, inner] + [r.points for r in reports])
    x0, y0 = all_pts.min(axis=0) - 0.1
    x1, y1 = all_pts.max(axis=0) + 0.1
    width, height = x1 - x0, y1 - y0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0:.6g} {-y1:.6g} {width:.6g} {height:.6g}" '
        f'width="640" height="{640 * height / width:.6g}">',
        f'<path d="{_svg_path(outer, True)}" fill="none" stroke="#000000" stroke-width="{0.008 * width:.6g}"/>',
        f'<path d="{_svg_path(inner, True)}" fill="none" stroke="#000000" stroke-width="{0.008 * width:.6g}"/>',
    ]
    for report in reports:
        pts, kappas = report.points, report.kappa
        # contiguous runs of one curvature sign become one colored subpath
        start = 0
        for i in range(1, len(pts) + 1):
            at_end = i == len(pts)
            if not at_end and (kappas[i] >= 0.0) == (kappas[start] >= 0.0):
                continue
            segment = pts[start:min(i + 1, len(pts))]
            parts.append(
                f'<path d="{_svg_path(segment, False)}" fill="none" '
                f'stroke="{_svg_color(float(kappas[start]))}" '
                f'stroke-width="{0.005 * width:.6g}"/>')
            start = i
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_levels(cfg: dict, raw: str, snapshot: str, out_dir: Path) -> int:
    try:
        f = load_field(snapshot)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read snapshot {snapshot}: {exc}") from exc

    levels = cfg.get("levels")
    if not isinstance(levels, list) or not levels:
        _fail(raw, "levels", '"levels" must be a non-empty list')
    with _errors_at(raw, "levels"):  # LevelRangeError is a ValueError
        values = [_check_level(f, c) for c in levels]

    reports = []
    for c in values:
        try:
            reports.append(extract_level(f, c))
        except (TopologyError, SingularGradientError) as exc:
            print(f"level {_file_number(c)}: {exc}", file=sys.stderr)
            return 3

    for report in reports:
        rows = ["x,y,kappa"]
        rows += [f"{p[0]:.17g},{p[1]:.17g},{k:.17g}"
                 for p, k in zip(report.points, report.kappa)]
        _atomic_write_text(str(out_dir / f"level_{_file_number(report.level)}.csv"),
                           "\n".join(rows) + "\n")
        print(f"level {_file_number(report.level)}: min kappa = {report.kappa_min:.6g}, "
              f"min |grad u| = {report.grad_min:.6g}")

    _atomic_write_text(str(out_dir / "levels.svg"), _level_svg(f.grid.ring, reports))
    print(f"overall min kappa = {min(r.kappa_min for r in reports):.6g}")
    return 0


def cmd_verify(cfg: dict, raw: str, out_dir: Path) -> int:
    from .verify import VerificationReport, run_suite, suite_inputs

    chart = _build_chart(cfg, raw)
    grid = _build_grid(cfg, raw, _build_ring(cfg, raw, chart))
    selected = cfg.get("checks")
    if selected is not None and not isinstance(selected, list):
        _fail(raw, "checks", '"checks" must be a list of check names')
    section = _section(cfg, raw, "verify", required=False)
    with _errors_at(raw, "verify", named=section):
        tau, oracle_sizes = suite_inputs(**section)
    options = _solve_options(cfg, raw)

    with _errors_at(raw, "checks", ValueError):  # unknown or repeated names, before any check runs
        reports = run_suite(grid, tau=tau, checks=selected,
                            oracle_grid_sizes=oracle_sizes, options=options)
    if not reports:
        print("warning: empty check list, nothing verified", file=sys.stderr)

    # an entry is its report without the volatile runtime_s and the error field
    fields = [f.name for f in dataclasses.fields(VerificationReport)
              if f.name not in ("runtime_s", "error")]
    entries = []
    for report in reports:
        if report.error is not None:
            entries.append({"name": report.name, "error": report.error})
            print(f"{report.name:<28} ERROR  {report.error}")
            continue
        entries.append({name: getattr(report, name) for name in fields})
        status = "pass" if report.passed else "FAIL"
        print(f"{report.name:<28} {status}   margin={report.margin:+.6g}  "
              f"tolerance={report.tolerance:.6g}")

    runtimes = {r.name: r.runtime_s for r in reports}
    _write_json(out_dir / "verification.json",
                {"timestamp": _timestamp(runtimes), "reports": entries})
    return 0 if all(r.passed for r in reports) else 3


def cmd_oracle(cfg: dict, raw: str, out_dir: Path) -> int:
    from .oracle import radial_oracle

    section = _section(cfg, raw, "oracle")
    samples = section.pop("samples")
    # OracleInfeasibleError is a ValueError
    with _errors_at(raw, "oracle", named=_SECTIONS["oracle"]):
        oracle = radial_oracle(**section)
        samples = _whole(samples, "samples")
        if samples < 0:
            raise ValueError(f"samples must be >= 0, got {samples}")
        radii = np.linspace(oracle.r_inner, oracle.r_outer, samples)
    rows = ["r,u,du"] + [f"{r:.17g},{u:.17g},{du:.17g}"
                         for r, u, du in zip(radii, oracle.u(radii), oracle.du(radii))]
    print(f"flux constant c = {oracle.c:.12g}")
    print("\n".join(rows))
    _atomic_write_text(str(out_dir / "oracle.csv"), "\n".join(rows) + "\n")
    return 0


# -- entry point ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse held to the exit-code contract: a usage error (unknown flag
    or command, missing option) is a ConfigError, one ``error: ...`` line
    and exit code 1, where argparse prints its usage and exits 2.
    Subparsers are built from this class too."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="convexring",
        description="minimal graphs over convex rings: solve, inspect levels, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "run the tau-continuation and write field snapshots"),
        ("levels", "extract level curves from a snapshot to CSV and SVG"),
        ("verify", "run verification checks and write a JSON report"),
        ("oracle", "dump the radial oracle table"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory (default: config 'out' or '.')")
        if name == "levels":
            p.add_argument("--snapshot", required=True, help="field snapshot to read")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg, raw = load_config(args.config)
        out_dir = Path(args.out or cfg.get("out") or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "solve":
            return cmd_solve(cfg, raw, out_dir)
        if args.command == "levels":
            return cmd_levels(cfg, raw, args.snapshot, out_dir)
        if args.command == "verify":
            return cmd_verify(cfg, raw, out_dir)
        return cmd_oracle(cfg, raw, out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # SolverError and ContinuationError; solve is imported only if it ran
        solve = sys.modules.get("convexring.solve")
        if solve is None or not isinstance(exc, (solve.SolverError, solve.ContinuationError)):
            raise
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
