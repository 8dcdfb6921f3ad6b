"""Spans around calls into convexring, installed from outside the package.

Nothing under ``src/`` changes.  :func:`install` replaces module attributes
with timing wrappers: each public function in the table below, wherever a
convexring module holds a reference to it, ``ScalarField.jet_table``, a few
CLI helpers, and the ``scipy.sparse.linalg`` reference that ``solve.py`` calls
``splu`` through.  The returned callable puts every original back, so one process can
alternate untraced and traced operations.

Spans are kept in memory as ``[name, start, end, parent, attrs]`` lists and
turned into per-layer numbers by :func:`layer_metrics`.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name): public functions wrapped wherever they are referenced
FUNCTIONS = (
    ("solve", "solve_harmonic", "solve.harmonic"),
    ("solve", "solve_minimal_graph", "solve.newton"),
    ("solve", "continuation_solve", "solve.continuation"),
    ("levelgeom", "rank_scan", "levelgeom.rank_scan"),
    ("levelgeom", "extract_level", "levelgeom.extract_level"),
    ("field", "save_field", "field.save_field"),
    ("field", "load_field", "field.load_field"),
    ("spaceform", "frame_components", "spaceform.frame_components"),
    ("ring", "make_ring", "ring.make_ring"),
    ("ring", "build_grid", "ring.build_grid"),
)

# CLI helpers, wrapped only in the cli module's namespace
CLI_CONFIG = ("load_config", "_build_chart", "_build_ring", "_build_grid",
              "_tau_targets", "_solve_options")
CLI_WRITE = ("_write_json", "_atomic_write_text")

# per-layer metric names and units, in the order BENCHMARK.json lists them
PER_LAYER = (
    ("solve.factor_s", "s"),
    ("solve.factor_calls", "count"),
    ("solve.lu_fill_mnz", "Mnz"),
    ("solve.trisolve_s", "s"),
    ("solve.newton_other_s", "s"),
    ("solve.harmonic_s", "s"),
    ("solve.harmonic_calls", "count"),
    ("solve.newton_calls", "count"),
    ("solve.newton_iters", "count"),
    ("solve.continuation_s", "s"),
    ("solve.continuation_steps", "count"),
    ("solve.rejected_trials", "count"),
    ("levelgeom.rank_scan_s", "s"),
    ("levelgeom.rank_samples", "count"),
    ("levelgeom.rank_us_per_sample", "us"),
    ("levelgeom.extract_level_s", "s"),
    ("levelgeom.extract_level_calls", "count"),
    ("field.jet_table_s", "s"),
    ("field.jet_table_builds", "count"),
    ("field.save_field_s", "s"),
    ("field.load_field_s", "s"),
    ("field.snapshot_mb", "MB"),
    ("spaceform.frame_components_s", "s"),
    ("ring.make_ring_s", "s"),
    ("ring.build_grid_s", "s"),
    ("ring.build_grid_calls", "count"),
    ("cli.import_s", "s"),
    ("cli.config_s", "s"),
    ("cli.write_s", "s"),
    ("trace.traced_run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, on_result=None):
        index = len(self.spans)
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else -1, {}]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if on_result is not None:
            on_result(span[4], result, args, kwargs)
        return result


def _newton_attrs(attrs, result, args, kwargs):
    report = result[1]
    attrs["converged"] = bool(report.converged)
    attrs["iterations"] = int(report.newton_iterations)


def _continuation_attrs(attrs, result, args, kwargs):
    attrs["steps"] = len(result.steps)


def _rank_attrs(attrs, result, args, kwargs):
    attrs["samples"] = int(result.samples)


def _save_attrs(attrs, result, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    attrs["bytes"] = os.path.getsize(path)


def _factor_attrs(attrs, result, args, kwargs):
    attrs["nnz"] = int(result.nnz)


class _TracedLU:
    """Stands in for scipy's SuperLU so triangular solves get their own span."""

    def __init__(self, tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, *args, **kwargs):
        return self._tracer.call("solve.trisolve", self._lu.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _TracedLinalg:
    """Stands in for the ``scipy.sparse.linalg`` module inside ``solve.py``."""

    def __init__(self, tracer, module):
        self._tracer = tracer
        self._module = module

    def splu(self, *args, **kwargs):
        lu = self._tracer.call("solve.factor", self._module.splu, args, kwargs,
                               _factor_attrs)
        return _TracedLU(self._tracer, lu)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _wrapper(tracer, fn, name, on_result=None):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, on_result)

    return traced


def install(tracer: Tracer):
    """Wrap the traced calls; returns a function that removes every wrapper."""
    import convexring.cli  # noqa: F401  (the CLI holds references too)
    from convexring import field, solve

    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "convexring" or key.startswith("convexring."))]
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    hooks = {"solve.newton": _newton_attrs, "solve.continuation": _continuation_attrs,
             "levelgeom.rank_scan": _rank_attrs, "field.save_field": _save_attrs}
    for module_name, attr, span in FUNCTIONS:
        original = getattr(sys.modules[f"convexring.{module_name}"], attr)
        wrapped = _wrapper(tracer, original, span, hooks.get(span))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    patch(module, key, wrapped)

    cli = sys.modules["convexring.cli"]
    for attr in CLI_CONFIG:
        patch(cli, attr, _wrapper(tracer, getattr(cli, attr), "cli.config"))
    for attr in CLI_WRITE:
        patch(cli, attr, _wrapper(tracer, getattr(cli, attr), "cli.write"))

    jet_table = field.ScalarField.jet_table

    def traced_jet_table(self):
        if self._jets is not None:  # cached: no work, no span
            return jet_table(self)
        return tracer.call("field.jet_table", jet_table, (self,), {})

    patch(field.ScalarField, "jet_table", traced_jet_table)
    patch(solve, "spla", _TracedLinalg(tracer, solve.spla))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# -- per-layer numbers ------------------------------------------------------------


def _has_ancestor(spans, span, prefixes):
    parent = span[3]
    while parent >= 0:
        if spans[parent][0].startswith(prefixes):
            return True
        parent = spans[parent][3]
    return False


def layer_totals(spans) -> dict[str, float]:
    """Per-layer sums over one span list (one process)."""
    out: dict[str, float] = defaultdict(float)
    children: dict[int, list[list]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append(span)
    for index, span in enumerate(spans):
        name, start, end, _, attrs = span
        dur = end - start
        if name == "solve.factor":
            out["solve.factor_s"] += dur
            out["solve.factor_calls"] += 1
            out["solve.lu_fill_mnz"] = max(out["solve.lu_fill_mnz"], attrs["nnz"] / 1e6)
        elif name == "solve.trisolve":
            out["solve.trisolve_s"] += dur
        elif name == "solve.harmonic":
            out["solve.harmonic_s"] += dur
            out["solve.harmonic_calls"] += 1
        elif name == "solve.newton":
            out["solve.newton_calls"] += 1
            out["solve.newton_iters"] += attrs["iterations"]
            out["solve.newton_other_s"] += dur - sum(
                c[2] - c[1] for c in children[index]
                if c[0] in ("solve.factor", "solve.trisolve", "solve.harmonic"))
            in_continuation = _has_ancestor(spans, span, ("solve.continuation",))
            if in_continuation and not attrs["converged"]:
                out["solve.rejected_trials"] += 1
        elif name == "solve.continuation":
            out["solve.continuation_s"] += dur
            out["solve.continuation_steps"] += attrs["steps"]
        elif name == "levelgeom.rank_scan":
            out["levelgeom.rank_scan_s"] += dur
            out["levelgeom.rank_samples"] += attrs["samples"]
        elif name == "levelgeom.extract_level":
            out["levelgeom.extract_level_s"] += dur
            out["levelgeom.extract_level_calls"] += 1
        elif name == "field.jet_table":
            out["field.jet_table_s"] += dur
            out["field.jet_table_builds"] += 1
        elif name == "field.save_field":
            out["field.save_field_s"] += dur
            out["field.snapshot_bytes"] += attrs["bytes"]
            out["field.snapshots"] += 1
        elif name == "field.load_field":
            out["field.load_field_s"] += dur
        elif name == "spaceform.frame_components":
            out["spaceform.frame_components_s"] += dur
        elif name == "ring.make_ring":
            out["ring.make_ring_s"] += dur
        elif name == "ring.build_grid":
            out["ring.build_grid_s"] += dur
            out["ring.build_grid_calls"] += 1
        elif name in ("cli.config", "cli.write") and not _has_ancestor(spans, span, (name,)):
            out[f"{name}_s"] += dur
    return out


def layer_metrics(span_lists, import_times, operations: int) -> dict[str, float]:
    """Per-operation per-layer numbers from every traced process of a run.

    Times and counts are summed over all spans and divided by the number of
    traced operations; ``lu_fill_mnz`` is the largest factor seen and
    ``snapshot_mb`` the mean snapshot size."""
    total: dict[str, float] = defaultdict(float)
    for spans in span_lists:
        for key, value in layer_totals(spans).items():
            if key == "solve.lu_fill_mnz":
                total[key] = max(total[key], value)
            else:
                total[key] += value
    snapshots = total.pop("field.snapshots", 0)
    snapshot_bytes = total.pop("field.snapshot_bytes", 0)
    out = {name: 0.0 for name, _ in PER_LAYER}
    for key, value in total.items():
        out[key] = value if key == "solve.lu_fill_mnz" else value / operations
    out["field.snapshot_mb"] = snapshot_bytes / snapshots / 1e6 if snapshots else 0.0
    out["cli.import_s"] = sum(import_times) / operations
    samples = out["levelgeom.rank_samples"]
    out["levelgeom.rank_us_per_sample"] = (
        1e6 * out["levelgeom.rank_scan_s"] / samples if samples else 0.0)
    return out


def top_shares(metrics: dict[str, float], run_s: float) -> dict[str, float]:
    """Each time metric as a share of the traced operation time, largest first."""
    shares = {name: value / run_s for name, value in metrics.items()
              if name.endswith("_s") and not name.startswith("trace.") and run_s > 0}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
