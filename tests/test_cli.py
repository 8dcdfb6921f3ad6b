"""End-to-end tests of the command line: exit codes, files, determinism."""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from convexring import cli, solve, verify
from convexring.cli import main
from convexring.field import ScalarField, load_field, save_field
from convexring.levelgeom import TopologyError, extract_level
from convexring.ring import build_grid, make_curve, make_ring
from convexring.spaceform import SpaceFormChart
from readme_blocks import readme_blocks


def base_config(**overrides):
    cfg = {
        "chart": {"epsilon": 0.0, "dim": 2},
        "ring": {
            "outer": {"kind": "circle", "radius": 2.0},
            "inner": {"kind": "circle", "radius": 1.0},
        },
        "grid": {"ns": 17, "ntheta": 48},
        "tau": [0.3],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name="config.json", **overrides) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(base_config(**overrides), indent=1) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def solved_run(tmp_path_factory):
    """One continuation run shared by the snapshot-consuming tests."""
    root = tmp_path_factory.mktemp("solved")
    cfg = write_config(root)
    out = root / "out"
    rc = main(["solve", "--config", cfg, "--out", str(out)])
    assert rc == 0
    return root, out


# -- solve -----------------------------------------------------------------


def test_solve_writes_snapshots_and_trace(solved_run):
    _, out = solved_run
    # one snapshot per target, and no step before the first
    assert sorted(p.name for p in out.glob("field_tau_*.json")) == ["field_tau_0.3.json"]
    trace = json.loads((out / "trace.json").read_text())
    assert trace["completed"] is True
    assert trace["tau_schedule"] == [0.3]
    assert [s["tau"] for s in trace["steps"]] == [0.3]
    for step in trace["steps"]:
        assert step["converged"] is True
        assert step["min_interior_gradient"] > 0.0
        assert "min_gradient_norm" not in step  # the same value, written once
        assert step["min_level_curvature"] > 0.0
        # deterministic solver counts sit beside the convergence numbers
        assert step["factorizations"] >= 1 and step["lu_fill"] > 0
    # wall times live only under the timestamp key
    assert "timestamp" in trace
    assert set(trace["timestamp"]) == {"written_at", "runtime_s"}
    # a snapshot's chart is its curvature and dimension
    snapshot = out / "field_tau_0.3.json"
    assert json.loads(snapshot.read_text())["ring"]["chart"] == {"epsilon": 0.0, "dim": 2}
    f = load_field(str(snapshot))
    assert f.boundary_values == (0.0, 0.3)
    assert f.grid.ring.chart == SpaceFormChart(epsilon=0.0, dim=2)


def test_snapshot_with_a_chart_radius_gives_the_same_levels(solved_run, tmp_path, capsys):
    # snapshots written before the chart lost its radius store
    # "chart_radius": Infinity in a flat chart; they load, and their levels
    # are the same files and lines
    snapshot = solved_run[1] / "field_tau_0.3.json"
    doc = json.loads(snapshot.read_text())
    doc["ring"]["chart"]["chart_radius"] = float("inf")
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc, indent=1))
    assert '"chart_radius": Infinity' in old.read_text()
    cfg = write_config(tmp_path, levels=[0.1, 0.2])
    outputs = []
    for name, path in (("new", snapshot), ("old", old)):
        out = tmp_path / name
        assert main(["levels", "--config", cfg, "--snapshot", str(path), "--out", str(out)]) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs.append((files, capsys.readouterr().out))
    assert sorted(outputs[0][0]) == ["level_0.1.csv", "level_0.2.csv", "levels.svg"]
    assert outputs[0] == outputs[1]


def test_solve_failure_keeps_partial_outputs_and_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        solve={"newton_tol": 1e-30, "max_newton": 6, "min_step": 0.6},
    )
    out = tmp_path / "out"
    rc = main(["solve", "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert "continuation failed" in capsys.readouterr().err
    trace = json.loads((out / "trace.json").read_text())
    assert trace["completed"] is False
    assert "tau=0" in trace["failure"]


def test_solver_error_reaching_main_exits_2(tmp_path, capsys, monkeypatch):
    def fails(*args, **kwargs):
        raise solve.SolverError("injected solver failure")

    monkeypatch.setattr(solve, "continuation_solve", fails)
    assert main(["solve", "--config", write_config(tmp_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "solver error: injected solver failure\n"


def test_solve_diagnostic_failure_keeps_partial_outputs_and_exits_2(
        tmp_path, capsys, monkeypatch):
    calls = []

    def fails_on_second_step(*args, **kwargs):
        calls.append(args)
        if len(calls) > 3:  # three levels per accepted step
            raise TopologyError("injected level topology failure")
        return extract_level(*args, **kwargs)

    monkeypatch.setattr(solve, "extract_level", fails_on_second_step)
    cfg = write_config(tmp_path, tau=[0.05, 0.3])
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "step diagnostics failed at tau=0.3" in err
    trace = json.loads((out / "trace.json").read_text())
    assert trace["completed"] is False
    assert [s["tau"] for s in trace["steps"]] == [0.05]
    assert (out / "field_tau_0.05.json").is_file()
    assert not (out / "field_tau_0.3.json").exists()


def test_solve_reports_progress_lines(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1  # one line per target
    assert lines[-1].startswith("tau=0.3")
    assert "min level curvature" in lines[-1]


def test_distinct_values_get_distinct_files(tmp_path, capsys):
    # tau targets and levels that agree to six significant digits still
    # write one file each and print one line each, named by their shortest
    # round-trip digits
    taus = [0.3000001, 0.3000002]
    cfg = write_config(tmp_path, grid={"ns": 9, "ntheta": 24}, tau=taus,
                       levels=[0.1000001, 0.1000002])
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["tau=0.3000001", "tau=0.3000002"]
    trace = json.loads((out / "trace.json").read_text())
    snapshots = [s["snapshot"] for s in trace["steps"]]
    assert snapshots == ["field_tau_0.3000001.json", "field_tau_0.3000002.json"]
    assert sorted(p.name for p in out.glob("field_tau_*.json")) == sorted(snapshots)
    assert list(trace["timestamp"]["runtime_s"]) == snapshots
    for name, tau in zip(snapshots, taus):
        assert load_field(str(out / name)).boundary_values == (0.0, tau)

    lvl_out = tmp_path / "lvl"
    assert main(["levels", "--config", cfg, "--snapshot", str(out / snapshots[-1]),
                 "--out", str(lvl_out)]) == 0
    assert sorted(p.name for p in lvl_out.glob("level_*.csv")) == [
        "level_0.1000001.csv", "level_0.1000002.csv"]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["level 0.1000001", "level 0.1000002"]


def test_tiny_values_get_short_file_names(tmp_path, capsys):
    # written out in positional digits, a level of 1e-300 would name a file
    # past the file system's limit
    cfg = write_config(tmp_path, grid={"ns": 9, "ntheta": 24}, tau=[1e-5, 0.3],
                       levels=[1e-300, 1e-5])
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert main(["levels", "--config", cfg, "--snapshot", str(out / "field_tau_0.3.json"),
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("level_*.csv")) == ["level_1e-05.csv",
                                                               "level_1e-300.csv"]
    assert (out / "field_tau_1e-05.json").is_file()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["tau=1e-05", "tau=0.3"]
    assert lines[2].startswith("level 1e-300: ")


# -- config errors -----------------------------------------------------------


def test_syntax_error_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n "tau": [0.3,,]\n}\n')
    rc = main(["solve", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_missing_config_file_exits_1(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 1
    assert "cannot read config" in capsys.readouterr().err


def test_semantic_error_names_the_offending_line(tmp_path, capsys):
    # the second config has a "tau" inside "verify" on an earlier line; chart
    # and grid errors name the line of their value, not of "chart" or "grid";
    # a key inside "oracle" or "verify" names its own line, not its section's,
    # and a top-level "tau" does not stand in for the one in "verify"
    oracle = {"r_outer": 2.0, "tau": 0.3, "n": 2, "samples": 33, "r_inner": "1"}
    for command, config, key, message in (
            ("solve", base_config(tau=[0.5, 0.5]), ' "tau"', "strictly increasing"),
            ("solve", {"verify": {"tau": 0.5}, **base_config(tau=[2.0])}, ' "tau"',
             "targets must lie in (0, 1]"),
            ("solve", base_config(chart={"epsilon": 0.0, "dim": 2.5}), '  "dim"', "whole number"),
            ("solve", base_config(chart={"dim": 2, "epsilon": "0"}), '  "epsilon"',
             "must be a number"),
            ("solve", base_config(chart={"dim": 2, "epsilon": -0.5}), '  "epsilon"',
             "epsilon must be >= 0, got -0.5"),
            ("verify", base_config(chart={"dim": 2, "epsilon": -0.5}, checks=[]), '  "epsilon"',
             "epsilon must be >= 0, got -0.5"),
            # a key a section does not take names its own line, also the
            # chart_radius of a config written for an older chart
            ("solve", base_config(chart={"epsilon": 1.0, "dim": 2, "chart_radius": 1.5}),
             '  "chart_radius"', "unknown chart key 'chart_radius'"),
            ("solve", base_config(chart={"epsilon": 0.0, "dim": 2, "chartradius": 3}),
             '  "chartradius"', "unknown chart key 'chartradius'"),
            ("solve", base_config(grid={"ns": 17, "nthta": 32}), '  "nthta"',
             "unknown grid key 'nthta'; the keys are ns, ntheta"),
            ("solve", base_config(ring={**base_config()["ring"], "middle": None}),
             '  "middle"', "unknown ring key 'middle'"),
            ("verify", base_config(verify={"tua": 0.5}, checks=[]), '  "tua"',
             "unknown verify key 'tua'"),
            ("oracle", base_config(oracle={"smaples": 9}), '  "smaples"',
             "unknown oracle key 'smaples'"),
            # a key is found by its decoded text, and a dot in it is no path
            ("solve", base_config(grid={"ns": 17, "ntheta": 48, "n.\u00e9": 1}),
             '  "n.\\u00e9"', "unknown grid key 'n.\u00e9'"),
            ("solve", base_config(grid={"ntheta": 48, "ns": 17.5}), '  "ns"', "whole number"),
            ("solve", base_config(grid={"ns": 17, "ntheta": 4}), '  "ntheta"', "at least 8"),
            ("solve", base_config(solve={"max_newton": 9, "newton_tol": "1e-10"}),
             '  "newton_tol"', "newton_tol must be a number"),
            ("solve", base_config(solve={"max_newton": 9, "min_step": 0}),
             '  "min_step"', "min_step must be positive, got 0.0"),
            ("solve", base_config(solve={"max_newton": 9, "newton_tol": 0}),
             '  "newton_tol"', "newton_tol must be positive, got 0.0"),
            ("solve", base_config(solve={"max_newton": 9, "linear_solver": "direct-banded"}),
             '  "linear_solver"',
             "unknown solve key 'linear_solver'; the keys are newton_tol, max_newton, min_step"),
            ("oracle", base_config(oracle=oracle), '  "r_inner"', "r_inner must be a number"),
            # the oracle's own checks open with their key too
            ("oracle", base_config(oracle={"r_inner": 1.0, "samples": -3}), '  "samples"',
             "samples must be >= 0, got -3"),
            ("oracle", base_config(oracle={"r_inner": 1.0, "tau": 100.0}), '  "tau"',
             "tau 100.0 is not reachable"),
            ("verify", base_config(verify={"tau": "0.5"}), '  "tau"',
             "verify tau must be a number"),
            # the oracle check solves at its own sizes, which no config sets
            ("verify", base_config(verify={"tau": 0.5, "oracle_grid_sizes": [16, 32]}),
             '  "oracle_grid_sizes"', "unknown verify key 'oracle_grid_sizes'"),
            ("solve", base_config(grid={"ntheta": 48, "ns": 10**400}), '  "ns"',
             "ns too large"),
            ("verify", base_config(grid={"ns": 17, "ntheta": 10**8}, checks=[]), '  "ntheta"',
             "ntheta too large")):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config, indent=1) + "\n")
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        line = next(i for i, text in enumerate(cfg.read_text().splitlines(), start=1)
                    if text.startswith(key))
        assert err.startswith(f"error: config line {line}: ") and message in err, (command, err)


def test_chart_of_dimension_three_exits_1_naming_dimension_2(tmp_path, capsys):
    cfg = write_config(tmp_path, chart={"epsilon": 0.0, "dim": 3})
    # the line of "dim", where the offending value stands, not that of "ring"
    lines = Path(cfg).read_text().splitlines()
    dim_line = next(n for n, line in enumerate(lines, 1) if '"dim"' in line)
    assert dim_line < next(n for n, line in enumerate(lines, 1) if '"ring"' in line)
    for command in ("solve", "verify"):
        rc = main([command, "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: config line {dim_line}: ") and "dimension 2 only" in err, err


def test_folded_grid_exits_1_naming_the_node(tmp_path, capsys):
    cfg = write_config(tmp_path, ring={
        "outer": {"kind": "ellipse", "radii": [2.6, 1.1]},
        "inner": {"kind": "ellipse", "center": [1.3, 0.0], "radii": [0.1, 0.85]},
    })
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "folds at node" in err
    assert "(13, 10)" in err


def test_negative_curvature_exits_1(tmp_path, capsys):
    ring = {"outer": {"kind": "circle", "radius": 1.0},
            "inner": {"kind": "circle", "radius": 0.4}}
    cfg = write_config(tmp_path, chart={"epsilon": -0.5, "dim": 2}, ring=ring,
                       checks=[], levels=[0.1])
    for command in ("solve", "verify"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config line 3: epsilon must be >= 0"), err
        assert len(err.splitlines()) == 1
        # the opt-in flag is gone: it is a usage error like any unknown flag
        assert main([command, "--config", cfg, "--experimental-negative-curvature"]) == 1
        err = capsys.readouterr().err
        assert err == ("error: convexring: unrecognized arguments: "
                       "--experimental-negative-curvature\n")
    # nor does a snapshot of a negatively curved chart load
    flat = make_ring(SpaceFormChart(epsilon=0.0), make_curve("circle", radius=1.0),
                     make_curve("circle", radius=0.4))
    grid = build_grid(flat, 9, 24)
    snapshot = tmp_path / "negative.json"
    save_field(ScalarField(grid, 0.3 * (grid.s[:, None] + 0.0 * grid.theta), (0.0, 0.3)),
               str(snapshot))
    doc = json.loads(snapshot.read_text())
    doc["ring"]["chart"]["epsilon"] = -0.5
    snapshot.write_text(json.dumps(doc))
    assert main(["levels", "--config", cfg, "--snapshot", str(snapshot),
                 "--out", str(tmp_path / "levels")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read snapshot") and "epsilon must be >= 0" in err
    assert len(err.splitlines()) == 1


def test_levels_reads_only_snapshot_version_1(solved_run, tmp_path, capsys):
    doc = json.loads((solved_run[1] / "field_tau_0.3.json").read_text())
    cfg = write_config(tmp_path, levels=[0.1])
    unversioned = {k: v for k, v in doc.items() if k != "version"}
    for name, snapshot, named in (("v99", {**doc, "version": 99}, "version 99"),
                                  ("string", {**doc, "version": "1"}, "version '1'"),
                                  ("bool", {**doc, "version": True}, "version True"),
                                  ("missing", unversioned, "no version")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(snapshot))
        out = tmp_path / name
        assert main(["levels", "--config", cfg, "--snapshot", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: cannot read snapshot {path}: snapshot has {named}; "
                       "this reader takes version 1\n"), err
        assert not list(out.glob("level_*.csv"))


def test_levels_reads_boundary_values_as_numbers(solved_run, tmp_path, capsys):
    doc = json.loads((solved_run[1] / "field_tau_0.3.json").read_text())
    cfg = write_config(tmp_path, levels=[0.1])
    for name, pair, named in (("bool", [0.0, True], "True"), ("false", [False, 0.3], "False"),
                              ("string", [0.0, "0.3"], "'0.3'")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**doc, "boundary_values": pair}))
        out = tmp_path / name
        assert main(["levels", "--config", cfg, "--snapshot", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: cannot read snapshot {path}: boundary_values entry "
                       f"must be a number, got {named}\n"), err
        assert not list(out.glob("level_*.csv"))


@pytest.mark.parametrize("argv, message", [
    (["solve", "--config", "run.json", "--bogus"], "unrecognized arguments: --bogus"),
    (["verify"], "the following arguments are required: --config"),
    (["levels", "--config", "run.json"], "the following arguments are required: --snapshot"),
    (["frob", "--config", "run.json"], "invalid choice: 'frob'"),
    ([], "the following arguments are required: command"),
])
def test_usage_error_exits_1_with_one_line(argv, message, capsys):
    # the config-error code and line, not argparse's usage text and code 2
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: convexring") and message in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_still_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: convexring")


def test_unknown_curve_kind_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, ring={
        "outer": {"kind": "square", "radius": 2.0},
        "inner": {"kind": "circle", "radius": 1.0},
    })
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "square" in capsys.readouterr().err


def test_linear_solver_option_exits_1(tmp_path, capsys):
    # the solver has one direct linear-solve path and no option to pick one
    for name in ("stabilized-iterative", "direct-banded"):
        cfg = write_config(tmp_path, solve={"linear_solver": name})
        out = tmp_path / name
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        line = next(i for i, text in enumerate(Path(cfg).read_text().splitlines(), start=1)
                    if '"linear_solver"' in text)
        assert err.startswith(f"error: config line {line}: ")
        assert "unknown solve key 'linear_solver'" in err
        assert not (out / "trace.json").exists()


@pytest.mark.parametrize("command, overrides, snapshot", [
    ("solve", {"chart": {"epsilon": "x"}}, None),
    ("verify", {"grid": {"ns": "x"}, "checks": ["gradient-max-principle"]}, None),
    ("verify", {"verify": {"tau": "x"}, "checks": ["gradient-max-principle"]}, None),
    # a config written for an older program: oracle_grid_sizes is no verify
    # key, whatever its value, so each of these is an unknown-key error
    ("verify", {"verify": {"oracle_grid_sizes": 5}, "checks": ["solver-vs-oracle"]}, None),
    ("verify", {"verify": {"tau": 3.0}, "checks": ["gradient-max-principle"]}, None),
    ("verify", {"verify": {"tau": 0}, "checks": ["gradient-max-principle"]}, None),
    ("verify", {"verify": {"oracle_grid_sizes": ["a"]}, "checks": ["solver-vs-oracle"]}, None),
    ("verify", {"verify": {"oracle_grid_sizes": [4, 8]}, "checks": ["solver-vs-oracle"]}, None),
    ("verify", {"verify": {"oracle_grid_sizes": [16, 16]}, "checks": ["solver-vs-oracle"]}, None),
    ("verify", {"verify": {"oracle_grid_sizes": [16]}, "checks": ["solver-vs-oracle"]}, None),
    ("verify", {"verify": {"oracle_grid_sizes": []}, "checks": ["solver-vs-oracle"]}, None),
    ("levels", {"levels": ["a"]}, "solved"),
    ("levels", {"levels": [0.1]}, "not json\n"),
    ("levels", {"levels": [0.1]}, "{}\n"),
    ("levels", {"levels": [0.1]}, "[]\n"),
    ("oracle", {"oracle": {"samples": "x"}}, None),
    ("oracle", {"oracle": {"tau": float("nan")}}, None),
    ("solve", {"chart": {"epsilon": float("nan")}}, None),
    # a ring that solves in the eps=1 chart: an older config's chart_radius is
    # a key the chart does not take, whatever its value
    ("solve", {"chart": {"epsilon": 1.0, "chart_radius": float("nan")},
               "ring": {"outer": {"kind": "circle", "radius": 1.0},
                        "inner": {"kind": "circle", "radius": 0.5}}}, None),
    ("solve", {"solve": {"newton_tol": float("nan")}}, None),
    ("solve", {"solve": {"max_newton": float("nan")}}, None),
    ("solve", {"solve": {"max_newton": 2.5}}, None),
    ("solve", {"solve": {"newton_tol": True}}, None),
    ("solve", {"solve": {"max_newton": True}}, None),
    ("solve", {"tau": [True]}, None),
    ("verify", {"verify": {"tau": True}, "checks": ["gradient-max-principle"]}, None),
    ("solve", {"ring": {"outer": {"kind": "circle"},
                        "inner": {"kind": "circle", "radius": 1.0}}}, None),
    ("solve", {"ring": {"outer": {"kind": "circle", "radius": 2.0},
                        "inner": {"kind": "fourier", "cos_coeffs": [0.01]}}}, None),
    ("solve", {"grid": {"ns": 17.5, "ntheta": 48}}, None),
    ("solve", {"grid": {"ns": float("inf"), "ntheta": 48}}, None),
    ("solve", {"chart": {"epsilon": 0.0, "dim": float("inf")}}, None),
    ("oracle", {"oracle": {"n": 2.5}}, None),
    ("oracle", {"oracle": {"samples": float("inf")}}, None),
    # no verify key, as above
    ("verify", {"verify": {"oracle_grid_sizes": [16, 32.5]}, "checks": ["solver-vs-oracle"]},
     None),
    ("verify", {"verify": {"oracle_grid_sizes": [16, float("inf")]},
                "checks": ["solver-vs-oracle"]}, None),
    # every number is a JSON number: strings and true/false are not read as one
    ("solve", {"ring": {"outer": {"kind": "ellipse", "radii": "32"},
                        "inner": {"kind": "circle", "radius": 1.0}}}, None),
    ("solve", {"ring": {"outer": {"kind": "circle", "radius": 2.0, "center": "00"},
                        "inner": {"kind": "circle", "radius": 1.0}}}, None),
    ("solve", {"ring": {"outer": {"kind": "circle", "radius": True},
                        "inner": {"kind": "circle", "radius": 0.5}}}, None),
    ("solve", {"ring": {"outer": {"kind": "circle", "radius": 2.0, "center": [0.5]},
                        "inner": {"kind": "circle", "radius": 1.0}}}, None),
    ("solve", {"chart": {"epsilon": "0"}}, None),
    ("solve", {"chart": {"epsilon": False}}, None),
    ("solve", {"chart": {"epsilon": 10**400}}, None),
    ("solve", {"chart": {"epsilon": 0.0, "chart_radius": "50"}}, None),
    ("levels", {"levels": ["0.25"]}, "solved"),
    ("oracle", {"oracle": {"r_inner": "1"}}, None),
    ("oracle", {"oracle": {"tau": True}}, None),
    ("solve", {"chart": {"epsilon": -0.5}}, None),
    ("verify", {"chart": {"epsilon": -1e-300}, "checks": []}, None),
    # every section takes only its own keys
    ("solve", {"chart": {"epsilon": 0.0, "chartradius": 3}}, None),
    ("solve", {"grid": {"ns": 17, "nthta": 32}}, None),
    ("solve", {"ring": {"outer": {"kind": "circle", "radius": 2.0},
                        "inner": {"kind": "circle", "radius": 1.0}, "Outer": None}}, None),
    ("verify", {"verify": {"tua": 0.5}, "checks": []}, None),
    ("oracle", {"oracle": {"smaples": 9}}, None),
    ("oracle", {"oracle": {"n": 10**400}}, None),
    # lengths whose squares or cubes overflow or underflow
    ("solve", {"ring": {"outer": {"kind": "ellipse", "radii": [1e300, 2.0]},
                        "inner": {"kind": "circle", "radius": 1.0}}}, None),
    ("solve", {"ring": {"outer": {"kind": "circle", "radius": 2.0},
                        "inner": {"kind": "circle", "radius": 1e-300}}}, None),
], ids=["epsilon", "grid-ns", "verify-tau", "oracle-grid-sizes",
        "verify-tau-above-1", "verify-tau-zero", "oracle-grid-size-not-int",
        "oracle-grid-size-below-8", "oracle-grid-sizes-repeated",
        "oracle-grid-size-single", "oracle-grid-sizes-empty", "levels",
        "snapshot-not-json", "snapshot-not-a-field", "snapshot-a-list",
        "oracle-samples", "oracle-tau-nan", "epsilon-nan", "chart-radius-nan",
        "newton-tol-nan", "max-newton-nan", "max-newton-not-int", "newton-tol-bool",
        "max-newton-bool", "tau-bool", "verify-tau-bool", "circle-without-radius",
        "fourier-without-r0", "grid-ns-fraction", "grid-ns-inf", "dim-inf",
        "oracle-n-fraction", "oracle-samples-inf", "oracle-grid-size-fraction",
        "oracle-grid-size-inf", "radii-string", "center-string", "radius-bool",
        "center-single", "epsilon-string", "epsilon-bool", "epsilon-huge-int",
        "chart-radius-string", "level-string", "oracle-r-inner-string", "oracle-tau-bool",
        "epsilon-negative", "verify-epsilon-negative", "chart-unknown-key",
        "grid-unknown-key", "ring-unknown-key", "verify-unknown-key", "oracle-unknown-key",
        "oracle-n-huge", "radii-huge", "radius-tiny"])
def test_bad_input_exits_1_with_one_line(command, overrides, snapshot, solved_run,
                                         tmp_path, capsys):
    argv = [command, "--config", write_config(tmp_path, **overrides),
            "--out", str(tmp_path / "out")]
    if snapshot == "solved":
        argv += ["--snapshot", str(solved_run[1] / "field_tau_0.3.json")]
    elif snapshot is not None:
        path = tmp_path / "snapshot.json"
        path.write_text(snapshot)
        argv += ["--snapshot", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: config line " if snapshot is None else "error: ")
    assert "Traceback" not in err


# -- levels -------------------------------------------------------------------


def test_levels_writes_csv_and_svg(solved_run, tmp_path, capsys):
    root, out = solved_run
    cfg = write_config(tmp_path, levels=[0.1, 0.2])
    lvl_out = tmp_path / "lvl"
    rc = main(["levels", "--config", cfg,
               "--snapshot", str(out / "field_tau_0.3.json"),
               "--out", str(lvl_out)])
    assert rc == 0

    for c in ("0.1", "0.2"):
        rows = (lvl_out / f"level_{c}.csv").read_text().strip().splitlines()
        assert rows[0] == "x,y,kappa"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert data.shape[0] >= 48
        assert np.all(data[:, 2] > 0.0)
        radii = np.hypot(data[:, 0], data[:, 1])
        assert np.all((radii > 1.0) & (radii < 2.0))

    svg = (lvl_out / "levels.svg").read_text()
    root_el = ET.fromstring(svg)
    assert root_el.tag.endswith("svg")
    paths = [el for el in root_el.iter() if el.tag.endswith("path")]
    assert len(paths) >= 4  # two boundaries plus one run per level

    out_text = capsys.readouterr().out
    assert "overall min kappa" in out_text


def test_levels_outside_boundary_range_exits_1(solved_run, tmp_path, capsys):
    # every level is range-checked before any is extracted; a snapshot without
    # boundary values is checked against its extremes (0, 1), and on this folded
    # profile level 0.5 crosses every column twice, but the out-of-range 1.5
    # after it is a config error and wins
    grid = build_grid(make_ring(SpaceFormChart(epsilon=0.0),
                                make_curve("circle", radius=2.0),
                                make_curve("circle", radius=1.0)), 17, 16)
    ss, _ = np.meshgrid(grid.s, grid.theta, indexing="ij")
    folded = tmp_path / "folded.json"
    save_field(ScalarField(grid, np.sin(np.pi * ss), None), str(folded))
    solved = solved_run[1] / "field_tau_0.3.json"
    for snapshot, levels in ((solved, [0.9]), (solved, [0.1, 0.9]), (folded, [0.5, 1.5])):
        cfg = write_config(tmp_path, levels=levels)
        lvl_out = tmp_path / f"lvl_{snapshot.stem}_{len(levels)}"
        rc = main(["levels", "--config", cfg, "--snapshot", str(snapshot),
                   "--out", str(lvl_out)])
        assert rc == 1
        assert f"level {levels[-1]} outside the open range" in capsys.readouterr().err
        assert not list(lvl_out.glob("*.csv"))


def test_levels_missing_snapshot_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, levels=[0.1])
    rc = main(["levels", "--config", cfg,
               "--snapshot", str(tmp_path / "missing.json"),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "snapshot" in capsys.readouterr().err


# -- verify ---------------------------------------------------------------


def test_verify_single_check_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, checks=["gradient-max-principle"])
    out = tmp_path / "v"
    rc = main(["verify", "--config", cfg, "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "verification.json").read_text())
    assert [e["name"] for e in report["reports"]] == ["gradient-max-principle"]
    assert report["reports"][0]["passed"] is True
    assert report["reports"][0]["margin"] >= 0.0
    assert "pass" in capsys.readouterr().out


def test_verify_reports_identical_modulo_timestamp(tmp_path):
    cfg = write_config(tmp_path, checks=["gradient-max-principle", "tau-estimates"])
    texts = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        texts.append((out / "verification.json").read_text())
    docs = [json.loads(t) for t in texts]
    stamps = [doc.pop("timestamp") for doc in docs]
    assert all("written_at" in s for s in stamps)
    assert docs[0] == docs[1]
    assert json.dumps(docs[0], indent=1) == json.dumps(docs[1], indent=1)


def test_verify_failing_check_exits_3(tmp_path, capsys):
    # tau-estimates reads tau = 0.8, above the height these epsilon = 1
    # ellipses carry: that field is unresolved, and its gradient constant
    # leaves the band of the lower heights' by far
    cfg = write_config(
        tmp_path, chart={"epsilon": 1.0, "dim": 2},
        ring={"outer": {"kind": "ellipse", "radii": [1.2, 0.96]},
              "inner": {"kind": "ellipse", "radii": [0.48, 0.384]}},
        grid={"ns": 33, "ntheta": 64}, verify={"tau": 0.25}, checks=["tau-estimates"])
    out = tmp_path / "v"
    rc = main(["verify", "--config", cfg, "--out", str(out)])
    assert rc == 3
    report = json.loads((out / "verification.json").read_text())
    assert report["reports"][0]["passed"] is False
    assert report["reports"][0]["margin"] == pytest.approx(-5.938, abs=1e-3)
    assert "FAIL" in capsys.readouterr().out


def test_verify_check_error_is_recorded_and_exits_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        checks=["hopf-boundary-bound"],
        solve={"newton_tol": 1e-30, "max_newton": 6, "min_step": 0.6},
    )
    out = tmp_path / "v"
    rc = main(["verify", "--config", cfg, "--out", str(out)])
    assert rc == 3
    report = json.loads((out / "verification.json").read_text())
    entry = report["reports"][0]
    assert entry["name"] == "hopf-boundary-bound"
    assert "error" in entry and "passed" not in entry
    assert "ERROR" in capsys.readouterr().out


def test_verify_empty_check_list_warns_and_exits_0(tmp_path, capsys):
    cfg = write_config(tmp_path, checks=[])
    out = tmp_path / "v"
    rc = main(["verify", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert "empty check list" in capsys.readouterr().err
    report = json.loads((out / "verification.json").read_text())
    assert report["reports"] == []


def test_verify_unknown_check_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, checks=["no-such-check"])
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "no-such-check" in capsys.readouterr().err


def test_verify_repeated_check_exits_1_at_the_checks_line(tmp_path, capsys):
    cfg = write_config(tmp_path, checks=["gradient-max-principle", "gradient-max-principle"])
    out = tmp_path / "v"
    rc = main(["verify", "--config", cfg, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    line = next(i for i, text in enumerate(Path(cfg).read_text().splitlines(), start=1)
                if text.startswith(' "checks"'))
    assert err.startswith(f"error: config line {line}: ")
    assert "repeated checks: ['gradient-max-principle']" in err
    assert not (out / "verification.json").exists()


# the config the README shows, read from its json block so the two cannot drift
(README_CONFIG,) = (json.loads(block) for block in readme_blocks("json"))


def _count_calls(monkeypatch, module, name, counts, key):
    real = getattr(module, name)

    def counting(*args, **kwargs):
        counts[key] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


@pytest.mark.parametrize("all_checks", [False, True], ids=["readme", "all-checks"])
def test_verify_shares_one_grid_and_one_solve(all_checks, tmp_path, monkeypatch):
    counts = {"solve": 0, "harmonic": 0, "grid": 0}
    # continuation_solve calls the solver through the solve module
    for module in (verify, solve):
        _count_calls(monkeypatch, module, "solve_minimal_graph", counts, "solve")
    # solve_minimal_graph without an init runs a harmonic solve of its own
    for module in (verify, solve):
        _count_calls(monkeypatch, module, "solve_harmonic", counts, "harmonic")
    for module in (verify, cli):
        _count_calls(monkeypatch, module, "build_grid", counts, "grid")
    cfg = dict(README_CONFIG)
    if all_checks:
        del cfg["checks"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=1) + "\n")
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "v")]) == 0
    if all_checks:
        # 3 oracle solves on 3 oracle grids and one continuation walk over
        # the 12 heights of the three ring checks, the README tau = 0.5 among
        # them; harmonic solves: one per oracle solve, one at tau = 1 scaled
        # to every tau a check needs, and one on the coarsest grid of the
        # walk's nested first step
        assert counts == {"solve": 15, "harmonic": 5, "grid": 4}
    else:
        # a walk of one step at the README tau, from the nested start, and
        # the harmonic field at tau = 1 for supersolution
        assert counts == {"solve": 1, "harmonic": 2, "grid": 1}


# -- oracle ----------------------------------------------------------------


def test_oracle_dumps_table(tmp_path, capsys):
    cfg = write_config(tmp_path, oracle={
        "r_inner": 1.0, "r_outer": 2.0, "tau": 0.3, "samples": 9,
    })
    rc = main(["oracle", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    out_text = capsys.readouterr().out
    assert "flux constant" in out_text
    rows = (tmp_path / "oracle.csv").read_text().strip().splitlines()
    assert rows[0] == "r,u,du"
    assert len(rows) == 10
    first = [float(v) for v in rows[1].split(",")]
    last = [float(v) for v in rows[-1].split(",")]
    assert first[0] == 1.0 and abs(first[1] - 0.3) < 1e-9
    assert last[0] == 2.0 and abs(last[1]) < 1e-9
    assert all(float(r.split(",")[2]) < 0.0 for r in rows[1:])


def test_oracle_infeasible_height_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, oracle={"r_inner": 1.0, "r_outer": 2.0, "tau": 1.4})
    rc = main(["oracle", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "height" in capsys.readouterr().err


def test_cli_import_leaves_out_scipy_integrate():
    # the oracle is in closed form: the command line needs no quadrature module
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = "import sys, convexring.cli; print('scipy.integrate' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("command, target", [
    ("solve", "convexring.solve.continuation_solve"),
    ("levels", "convexring.cli.extract_level"),
    ("oracle", "convexring.oracle.radial_oracle"),
])
def test_running_out_of_memory_exits_1_with_one_line(command, target, solved_run, tmp_path,
                                                     capsys, monkeypatch):
    # a huge "samples" or grid reaches numpy's allocator as a MemoryError;
    # it is injected here, so that nothing is allocated for real
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                          "(10000000000,) and data type float64")

    monkeypatch.setattr(target, exhausted)
    cfg = write_config(tmp_path, levels=[0.1], oracle={"samples": 10_000_000_000})
    argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
    if command == "levels":
        argv += ["--snapshot", str(solved_run[1] / "field_tau_0.3.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == ("error: out of memory: Unable to allocate 74.5 GiB for an array with "
                   "shape (10000000000,) and data type float64\n")


def test_memory_error_without_a_message_still_prints_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("convexring.oracle.radial_oracle", exhausted)
    cfg = write_config(tmp_path, oracle={"samples": 9})
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"


def test_unrelated_runtime_error_is_not_a_solver_failure(solved_run, tmp_path, monkeypatch):
    # exit 2 is for SolverError and ContinuationError only: any other
    # RuntimeError is a bug and keeps its traceback
    def broken(path):
        raise RuntimeError("not a solver failure")

    monkeypatch.setattr(cli, "load_field", broken)
    cfg = write_config(tmp_path, levels=[0.1])
    with pytest.raises(RuntimeError, match="not a solver failure"):
        main(["levels", "--config", cfg, "--out", str(tmp_path),
              "--snapshot", str(solved_run[1] / "field_tau_0.3.json")])
