"""Import budgets: a command or a library call imports only the code it runs.

Each case runs in a fresh interpreter, because this one has long imported
every module.  ``levels`` and grid construction need no scipy, and
``oracle`` no sparse solver.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from convexring import cli
from convexring.field import ScalarField, save_field
from convexring.ring import build_grid, make_curve, make_ring
from convexring.spaceform import SpaceFormChart

SRC = str(Path(cli.__file__).resolve().parent.parent)

# appended to each case: one JSON line naming what got imported, then exit
_REPORT = """
import json, sys
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "solve": "convexring.solve" in sys.modules,
}))
raise SystemExit(code)
"""


def _fresh(body: str) -> tuple[int, dict, str]:
    """Exit code, the imported-modules report and stderr of ``body`` run alone."""
    result = subprocess.run([sys.executable, "-c", body + _REPORT], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    report = json.loads(result.stdout.strip().splitlines()[-1])
    return result.returncode, report, result.stderr


def _command(*argv: str) -> tuple[int, dict, str]:
    return _fresh(f"from convexring.cli import main\ncode = main({list(argv)!r})\n")


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """A snapshot of u = s on the README ring (every level set an ellipse) and
    a config asking for three of its levels; no solve involved."""
    root = tmp_path_factory.mktemp("budget")
    grid = build_grid(make_ring(SpaceFormChart(epsilon=0.0, dim=2),
                                make_curve("ellipse", radii=(3.0, 2.0)),
                                make_curve("ellipse", radii=(1.2, 0.8))), 17, 32)
    values = np.repeat(grid.s[:, None], grid.ntheta, axis=1)
    values[0], values[-1] = 0.0, 1.0
    save_field(ScalarField(grid, values, (0.0, 1.0)), str(root / "field.json"))
    (root / "config.json").write_text(json.dumps({"levels": [0.25, 0.5, 0.75]}))
    return root


def test_levels_imports_no_scipy(snapshot, tmp_path):
    code, report, _ = _command("levels", "--config", str(snapshot / "config.json"),
                               "--snapshot", str(snapshot / "field.json"),
                               "--out", str(tmp_path))
    assert code == 0
    assert len(list(tmp_path.glob("level_*.csv"))) == 3
    assert report["scipy"] == []


def test_levels_on_missing_snapshot_imports_no_scipy(snapshot, tmp_path):
    code, report, err = _command("levels", "--config", str(snapshot / "config.json"),
                                 "--snapshot", str(tmp_path / "missing.json"),
                                 "--out", str(tmp_path))
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert "cannot read snapshot" in err
    assert report["scipy"] == []


def test_package_import_and_build_grid_import_no_solver():
    code, report, _ = _fresh(
        "import convexring as cr\n"
        "ring = cr.make_ring(cr.SpaceFormChart(epsilon=0.0, dim=2),\n"
        "                    cr.make_curve('circle', radius=2.0),\n"
        "                    cr.make_curve('circle', radius=1.0))\n"
        "code = 0 if cr.build_grid(ring, 9, 16).ns == 9 else 1\n")
    assert code == 0
    assert report == {"scipy": [], "solve": False}


def test_oracle_imports_no_sparse_solver(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps({"oracle": {"samples": 5}}))
    code, report, _ = _command("oracle", "--config", str(tmp_path / "config.json"),
                               "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "oracle.csv").read_text().count("\n") == 6
    assert not report["solve"]
    assert not [m for m in report["scipy"] if m.startswith("scipy.sparse")]
