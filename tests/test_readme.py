"""The README's library and command-line quick starts run as written."""

import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import convexring
from convexring import SUITE_CHECKS
from readme_blocks import README, readme_blocks


def test_readme_quick_start_runs(capsys):
    (quick_start,) = readme_blocks("python")
    namespace = {}
    exec(compile(quick_start, "README.md", "exec"), namespace)
    assert namespace["level"].kappa_min > 0.0  # "strictly positive"
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0]) == namespace["level"].kappa_min
    assert len(lines) == 9  # kappa_min, then one line per check
    assert all(" pass " in line for line in lines[1:])


def test_readme_cli_solve_then_levels_runs(tmp_path):
    # the README config through `solve`, then `levels` on its tau = 1 snapshot,
    # each a fresh process, as a user runs them
    (config,) = readme_blocks("json")
    (tmp_path / "run.json").write_text(config)
    src = str(Path(convexring.__file__).resolve().parent.parent)
    common = ("--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "results"))
    for command in (("solve",),
                    ("levels", "--snapshot", str(tmp_path / "results" / "field_tau_1.json"))):
        result = subprocess.run([sys.executable, "-m", "convexring.cli", *command, *common],
                                capture_output=True, text=True, timeout=300,
                                env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 0, result.stderr
    out = tmp_path / "results"
    assert sorted(p.name for p in out.glob("level_*.csv")) == [
        "level_0.25.csv", "level_0.5.csv", "level_0.75.csv"]
    svg = (out / "levels.svg").read_text()
    assert svg.endswith("</svg>\n")
    paths = [el for el in ET.fromstring(svg).iter() if el.tag.endswith("path")]
    assert len(paths) >= 5  # two boundaries plus at least one run per level


def test_readme_states_one_claim_per_suite_check():
    # one paragraph per check, opening with its name, in SUITE_CHECKS order
    section = re.search(r"^## What the checks claim\n(.*?)(?=^## )", README.read_text(),
                        flags=re.M | re.S)
    assert section is not None
    named = [m.group(1) for paragraph in section.group(1).split("\n\n")
             if (m := re.match(r"`([a-z-]+)` ", paragraph))]
    assert named == list(SUITE_CHECKS)


def test_readme_holds_no_measured_figures():
    # timings and memory live in CHANGES.md and the BENCH_*.json files, which
    # one line of the README points to
    text = README.read_text()
    assert re.findall(r"\d\s*(?:ms|µs|kB|MB|MiB|GB)\b", text) == []
    assert len([line for line in text.splitlines() if "BENCH_" in line]) == 1
