"""The benchmark's tracer patches convexring attributes by name
(``perfbench/tracing.py``); each of them must exist where it looks."""

import importlib
import importlib.util
from pathlib import Path

from convexring import cli, solve
from convexring.field import ScalarField

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_patches_exists():
    tracing = _tracing()
    for module_name, attr, _ in tracing.FUNCTIONS:
        module = importlib.import_module(f"convexring.{module_name}")
        assert callable(getattr(module, attr, None)), f"convexring.{module_name}.{attr}"
    for attr in tracing.CLI_CONFIG + tracing.CLI_WRITE:
        assert callable(getattr(cli, attr, None)), f"convexring.cli.{attr}"
    assert callable(solve.spla.splu)
    assert callable(ScalarField.jet_table)
