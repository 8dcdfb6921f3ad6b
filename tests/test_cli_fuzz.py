"""The exit-code contract under random inputs: cli.main on mutations of the
README config, and ``levels`` on mutations of a snapshot's contents, returns
0, 1, 2 or 3, prints at most one stderr line (exactly one on exits 1 and 2),
and never raises or warns."""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from convexring.cli import main  # noqa: E402
from readme_blocks import readme_blocks  # noqa: E402

# the README config on grids small enough for many runs: every size stays
# small, and no mutation below can bring in a larger default
(BASE,) = (json.loads(block) for block in readme_blocks("json"))
BASE["grid"] = {"ns": 9, "ntheta": 24}
BASE["oracle"]["samples"] = 9

# deleting these, or setting them to {}, would bring in a default grid of 33x64
KEEP = {"grid", "ns", "ntheta"}
# a huge number here would be a huge valid size or count
SIZES = KEEP | {"samples", "n", "dim", "max_newton"}

SMALL = [math.nan, math.inf, -math.inf, -0.5, 0, 1, 2.5, 1e-300, "0.5", "", True, False,
         None, [], [0.5], [1, 2, 3], {}, {"kind": "circle"}]
HUGE = [1e300, -1e300, 10**400]


def _paths(node, path=()):
    """Every path below ``node``: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


PATHS = list(_paths(BASE))
DICT_PATHS = [()] + [p for p in PATHS if isinstance(_at(BASE, p), dict)]


@st.composite
def mutation(draw, paths=PATHS, dict_paths=DICT_PATHS):
    """One of: delete a key or a list item, add an unknown key, replace a value."""
    kind = draw(st.sampled_from(["delete", "add", "set"]))
    if kind == "add":
        where = draw(st.sampled_from(dict_paths))
        key = draw(st.text(max_size=6))
        return kind, where, key, draw(st.sampled_from(SMALL))
    path = draw(st.sampled_from(paths))
    if kind == "delete" and path[-1] not in KEEP:
        return kind, path, None, None
    values = SMALL if path[-1] in SIZES else SMALL + HUGE
    value = draw(st.sampled_from([v for v in values if not (path[-1] in KEEP and v == {})]))
    return "set", path, None, value


def _apply(cfg, op):
    kind, path, key, value = op
    value = copy.deepcopy(value)  # a later mutation may add a key to it
    try:
        if kind == "add":
            node = _at(cfg, path)
            if isinstance(node, dict) and key not in node:
                node[key] = value
        elif kind == "delete":
            del _at(cfg, path[:-1])[path[-1]]
        else:
            _at(cfg, path[:-1])[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass  # an earlier mutation replaced or removed the path


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz_snapshot")
    cfg = out / "config.json"
    cfg.write_text(json.dumps(BASE, indent=1))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    return str(out / "field_tau_1.json")


def _assert_exit_code_contract(argv, mutated):
    """cli.main(argv) exits 0 to 3 with at most one stderr line (one on exits
    1 and 2), raising and warning nothing; ``mutated`` names the input."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3), (code, mutated)
    assert len(lines) <= 1 and (code not in (1, 2) or len(lines) == 1), (lines, mutated)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], mutated


@settings(derandomize=True, max_examples=120, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["solve", "levels", "verify", "oracle"]),
       ops=st.lists(mutation(), min_size=1, max_size=3))
def test_mutated_readme_config_keeps_the_exit_code_contract(snapshot, command, ops):
    cfg = copy.deepcopy(BASE)
    for op in ops:
        _apply(cfg, op)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg, indent=1))
        argv = [command, "--config", str(path), "--out", str(Path(tmp) / "out")]
        if command == "levels":
            argv += ["--snapshot", snapshot]
        _assert_exit_code_contract(argv, cfg)


@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_snapshot_keeps_the_exit_code_contract(snapshot, data):
    # the same mutations on one top-level entry of the snapshot's JSON, so
    # that each entry is mutated about as often, however many leaves it has
    # (the ring has most, and configs fuzz its reader too); the values array
    # is one leaf
    snap = json.loads(Path(snapshot).read_text())
    entry = data.draw(st.sampled_from(sorted(snap)))
    paths = [p for p in _paths(snap) if p[0] == entry and (entry != "values" or len(p) == 1)]
    dict_paths = [()] + [p for p in paths if isinstance(_at(snap, p), dict)]
    for op in data.draw(st.lists(mutation(paths, dict_paths), min_size=1, max_size=3)):
        _apply(snap, op)
    with tempfile.TemporaryDirectory() as tmp:
        config, mutated = Path(tmp) / "config.json", Path(tmp) / "field.json"
        config.write_text(json.dumps(BASE, indent=1))
        mutated.write_text(json.dumps(snap, indent=1))
        _assert_exit_code_contract(["levels", "--config", str(config), "--snapshot", str(mutated),
                                    "--out", str(Path(tmp) / "out")], snap)
