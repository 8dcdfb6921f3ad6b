"""The public surface: the export table, and how many values a caller can set."""

import dataclasses
import inspect
from importlib import import_module

import pytest

import convexring

# A change that adds a setting updates this pin and names, in CHANGES.md, the
# caller outside the tests that sets it to something other than its default.
SETTABLE_VALUES = 29


def _settable(obj) -> int:
    """Dataclass init fields with a default, or optional parameters of a
    callable; exceptions are not counted."""
    if inspect.isclass(obj) and issubclass(obj, BaseException):
        return 0
    if dataclasses.is_dataclass(obj):
        return sum(f.init and (f.default is not dataclasses.MISSING
                               or f.default_factory is not dataclasses.MISSING)
                   for f in dataclasses.fields(obj))
    if not callable(obj):
        return 0
    return sum(p.default is not inspect.Parameter.empty
               for p in inspect.signature(obj).parameters.values())


def test_settable_public_values_are_pinned():
    counts = {name: _settable(getattr(convexring, name)) for name in convexring.__all__}
    per_name = ", ".join(f"{name} {n}" for name, n in counts.items() if n)
    assert sum(counts.values()) == SETTABLE_VALUES, f"settable values per name: {per_name}"


def test_exports_come_from_one_table():
    assert set(convexring.__all__) == set(convexring._EXPORTS)
    assert set(convexring.__all__) <= set(dir(convexring))
    for name, home in convexring._EXPORTS.items():
        assert getattr(convexring, name) is getattr(import_module(f"convexring.{home}"), name)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from convexring import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(convexring.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        convexring.no_such_name  # noqa: B018
    assert not hasattr(convexring, "interpolate")
