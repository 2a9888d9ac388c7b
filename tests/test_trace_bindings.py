"""The bindings ``perfbench/tracing.py`` wraps must exist.

The benchmark's ``--trace 1`` replaces each ``(span, "module[:Class]",
attribute)`` binding it lists with a timing wrapper, looking it up as
``owner.__dict__[attribute]``. A refactor that renames or moves one of
those functions breaks the traced run with a ``KeyError``; this test
fails first. The tracing module is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()
POINTS = [
    (group, point)
    for group in ("REORDER_POINTS", "QUERY_POINTS", "SERVER_POINTS")
    for point in getattr(_tracing, group)
]


@pytest.mark.parametrize(
    "group, point", POINTS, ids=[f"{g}:{p[1]}.{p[2]}" for g, p in POINTS]
)
def test_binding_resolves(group, point):
    _span, target, attribute = point
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    assert attribute in owner.__dict__, f"{group}: {target} has no {attribute}"
    assert callable(owner.__dict__[attribute]) or isinstance(
        owner.__dict__[attribute], (classmethod, staticmethod)
    )
