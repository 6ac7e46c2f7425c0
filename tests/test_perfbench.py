"""The benchmark's layer tracer must find every function it wraps."""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    """The (module, function) pairs of TARGETS, read from the tracer's source."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no TARGETS")


def test_every_tracer_target_is_a_package_function():
    # The tracer skips a target the package no longer has, and its layer then
    # reads null: deleting or renaming one of these must fail here instead.
    targets = _tracer_targets()
    assert targets
    missing = [
        f"prtrack.{module}.{name}"
        for module, name in targets
        if not inspect.isfunction(getattr(importlib.import_module(f"prtrack.{module}"), name, None))
    ]
    assert missing == []
