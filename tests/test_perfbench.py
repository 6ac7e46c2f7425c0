"""The benchmark's layer tracer must find every function it wraps, on the path the tracker takes."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np

import prtrack
from prtrack.tracker import Scenario, TrackerConfig, generate_sequence, run_sequence

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


# The traced layers this test pins to the tracked-frame path, by the count of
# calls each makes over a short sequence.
HOT_PATH = (("gridmath", "conv_apply"), ("bbox", "refine_box"), ("center_optimizer", "optimize"))


def test_tracked_frames_go_through_the_traced_layers(monkeypatch):
    # A refactor that bypasses a traced function leaves its layer null in
    # the benchmark; here it changes a count instead.  Each function is
    # wrapped wherever the package holds it, as the tracer does.
    assert set(HOT_PATH) <= set(_tracer_targets())
    modules = [importlib.import_module(f"prtrack.{info.name}") for info in pkgutil.iter_modules(prtrack.__path__)]
    calls = {}
    for module_name, name in HOT_PATH:
        original = getattr(importlib.import_module(f"prtrack.{module_name}"), name)
        calls[name] = 0

        def counting(*args, _fn=original, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    # Frames 7-9 are occluded and missed, and frame 8 is an update frame.
    scenario = Scenario(
        num_frames=16, start_x=20.0, start_y=20.0, velocity_x=0.2, noise_level=0.05, occlusions=((7, 10),)
    )
    cfg = TrackerConfig(update_interval=2)
    run = run_sequence(generate_sequence(scenario), cfg, np.random.Generator(np.random.PCG64(97)))
    tracked = range(1, scenario.num_frames)
    assert [t for t in tracked if run.missing[t]] == [7, 8, 9]
    assert calls["conv_apply"] == len(tracked)
    assert calls["refine_box"] == sum(not run.missing[t] for t in tracked)
    # One solve in track_init, then one per update frame that is not missed.
    assert calls["optimize"] == 1 + sum(not run.missing[t] and t % cfg.update_interval == 0 for t in tracked)
