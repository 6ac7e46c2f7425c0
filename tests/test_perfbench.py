"""The benchmark's layer tracer must find every function it wraps, on the path the tracker takes."""

import ast
import importlib
import inspect
import json
import math
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import prtrack
from prtrack.tracker import Scenario, TrackerConfig, generate_sequence, init_scorers, run_sequence

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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
    [[scorer]] = init_scorers([cfg], [(scenario.target_box(0), np.random.Generator(np.random.PCG64(97)))])
    run = run_sequence(generate_sequence(scenario), scenario.target_box(0), cfg, scorer)
    tracked = range(1, scenario.num_frames)
    assert [t for t in tracked if run.missing[t]] == [7, 8, 9]
    assert calls["conv_apply"] == len(tracked)
    assert calls["refine_box"] == sum(not run.missing[t] for t in tracked)
    # One solve in track_init, then one per update frame that is not missed.
    assert calls["optimize"] == 1 + sum(not run.missing[t] and t % cfg.update_interval == 0 for t in tracked)


# A traced compare-losses run in a fresh interpreter, as the benchmark's child
# runs it: argv is the perfbench directory, the source directory, the config
# and the output directory.  It prints the layer metrics as its last line.
_TRACED_RUN = """
import json, sys
perfbench, src, config, out = sys.argv[1:]
sys.path[:0] = [perfbench, src]
import prtrack.harness as harness
import tracer
modules = {name.split(".", 1)[1]: m for name, m in sys.modules.items() if name.startswith("prtrack.")}
spans = tracer.Tracer()
spans.install(modules)
rc = spans.run_root(harness.main, ["compare-losses", "--jobs", "1", "--config", config, "--out", out])
print(json.dumps({"rc": rc, "layers": tracer.layer_metrics(spans.spans, 1, 4, 28)[0]}))
"""


def test_a_traced_suite_measures_every_layer(tmp_path):
    # One cell of 8 frames, tracked by the four loss models: 4 cells, 4
    # track_init and 4 x 7 track_step spans.  The tracer reports a layer it
    # could not measure as null, so every metric must come out a number.
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "suite": {"scenarios": [{"preset": "distractors", "num_frames": 8}], "repetitions": 1},
                "tracker": {"bb_epochs": 6, "bb_samples": 16},
            }
        )
    )
    argv = [str(ROOT / "perfbench"), str(ROOT / "src"), str(config), str(tmp_path / "o")]
    done = subprocess.run(
        [sys.executable, "-B", "-c", _TRACED_RUN, *argv], capture_output=True, text=True, check=True, timeout=120
    )
    result = json.loads(done.stdout.splitlines()[-1])
    layers = result["layers"]
    assert result["rc"] == 0
    assert len(layers) == 41
    assert {k: v for k, v in layers.items() if not (isinstance(v, (int, float)) and math.isfinite(v))} == {}
    assert layers["harness.cells"] == 4
