"""Config validation, CLI behavior, file formats, and cross-command consistency."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prtrack import bbox, harness
from prtrack import tracker as tracker_module
from prtrack.errors import UsageError
from prtrack.gridmath import load_grid
from prtrack.tracker import Scenario, TrackerConfig
from prtrack.harness import (
    MODEL_ORDER,
    SCENARIO_PRESETS,
    RunConfig,
    load_config,
    main,
    resolve_scenario,
)

TINY_SUITE = {
    "suite": {
        "scenarios": [{"preset": "static", "num_frames": 10}],
        "repetitions": 1,
    }
}


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_defaults_without_config_file():
    cfg = load_config(None)
    assert cfg.scenarios == ("distractors", "distractors_occlusion")
    assert cfg.repetitions == 5
    assert cfg.sweep_parameter == "sigma_tc"
    assert cfg.sweep_values == (0.00015, 1.5, 15.0)
    assert cfg.tracker.loss_model == "kl"


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(UsageError, match="unknown key"):
        load_config(_write_config(tmp_path, {"sweeep": {}}))
    with pytest.raises(UsageError, match="unknown key"):
        load_config(_write_config(tmp_path, {"tracker": {"learning": 3}}))
    with pytest.raises(UsageError, match="unknown key"):
        load_config(
            _write_config(tmp_path, {"suite": {"scenarios": [{"blob": 2.0}]}})
        )


def test_config_rejects_bad_values(tmp_path):
    with pytest.raises(UsageError, match="unknown preset"):
        load_config(_write_config(tmp_path, {"suite": {"scenarios": ["statics"]}}))
    with pytest.raises(UsageError, match="repetitions"):
        load_config(_write_config(tmp_path, {"suite": {"repetitions": 0}}))
    with pytest.raises(UsageError, match="sweep.parameter"):
        load_config(_write_config(tmp_path, {"sweep": {"parameter": "tau"}}))
    with pytest.raises(UsageError, match="positive"):
        load_config(_write_config(tmp_path, {"sweep": {"values": [1.0, -2.0]}}))
    with pytest.raises(UsageError, match="nonempty"):
        load_config(_write_config(tmp_path, {"sweep": {"values": []}}))
    with pytest.raises(UsageError, match="bad tracker config"):
        load_config(_write_config(tmp_path, {"tracker": {"kernel_size": 4}}))


@pytest.mark.parametrize(
    "field,value",
    [("kernel_size", 5.5), ("init_iterations", 10.0), ("bb_epochs", True), ("refine_steps", "10")],
)
def test_cli_rejects_non_integer_tracker_fields(tmp_path, capsys, field, value):
    cfgpath = _write_config(tmp_path, {**TINY_SUITE, "tracker": {field: value}})
    assert main(["compare-losses", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{field} must be an integer" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "compare_losses.csv").exists()


def _expect_usage_exit(tmp_path, capsys, monkeypatch, payload, *messages):
    """compare-losses exits 2 with the messages before generating any sequence."""
    generated = []
    monkeypatch.setattr(harness, "generate_sequence", lambda *a: generated.append(a))
    cfgpath = _write_config(tmp_path, payload)
    assert main(["compare-losses", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    for message in messages:
        assert message in err
    assert "Traceback" not in err
    assert generated == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("num_frames", 10.5, "num_frames must be an integer"),
        ("height", 48.0, "height must be an integer"),
        ("width", True, "width must be an integer"),
        ("channels", "4", "channels must be an integer"),
        ("distractor_count", 1.5, "distractor_count must be an integer"),
        ("occlusions", [[1.5, 4]], "occlusion bound must be an integer"),
        ("occlusions", [[2, False]], "occlusion bound must be an integer"),
        ("occlusions", [[1, 2, 3]], "must be a (start, end) pair"),
        ("occlusions", 5, "bad scenario spec"),
        pytest.param("target_w", 10**400, "target_w is outside the floating-point range", id="target_w-huge"),
        ("velocity_x", math.inf, "velocity_x must be finite"),
        ("osc_period", math.nan, "osc_period must be finite"),
        ("noise_level", "x", "noise_level must be a real number"),
        ("distractor_similarity", None, "distractor_similarity must be a real number"),
    ],
)
def test_cli_rejects_bad_scenario_fields(tmp_path, capsys, monkeypatch, field, value, message):
    # The bad spec comes second, so a valid first cell would run if specs
    # were only resolved cell by cell.
    payload = {"suite": {"scenarios": ["static", {"preset": "static", field: value}]}}
    _expect_usage_exit(tmp_path, capsys, monkeypatch, payload, "suite.scenarios[1]", message)


@pytest.mark.parametrize(
    "payload,message",
    [
        ({"suite": {"scenarios": ["static"], "repetitions": True}}, "suite.repetitions"),
        ({"dump": {"frame_index": True}}, "dump.frame_index"),
        ({"dump": {"slice_cells": True}}, "dump.slice_cells"),
    ],
)
def test_cli_rejects_booleans_as_integers(tmp_path, capsys, monkeypatch, payload, message):
    _expect_usage_exit(tmp_path, capsys, monkeypatch, payload, message)


@pytest.mark.parametrize(
    "tracker,message",
    [
        ({"regularization": 0}, "regularization must be positive"),
        ({"regularization": -1e-3}, "regularization must be positive"),
        ({"init_iterations": -1}, "init solver: iterations must be nonnegative"),
        ({"online_iterations": -1}, "online solver: iterations must be nonnegative"),
    ],
)
def test_cli_rejects_bad_solver_settings(tmp_path, capsys, monkeypatch, tracker, message):
    payload = {**TINY_SUITE, "tracker": tracker}
    _expect_usage_exit(tmp_path, capsys, monkeypatch, payload, message)


@pytest.mark.parametrize(
    "tracker,message",
    [
        ({"refine_step": 0}, "box refinement: step_length must be positive"),
        ({"proposal_weights": [0.3, 0.3]}, "box proposal: component weights must be positive and sum to 1"),
        ({"proposal_sigmas": [0.05, -1]}, "box proposal: component sigmas must be positive"),
        ({"proposal_weights": [1.0]}, "box proposal: weights and sigmas must be 1D arrays of equal length"),
        ({"bb_samples": 1}, "bb_samples must be at least 2"),
        ({"bb_lr_decay": -1}, "box training: lr_decay must be nonnegative"),
        ({"scorer_tau": 1e200}, "scorer_tau must have a finite positive square, got 1e+200"),
        ({"scorer_tau": 1e-200}, "scorer_tau must have a finite positive square, got 1e-200"),
        ({"scorer_family": "rbf"}, "unknown key(s) ['scorer_family'] in tracker section"),
        ({"scorer_family": "quadratic"}, "unknown key(s) ['scorer_family'] in tracker section"),
    ],
)
def test_cli_rejects_bad_box_settings(tmp_path, capsys, monkeypatch, tracker, message):
    _expect_usage_exit(tmp_path, capsys, monkeypatch, {**TINY_SUITE, "tracker": tracker}, message)


@pytest.mark.parametrize(
    "payload,message",
    [
        ({"tracker": {"sigma_tc": 1e-300}}, "sigma_tc: Gaussian width 1e-300"),
        ({"tracker": {"sigma_tc": 1e-160}}, "sigma_tc: Gaussian width 1e-160"),
        ({"tracker": {"sigma_bb": 1e-100}}, "sigma_bb: Gaussian width 1e-100"),
        ({"tracker": {"sigma_tc_factor": 1e-300}}, "sigma_tc for a 6.0x6.0 target"),
        ({"sweep": {"parameter": "sigma_tc", "values": [1.5, 1e-300]}}, "sweep.values 1e-300"),
        ({"sweep": {"parameter": "sigma_bb", "values": [1e-100]}}, "sweep.values 1e-100"),
    ],
)
def test_cli_rejects_label_widths_without_finite_normalizer(tmp_path, capsys, monkeypatch, payload, message):
    _expect_usage_exit(tmp_path, capsys, monkeypatch, {**TINY_SUITE, **payload}, message, "normalizer")


def test_cli_rejects_non_finite_rl2_threshold(tmp_path, capsys, monkeypatch):
    payload = {**TINY_SUITE, "tracker": {"loss_model": "rl2", "rl2_threshold": math.nan}}
    _expect_usage_exit(tmp_path, capsys, monkeypatch, payload, "rl2_threshold must be finite")


@pytest.mark.parametrize(
    "tracker,message",
    [
        ({"miss_threshold_mass": "x"}, "miss_threshold_mass must be a real number"),
        ({"miss_threshold_score": None}, "miss_threshold_score must be a real number"),
        ({"sigma_bb": True}, "sigma_bb must be a real number"),
        ({"sigma_tc": "1.5"}, "sigma_tc must be a real number"),
        ({"search_scale": [5.0]}, "search_scale must be a real number"),
        ({"gamma_decay": False}, "gamma_decay must be a real number"),
        ({"refine_tol": 10**400}, "refine_tol is outside the floating-point range"),
        ({"proposal_sigmas": [0.05, 10**400]}, "tracker.proposal_sigmas is outside the floating-point range"),
        ({"augment": "no"}, "augment must be a boolean"),
        ({"subcell": 0}, "subcell must be a boolean"),
        ({"bb_learning_rate": math.inf}, "box training: learning_rate must be positive and finite"),
        ({"bb_lr_decay": math.nan}, "box training: lr_decay must be nonnegative and finite"),
        ({"bb_lr_decay": math.inf}, "box training: lr_decay must be nonnegative and finite"),
        ({"miss_threshold_mass": math.nan}, "miss_threshold_mass must be in [0, 1]"),
        ({"miss_threshold_mass": 1.5}, "miss_threshold_mass must be in [0, 1]"),
        ({"miss_threshold_mass": -0.1}, "miss_threshold_mass must be in [0, 1]"),
        ({"miss_threshold_score": math.inf}, "miss_threshold_score must be finite"),
        ({"miss_threshold_score": -math.inf}, "miss_threshold_score must be finite"),
        (5, "tracker must be an object"),
        ("kl", "tracker must be an object"),
        (None, "tracker must be an object"),
        ([], "tracker must be an object"),
    ],
)
def test_cli_rejects_mistyped_tracker_fields(tmp_path, capsys, monkeypatch, tracker, message):
    _expect_usage_exit(tmp_path, capsys, monkeypatch, {**TINY_SUITE, "tracker": tracker}, message)


@pytest.mark.parametrize(
    "payload,message",
    [
        ({"tracker": {"search_scale": 1e9}}, "search region for a 6.0x6.0 target: a 4x6000000001x6000000001 crop"),
        ({"tracker": {"search_scale": math.inf}}, "search region for a 6.0x6.0 target: search region inf"),
        ({"tracker": {"kernel_size": 2049}}, "a 4x2049x2049 crop has 16793604 cells, over 4194304"),
        (
            {"track": {"scenario": {"preset": "static", "target_w": 1e6, "target_h": 1e6}}},
            "search region for a 1000000.0x1000000.0 target",
        ),
        (
            {"dump": {"scenario": {"preset": "static", "channels": 4400}}},
            "a 4400x31x31 crop has 4228400 cells, over 4194304",
        ),
    ],
)
def test_cli_bounds_the_search_region_at_load(tmp_path, capsys, monkeypatch, payload, message):
    _expect_usage_exit(tmp_path, capsys, monkeypatch, {**TINY_SUITE, **payload}, message)


@pytest.mark.parametrize(
    "payload,message",
    [
        (
            {"suite": {"scenarios": [{"preset": "static", "height": 1000000, "width": 1000000}]}},
            "suite.scenarios[0]: num_frames x channels x height x width = 100x4x1000000x1000000",
        ),
        (
            {"track": {"scenario": {"preset": "static", "num_frames": 2**20 + 1, "channels": 1, "height": 32, "width": 32}}},
            "track.scenario: num_frames x channels x height x width = 1048577x1x32x32 = 1073742848 cells, over 1073741824",
        ),
        ({"tracker": {"bb_samples": 10**12}}, "tracker.bb_samples must be at most 1048576, got 1000000000000"),
        ({"tracker": {"bb_samples": 2**20 + 1}}, "tracker.bb_samples must be at most 1048576"),
        (
            {"suite": {"scenarios": [{"preset": "static", "num_frames": 2}], "repetitions": 10**8}},
            "suite.repetitions: 1 scenarios x 100000000 repetitions = 100000000 cells, over 65536",
        ),
        (
            {"suite": {"scenarios": ["static", "drift"], "repetitions": 2**15 + 1}},
            "suite.repetitions: 2 scenarios x 32769 repetitions",
        ),
        (
            {"dump": {"scenario": {"preset": "static", "num_frames": 6}, "slice_cells": 1000001}},
            "dump.slice_cells: a 1000001x1000001 slice has 1000002000001 cells, over 4194304",
        ),
        ({"dump": {"slice_cells": 2049}}, "dump.slice_cells: a 2049x2049 slice"),
    ],
)
def test_cli_bounds_sequence_and_proposal_sizes_at_load(tmp_path, capsys, monkeypatch, payload, message):
    _expect_usage_exit(tmp_path, capsys, monkeypatch, {**TINY_SUITE, **payload}, message)


def test_sequence_and_proposal_sizes_at_their_bounds_load(tmp_path):
    scenario = {"preset": "static", "num_frames": 2**20, "channels": 1, "height": 32, "width": 32}
    payload = {"track": {"scenario": scenario}, "tracker": {"bb_samples": 2**20}}
    cfg = load_config(_write_config(tmp_path, payload))
    assert cfg.track_scenario["num_frames"] * 32 * 32 == harness.MAX_SEQUENCE_CELLS
    assert cfg.tracker.bb_samples == harness.MAX_BOX_SAMPLES


def test_suite_cells_and_dump_slice_at_their_bounds_load(tmp_path):
    payload = {
        "suite": {"scenarios": ["static", "drift"], "repetitions": 2**15},
        "dump": {"slice_cells": 2047},
    }
    cfg = load_config(_write_config(tmp_path, payload))
    assert len(cfg.scenarios) * cfg.repetitions == harness.MAX_SUITE_CELLS
    assert cfg.dump_slice_cells**2 <= harness.MAX_CROP_CELLS < (cfg.dump_slice_cells + 2) ** 2


def test_search_region_just_under_the_bound_loads(tmp_path):
    payload = {"dump": {"scenario": {"preset": "static", "channels": 4000}}}  # 3,844,000 cells
    assert load_config(_write_config(tmp_path, payload)).dump_scenario["channels"] == 4000


def test_dump_frame_is_checked_against_the_dump_scenario(tmp_path):
    short = {"preset": "static", "num_frames": 3}
    payload = {
        "suite": {"scenarios": [short]},
        "track": {"scenario": short},
        "dump": {"frame_index": 50},  # of the 100-frame default static scenario
    }
    assert load_config(_write_config(tmp_path, payload)).dump_frame_index == 50
    payload = {"suite": {"scenarios": ["static"]}, "dump": {"scenario": short, "frame_index": 3}}
    with pytest.raises(UsageError, match="dump.frame_index 3 out of range for 3 frames"):
        load_config(_write_config(tmp_path, payload))


def test_every_config_field_annotation_has_a_check():
    for config in (TrackerConfig, Scenario, RunConfig):
        for field in dataclasses.fields(config):
            assert field.type in tracker_module._FIELD_CHECKS, (config.__name__, field.name)

    @dataclasses.dataclass(frozen=True)
    class Unlisted:
        sizes: "tuple[int, ...]" = ()

    message = r"Unlisted.sizes: no check for annotation 'tuple\[int, \.\.\.\]'"
    with pytest.raises(TypeError, match=message):
        tracker_module._check_fields(Unlisted())


# JSON integers are unbounded; these straddle the largest finite float.
_HUGE_INTS = st.integers(min_value=2**1020, max_value=2**1030)
_TRACKER_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(),
    _HUGE_INTS,
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=1e-3, max_value=20.0),
    st.sampled_from(["kl", "nll", "l2", "rl2", "auto", "mass", "score", "fit", "train", "quadratic", "huber", "x"]),
    st.lists(st.one_of(st.floats(allow_nan=True), st.integers(), _HUGE_INTS, st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(harness._TRACKER_FIELDS)), _TRACKER_VALUES, max_size=4))
def test_load_config_returns_or_raises_usage_error(tmp_path_factory, tracker):
    # Any tracker section either loads or is rejected as bad usage; nothing
    # else escapes load_config.
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps({"tracker": tracker}))
    try:
        load_config(str(path))
    except UsageError:
        pass


# Whole-config strategies, derived from the fields of TrackerConfig, Scenario
# and RunConfig: each key draws a well-typed value for its annotation, a
# mistyped one or an edge value.
_EDGE = st.sampled_from([0, -1, math.nan, math.inf, -math.inf, 2**1030, True, False, "x", [], [0.5], None])
_STRINGS = st.sampled_from(["kl", "nll", "l2", "rl2", "auto", "mass", "score", "fit", "train", "sigma_tc", "sigma_bb", "x"])
_FIELDS = {cls: {f.name: f for f in dataclasses.fields(cls)} for cls in (TrackerConfig, Scenario, RunConfig)}
_PRESETS = st.sampled_from([*SCENARIO_PRESETS, "nope"])


def _typed(annotation, ints):
    return {
        "int": ints,
        "float": st.floats(min_value=1e-3, max_value=10.0),
        "float | None": st.none() | st.floats(min_value=1e-3, max_value=10.0),
        "bool": st.booleans(),
        "str": _STRINGS,
        "tuple[float, ...]": st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=3),
        "tuple[tuple[int, int], ...]": st.lists(st.lists(ints, min_size=2, max_size=2), max_size=2),
    }[annotation]


def _mostly(common, rare, odds=4):
    """common, drawn odds times as often as rare."""
    return st.sampled_from([common] * odds + [rare]).flatmap(lambda s: s)


def _config_strategy(caps=None):
    """Configs with all five sections, keyed by the config dataclasses' fields.

    Each key mostly keeps its default or draws a well-typed value, else an
    edge value, and a section sets at most six optional keys.  Without caps,
    integers are unbounded, and a section, a scenario list or a spec may be
    a non-object.  With caps (runnable configs), mistyped integers are never
    huge, a section sets at most three optional keys, the suite is one
    scenario object run once, the track section always names its scenario
    object, and the fields named in caps are always set,
    to integers in [2, caps[field]]; others lie in [-1, 8].
    """

    def value(cls, name):
        field = _FIELDS[cls][name]
        if caps and name in caps:
            return st.integers(min_value=2, max_value=caps[name])
        ints = st.integers(min_value=-1, max_value=8) if caps else st.integers(min_value=-2, max_value=64) | st.integers()
        edge = st.sampled_from([1.5, math.nan, True, "x", None]) if caps and field.type == "int" else _EDGE
        common = st.sampled_from([st.just(field.default), _typed(field.type, ints)]).flatmap(lambda s: s)
        return _mostly(common, edge)

    def keys(strategies, required=()):
        optional = [name for name in strategies if name not in required]
        chosen = st.lists(st.sampled_from(optional), max_size=3 if caps else 6, unique=True) if optional else st.just([])
        return chosen.flatmap(lambda names: st.fixed_dictionaries({n: strategies[n] for n in (*required, *names)}))

    scenario = {name: value(Scenario, name) for name in _FIELDS[Scenario] if name != "seed"}
    spec = keys({**scenario, "preset": _mostly(_PRESETS, _EDGE)}, ["num_frames"] if caps else ())
    specs = st.lists(spec, min_size=1, max_size=1)
    if caps is None:
        spec = _mostly(spec | _PRESETS, _EDGE)
        specs = _mostly(st.lists(spec, max_size=3), _EDGE)
    run_fields = {"scenarios": specs, "track_scenario": spec, "dump_scenario": spec}
    if caps:
        run_fields["repetitions"] = st.just(1)
    tracker = {name: value(TrackerConfig, name) for name in _FIELDS[TrackerConfig]}
    sections = {"tracker": keys(tracker, [name for name in caps or () if name in tracker])}
    required = {"suite": ["scenarios", "repetitions"], "track": ["scenario"]} if caps else {}
    for section, table in harness._SECTIONS.items():
        fields = {key: run_fields[field] if field in run_fields else value(RunConfig, field) for key, field in table.items()}
        sections[section] = keys(fields, required.get(section, ()))
    if caps is None:
        sections = {section: _mostly(body, _EDGE, odds=9) for section, body in sections.items()}
    return st.fixed_dictionaries(sections)


def _keys(node):
    if isinstance(node, dict):
        return set(node).union(*map(_keys, node.values()))
    if isinstance(node, list):
        return set().union(*map(_keys, node))
    return set()


@settings(max_examples=200, deadline=None)
@given(_config_strategy())
def test_whole_configs_load_or_name_what_is_wrong(tmp_path_factory, config):
    # Every section is drawn; a rejection names a section or key of the config.
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(config))
    try:
        load_config(str(path))
    except UsageError as exc:
        assert any(name in str(exc) for name in _keys(config)), (str(exc), config)


# The settings that make a run costly; the fuzzed runs keep them small.
_RUN_CAPS = {"num_frames": 4, "init_iterations": 3, "bb_epochs": 3, "bb_samples": 24}


def _runs_or_exits_cleanly(tmp_path_factory, command, config):
    # A config either runs, is rejected at load (exit 2), or fails as a
    # numeric failure (exit 1); no other exception reaches the caller.
    path = tmp_path_factory.mktemp("fuzzrun") / "config.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main([command, "--config", str(path), "--out", str(path.parent / "o")])
    assert code == 0 or code == 2 or (code == 1 and err.getvalue().startswith("numeric failure:")), (code, err.getvalue(), config)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=120, deadline=None)
@given(_config_strategy(_RUN_CAPS))
def test_whole_configs_run_or_exit_cleanly(tmp_path_factory, config):
    _runs_or_exits_cleanly(tmp_path_factory, "compare-losses", config)


@pytest.mark.parametrize("command", ["sigma-sweep", "track"])
@settings(max_examples=120, deadline=None)
@given(_config_strategy(_RUN_CAPS))
def test_whole_configs_run_or_exit_cleanly_in_other_commands(tmp_path_factory, command, config):
    _runs_or_exits_cleanly(tmp_path_factory, command, config)


def test_config_io_failures(tmp_path):
    with pytest.raises(UsageError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(UsageError, match="not valid JSON"):
        load_config(str(bad))
    root = tmp_path / "list.json"
    root.write_text("[1, 2]")
    with pytest.raises(UsageError, match="root"):
        load_config(str(root))


def test_resolve_scenario_presets_and_overrides():
    for name in SCENARIO_PRESETS:
        scenario = resolve_scenario(name, seed=9)
        assert scenario.seed == 9
        assert scenario.name == name
    merged = resolve_scenario({"preset": "static", "num_frames": 12}, seed=4)
    assert merged.num_frames == 12
    assert merged.start_x == SCENARIO_PRESETS["static"]["start_x"]
    with pytest.raises(UsageError, match="bad scenario"):
        resolve_scenario({"num_frames": 0}, seed=1)


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["compare-losses", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err
    cfgpath = _write_config(tmp_path, TINY_SUITE)
    assert main(["compare-losses", "--config", cfgpath, "--jobs", "0"]) == 2
    capsys.readouterr()
    assert main(["compare-losses", "--config", cfgpath, "--seed", "-5"]) == 2
    err = capsys.readouterr().err
    assert "--seed must be nonnegative, got -5" in err
    assert "Traceback" not in err


def test_cli_diverging_box_training_is_a_numeric_failure(tmp_path, capsys):
    # Steps this long overflow the quadratic scorers' centers within a few
    # epochs; the run stops with exit 1 and names the model and the epoch.
    # That line is all it prints: no NumPy overflow warning goes to stderr.
    tracker = {"bb_learning_rate": 1e300}
    payload = {"suite": {"scenarios": [{"preset": "static", "num_frames": 6}], "repetitions": 1}, "tracker": tracker}
    cfgpath = _write_config(tmp_path, payload)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["compare-losses", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert re.fullmatch(r"numeric failure: non-finite (l2|rl2|nll|kl) training loss at epoch \d+\n", err), err


def test_cli_box_refinement_beyond_the_float_range_is_a_numeric_failure(tmp_path, capsys):
    # This training ends with finite scorers whose optimum lies at a log box
    # size beyond the float range; refinement climbs there on the first
    # tracked frame.
    tracker = {"bb_learning_rate": 1, "proposal_weights": [1], "proposal_sigmas": [1]}
    payload = {"suite": {"scenarios": [{"preset": "static", "num_frames": 4}], "repetitions": 1}, "tracker": tracker}
    cfgpath = _write_config(tmp_path, payload)
    assert main(["compare-losses", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "numeric failure: box refinement at frame 1: decoded box size is not positive and finite\n", err


def test_selftest_prints_one_line_per_check(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "SELFTEST OK"
    assert all(line.startswith("PASS") for line in out[:-1])
    assert len(out) >= 5


# ---------------------------------------------------------------------------
# compare-losses
# ---------------------------------------------------------------------------


def test_compare_losses_static_suite(tmp_path, capsys):
    cfgpath = _write_config(tmp_path, TINY_SUITE)
    out = tmp_path / "run1"
    assert main(["compare-losses", "--config", cfgpath, "--seed", "3", "--out", str(out)]) == 0
    rows = _read_csv(out / "compare_losses.csv")
    assert rows[0] == ["model", "auc", "op_0.50", "op_0.75"]
    assert [r[0] for r in rows[1:]] == list(MODEL_ORDER)
    aucs = [float(r[1]) for r in rows[1:]]
    # A static noiseless scene cannot separate the objectives.
    assert max(aucs) - min(aucs) <= 1e-9

    out2 = tmp_path / "run2"
    assert main(["compare-losses", "--config", cfgpath, "--seed", "3", "--out", str(out2)]) == 0
    assert (out / "compare_losses.csv").read_bytes() == (out2 / "compare_losses.csv").read_bytes()


# Digest of compare_losses.csv for one 20-frame distractors cell at seed 1,
# taken from the einsum-based correlation that the column-matrix product
# replaced: the rewrite must reproduce the CSV byte for byte.
GOLDEN_SUITE = {
    "suite": {
        "scenarios": [{"preset": "distractors", "num_frames": 20}],
        "repetitions": 1,
    }
}
GOLDEN_SHA256 = "2fda11bc54b6954571a141d250db0637468cd3f1bad5d2e606080c41a34b699e"


def test_compare_losses_golden_digest(tmp_path):
    cfgpath = _write_config(tmp_path, GOLDEN_SUITE)
    out = tmp_path / "out"
    assert main(["compare-losses", "--config", cfgpath, "--seed", "1", "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "compare_losses.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256


# The inputs of the benchmark's init-burst workload (perfbench/run.py): both
# suite presets cut to 8 frames, 15 repetitions, one job.  Box-scorer training
# dominates them, so their pinned seed-1 digest checks that every scorer still
# trains bit for bit as it did when the digests were taken.
INIT_BURST_SUITE = {
    "suite": {
        "scenarios": [{"preset": name, "num_frames": 8} for name in ("distractors", "distractors_occlusion")],
        "repetitions": 15,
    }
}
PINNED_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "csv_digests.json"


def test_compare_losses_matches_the_pinned_init_burst_digest(tmp_path):
    pinned = json.loads(PINNED_DIGESTS.read_text())["init-burst"]["1"]
    cfgpath = _write_config(tmp_path, INIT_BURST_SUITE)
    out = tmp_path / "out"
    assert main(["compare-losses", "--config", cfgpath, "--seed", "1", "--jobs", "1", "--out", str(out)]) == 0
    assert hashlib.sha256((out / "compare_losses.csv").read_bytes()).hexdigest() == pinned


# The inputs of the benchmark's suite-j1 workload: both suite presets at their
# full 60 frames, 5 repetitions, one job.  The online kernel solve dominates
# them, so their pinned seed-1 digest checks that every solve still runs bit
# for bit as it did when the digests were taken.
HEADLINE_SUITE = {"suite": {"scenarios": ["distractors", "distractors_occlusion"], "repetitions": 5}}


def test_compare_losses_matches_the_pinned_headline_digest(tmp_path):
    pinned = json.loads(PINNED_DIGESTS.read_text())["suite"]["1"]
    cfgpath = _write_config(tmp_path, HEADLINE_SUITE)
    out = tmp_path / "out"
    assert main(["compare-losses", "--config", cfgpath, "--seed", "1", "--jobs", "1", "--out", str(out)]) == 0
    assert hashlib.sha256((out / "compare_losses.csv").read_bytes()).hexdigest() == pinned


SMALL_SUITE = {
    "suite": {
        "scenarios": [
            {"preset": "distractors", "num_frames": 9},
            {"preset": "distractors_occlusion", "num_frames": 9},
        ],
        "repetitions": 2,
    },
    "tracker": {"bb_epochs": 40, "bb_samples": 128},
    "sweep": {"parameter": "sigma_bb", "values": [0.2, 0.05, 0.1]},
}


@pytest.mark.parametrize("command,name", [("compare-losses", "compare_losses.csv"), ("sigma-sweep", "sigma_sweep.csv")])
def test_suite_csv_is_independent_of_jobs(tmp_path, command, name):
    cfgpath = _write_config(tmp_path, SMALL_SUITE)
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main([command, "--config", cfgpath, "--seed", "4", "--jobs", jobs, "--out", str(out)]) == 0
        outputs.append((out / name).read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command,configs", [("compare-losses", len(MODEL_ORDER)), ("sigma-sweep", 3)])
def test_suite_renders_and_draws_once_per_cell(tmp_path, monkeypatch, command, configs):
    # One rendered sequence and one proposal stream per (scenario, repetition)
    # cell, shared by every tracker config; one tracked run per config.
    calls = {"generate": 0, "sample": 0, "cells": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(harness, "generate_sequence", counting("generate", harness.generate_sequence))
    monkeypatch.setattr(bbox, "proposal_sample", counting("sample", bbox.proposal_sample))
    monkeypatch.setattr(harness, "_run_cell", counting("cells", harness._run_cell))
    cfgpath = _write_config(tmp_path, SMALL_SUITE)
    assert main([command, "--config", cfgpath, "--seed", "4", "--out", str(tmp_path / "o")]) == 0
    cells = 2 * 2
    assert calls == {"generate": cells, "sample": cells * 40, "cells": cells * configs}


# ---------------------------------------------------------------------------
# sigma-sweep
# ---------------------------------------------------------------------------


def test_sweep_at_default_sigma_matches_compare_row(tmp_path):
    payload = dict(TINY_SUITE)
    payload["sweep"] = {"parameter": "sigma_tc", "values": [1.5]}
    cfgpath = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["compare-losses", "--config", cfgpath, "--seed", "5", "--out", str(out)]) == 0
    assert main(["sigma-sweep", "--config", cfgpath, "--seed", "5", "--out", str(out)]) == 0
    compare = {r[0]: r[1] for r in _read_csv(out / "compare_losses.csv")[1:]}
    sweep = _read_csv(out / "sigma_sweep.csv")
    assert sweep[0] == ["sigma", "auc"]
    assert len(sweep) == 2
    # 1.5 is exactly what the factor rule resolves to for the 6x6 target,
    # so the sweep cell and the comparison's kl cell are the same pipeline.
    assert float(sweep[1][0]) == 1.5
    assert sweep[1][1] == compare["kl"]


# ---------------------------------------------------------------------------
# track
# ---------------------------------------------------------------------------


def test_track_writes_trace_and_metrics(tmp_path):
    payload = {"track": {"scenario": {"preset": "static", "num_frames": 12}}}
    cfgpath = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["track", "--config", cfgpath, "--seed", "2", "--out", str(out)]) == 0
    trace = _read_csv(out / "track_trace.csv")
    assert trace[0] == ["frame", "cx", "cy", "w", "h", "iou", "missing", "peak_mass"]
    assert len(trace) == 13
    ious = [float(r[5]) for r in trace[1:]]
    assert min(ious) >= 0.99
    metrics = _read_csv(out / "track_metrics.csv")
    assert metrics[0] == ["auc", "op_0.50", "op_0.75"]
    auc = float(metrics[1][0])
    assert 0.0 <= auc <= 1.0


# ---------------------------------------------------------------------------
# dump-density
# ---------------------------------------------------------------------------


def _argmax_cell(grid):
    flat = int(np.argmax(grid.values))
    return flat // grid.width, flat % grid.width


def test_dump_density_grids(tmp_path):
    payload = {"dump": {"scenario": {"preset": "static", "num_frames": 10}, "frame_index": 5}}
    cfgpath = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["dump-density", "--config", cfgpath, "--seed", "2", "--out", str(out)]) == 0

    center = load_grid(out / "center_density_f5.txt")
    # Static target: the stage-1 density peaks at the middle of the crop.
    region = center.height
    assert _argmax_cell(center) == (region // 2, region // 2)

    for name in ("bb_center_slice_f5.txt", "bb_size_slice_f5.txt"):
        grid = load_grid(out / name)
        n = grid.height
        mid = (n - 1) // 2
        assert _argmax_cell(grid) == (mid, mid)
        row = grid.values[mid]
        # Unimodal slice: strictly falling away from the analytic optimum.
        assert np.all(np.diff(row[: mid + 1]) > 0)
        assert np.all(np.diff(row[mid:]) < 0)

    out2 = tmp_path / "out2"
    assert main(["dump-density", "--config", cfgpath, "--seed", "2", "--out", str(out2)]) == 0
    for name in ("center_density_f5.txt", "bb_center_slice_f5.txt", "bb_size_slice_f5.txt"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_dump_frame_out_of_range(tmp_path, capsys, monkeypatch):
    generated = []
    monkeypatch.setattr(harness, "generate_sequence", lambda *a: generated.append(a))
    payload = {"dump": {"scenario": {"preset": "static", "num_frames": 10}, "frame_index": 10}}
    cfgpath = _write_config(tmp_path, payload)
    assert main(["dump-density", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 2
    assert "out of range" in capsys.readouterr().err
    # The frame index is checked at load, before any sequence is rendered.
    assert generated == []
