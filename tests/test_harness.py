"""Config validation, CLI behavior, file formats, and cross-command consistency."""

import concurrent.futures
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from concurrent.futures import Future
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prtrack import bbox, harness
from prtrack import tracker as tracker_module
from prtrack.errors import UsageError
from prtrack.losses import LOSS_MODELS
from prtrack.tracker import Scenario, TrackerConfig
from prtrack.harness import (
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
    # The miss gate follows the loss family; no key chooses it.
    with pytest.raises(UsageError, match=r"unknown key\(s\) \['miss_mode'\] in tracker section"):
        load_config(_write_config(tmp_path, {"tracker": {"miss_mode": "mass"}}))
    with pytest.raises(UsageError, match="unknown key"):
        load_config(
            _write_config(tmp_path, {"suite": {"scenarios": [{"blob": 2.0}]}})
        )
    # A scenario has no name field: nothing read it.
    with pytest.raises(UsageError, match=r"unknown key\(s\) \['name'\] in scenario spec"):
        load_config(_write_config(tmp_path, {"track": {"scenario": {"preset": "static", "name": "mine"}}}))


def test_config_rejects_bad_values(tmp_path):
    with pytest.raises(UsageError, match="unknown preset"):
        load_config(_write_config(tmp_path, {"suite": {"scenarios": ["statics"]}}))
    with pytest.raises(UsageError, match="repetitions"):
        load_config(_write_config(tmp_path, {"suite": {"repetitions": 0}}))
    with pytest.raises(UsageError, match="sweep.parameter"):
        load_config(_write_config(tmp_path, {"sweep": {"parameter": "tau"}}))
    with pytest.raises(UsageError, match="sweep.values must be positive, got -2.0"):
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
        ("blob_radius", -2.0, "blob_radius must be positive"),
        ("noise_level", "x", "noise_level must be a real number"),
        ("distractor_similarity", None, "distractor_similarity must be a real number"),
        pytest.param("num_frames", 2**1030, "num_frames must be at most 1073741824, got 1150", id="num_frames-huge"),
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
        ({"init_iterations": -1}, "tracker.init_iterations must be at least 0, got -1"),
        ({"online_iterations": -1}, "tracker.online_iterations must be at least 0, got -1"),
        ({"init_iterations": 1001}, "tracker.init_iterations must be at most 1000, got 1001"),
        ({"online_iterations": 100000000}, "tracker.online_iterations must be at most 1000, got 100000000"),
    ],
)
def test_cli_rejects_bad_solver_settings(tmp_path, capsys, monkeypatch, tracker, message):
    payload = {**TINY_SUITE, "tracker": tracker}
    _expect_usage_exit(tmp_path, capsys, monkeypatch, payload, message)


@pytest.mark.parametrize(
    "tracker,message",
    [
        ({"refine_step": 0}, "tracker.refine_step must be positive, got 0.0"),
        ({"proposal_weights": [0.3, 0.3]}, "box proposal: component weights must be positive and sum to 1"),
        ({"proposal_sigmas": [0.05, -1]}, "box proposal: component sigmas must be positive"),
        ({"proposal_weights": [1.0]}, "box proposal: weights and sigmas must be 1D arrays of equal length"),
        ({"bb_samples": 1}, "bb_samples must be at least 2"),
        ({"bb_lr_decay": -1}, "tracker.bb_lr_decay must be at least 0, got -1.0"),
        ({"scorer_tau": 1e200}, "scorer_tau must have a finite positive square, got 1e+200"),
        ({"scorer_tau": 1e-200}, "scorer_tau must have a finite positive square, got 1e-200"),
        ({"scorer_family": "rbf"}, "unknown key(s) ['scorer_family'] in tracker section"),
        ({"scorer_family": "quadratic"}, "unknown key(s) ['scorer_family'] in tracker section"),
        (
            {"bb_epochs": 100000000},
            "tracker.bb_epochs: 100000000 epochs x 768 bb_samples = 76800000000 box-training draws, over 157286400",
        ),
        ({"bb_epochs": 151, "bb_samples": 2**20}, "tracker.bb_epochs: 151 epochs x 1048576 bb_samples"),
        ({"refine_steps": 1001}, "tracker.refine_steps must be at most 1000, got 1001"),
        (
            {"refine_steps": 1000000000, "refine_step": 0.08, "scorer_init": "train"},
            "tracker.refine_steps must be at most 1000, got 1000000000",
        ),
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


def test_cli_bounds_the_box_training_rows_of_a_sweep(tmp_path, capsys, monkeypatch):
    # A training block holds one score row per swept value and draw of its
    # batch; the most that loads holds MAX_TRAINING_ROWS, and one value more
    # exits 2 before any sequence is rendered.
    batch = max(TrackerConfig().bb_samples, bbox._GROUP_DRAWS)
    n = harness.MAX_TRAINING_ROWS // batch
    at_bound = _write_config(tmp_path, {"sweep": {"parameter": "sigma_bb", "values": [0.05] * n}}, "at_bound.json")
    assert len(load_config(at_bound).sweep_values) == n
    generated = []
    monkeypatch.setattr(harness, "generate_sequence", lambda *a: generated.append(a))
    over = _write_config(tmp_path, {**TINY_SUITE, "sweep": {"parameter": "sigma_bb", "values": [0.05] * (n + 1)}})
    assert main(["sigma-sweep", "--config", over, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"sweep.values: {n + 1} values x {batch} draws per batch = {(n + 1) * batch} box-training rows" in err
    assert "Traceback" not in err
    assert generated == []


@pytest.mark.parametrize("command", ["track", "compare-losses"])
@pytest.mark.parametrize(
    "payload,message",
    [
        (
            {"track": {"scenario": {"preset": "static", "osc_period": 1e-320, "num_frames": 2}}},
            "track.scenario: bad scenario spec: osc_period must be positive with a finite sway phase, got 1e-320",
        ),
        (
            {"track": {"scenario": {"preset": "static", "blob_radius": 1e-200}}},
            "track.scenario: bad scenario spec: blob_radius must be positive with a positive 2 r^2, got 1e-200",
        ),
        ({"tracker": {"regularization": math.inf}}, "tracker.regularization must be at most 1e+100, got inf"),
        (
            {"track": {"scenario": {"preset": "static", "noise_level": 1e308}}},
            "track.scenario: bad scenario spec: noise_level must be at most 1e+50, got 1e+308",
        ),
        (
            {"track": {"scenario": {"preset": "static", "blob_radius": 1e308, "start_x": 1e308, "num_frames": 2}}},
            "track.scenario: bad scenario spec: blob_radius must have a finite 2 r^2, got 1e+308",
        ),
    ],
    ids=["osc_period", "blob_radius", "regularization", "noise_level", "blob_radius_inf"],
)
def test_cli_rejects_values_that_would_fail_mid_run(tmp_path, capsys, command, payload, message):
    # Each loaded before, then failed: the sway phase overflowed math.sin,
    # the blob's 2 r^2 underflowed to 0, an infinite regularization made
    # the first solve's objective non-finite, and noise past the float range
    # or a far target's d^2 / 2 r^2 at inf / inf made a rendered frame
    # non-finite.
    cfgpath = _write_config(tmp_path, payload)
    assert main([command, "--config", cfgpath, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_cli_bounds_regularization_inside_the_float_range_of_a_solve(tmp_path, capsys):
    # At 1e308 a first solve's reg * ||g||^2 overflowed: track exited 0 with
    # NumPy warnings.  At the bound a run is clean (tier 1 turns a warning
    # into an error).
    cfgpath = _write_config(tmp_path, {"tracker": {"regularization": 1e308}})
    assert main(["track", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 2
    assert "tracker.regularization must be at most 1e+100, got 1e+308" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    at_bound = {"tracker": {"regularization": 1e100}, "track": {"scenario": {"preset": "static", "num_frames": 3}}}
    cfgpath = _write_config(tmp_path, at_bound)
    assert main(["track", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


def test_cli_renders_a_blob_too_narrow_for_the_float_range_as_its_limit(tmp_path, capsys):
    # A blob_radius of 1e-160 made d^2 / 2 r^2 overflow with a NumPy warning.
    # The blob now reads its limit: 1 at the center cell and 0 elsewhere.
    spec = {"preset": "static", "blob_radius": 1e-160, "num_frames": 3}
    cfgpath = _write_config(tmp_path, {"track": {"scenario": spec}})
    assert main(["track", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    energy = (tracker_module.generate_sequence(resolve_scenario(spec, 0))[0].values ** 2).sum(axis=0)
    assert np.count_nonzero(energy) == 1 and energy[20, 20] == pytest.approx(1.0)


def test_cli_dumps_scorer_slices_too_narrow_for_the_float_range_as_their_limit(tmp_path, capsys):
    # At scorer_tau 1e-160 a slice's score d^2 / (-2 tau^2) overflows to -inf,
    # and exp reads its limit 0 there without a NumPy warning.
    cfgpath = _write_config(tmp_path, {"tracker": {"scorer_tau": 1e-160}, "dump": {"frame_index": 2}})
    assert main(["dump-density", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    rows = (tmp_path / "o" / "bb_size_slice_f2.txt").read_text().splitlines()[1:]  # after the "H W" header
    assert {float(v) for row in rows for v in row.split()} <= {0.0, 1.0}


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
        # Stage 1 always augments the first frame and reads the 3x3 density mean.
        ({"augment": False}, "unknown key(s) ['augment'] in tracker section"),
        ({"subcell": False}, "unknown key(s) ['subcell'] in tracker section"),
        ({"bb_learning_rate": math.inf}, "tracker.bb_learning_rate must be finite, got inf"),
        ({"bb_lr_decay": math.nan}, "tracker.bb_lr_decay must be at least 0, got nan"),
        ({"bb_lr_decay": math.inf}, "tracker.bb_lr_decay must be finite, got inf"),
        ({"miss_threshold_mass": math.nan}, "tracker.miss_threshold_mass must be at least 0, got nan"),
        ({"miss_threshold_mass": 1.5}, "tracker.miss_threshold_mass must be at most 1, got 1.5"),
        ({"miss_threshold_mass": -0.1}, "tracker.miss_threshold_mass must be at least 0, got -0.1"),
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


# A rejected value for each TrackerConfig field: where a field has a check
# past its type and range (the loss model, an odd kernel, a label width's
# normalizer, tau^2, the proposal mixture, the box-training draws, the
# scorer_init choice), a value only that check rejects; else one outside
# its range or of the wrong type.
_REJECTED_TRACKER_VALUES = {
    "loss_model": "huber",
    "sigma_tc": 1e-300,
    "sigma_tc_factor": 0,
    "sigma_bb": 1e-100,
    "search_scale": 0.5,
    "kernel_size": 4,
    "regularization": 0,
    "init_iterations": -1,
    "online_iterations": 1001,
    "update_interval": 0,
    "memory_capacity": 0,
    "gamma_decay": 0,
    "miss_threshold_mass": 1.5,
    "miss_threshold_score": math.inf,
    "scorer_tau": 1e200,
    "scorer_init": "sgd",
    "refine_step": 0,
    "refine_steps": -1,
    "refine_tol": 0,
    "bb_samples": 1,
    "bb_epochs": 10**8,
    "bb_learning_rate": math.inf,
    "bb_lr_decay": -1,
    "proposal_weights": [0.3, 0.3],
    "proposal_sigmas": [0.05, -1],
    "rl2_threshold": math.nan,
}


def test_every_tracker_field_is_rejected_under_its_config_key(tmp_path, capsys):
    assert list(_REJECTED_TRACKER_VALUES) == [f.name for f in dataclasses.fields(TrackerConfig)]
    for field, value in _REJECTED_TRACKER_VALUES.items():
        cfgpath = _write_config(tmp_path, {"tracker": {field: value}})
        assert main(["compare-losses", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 2, field
        err = capsys.readouterr().err
        # \b keeps tracker.sigma_tc from matching tracker.sigma_tc_factor.
        assert re.search(rf"tracker\.{field}\b", err) and "Traceback" not in err, (field, err)


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
    "tracker,key",
    [
        ({"sigma_tc_factor": 1e-300}, "tracker.sigma_tc_factor: suite.scenarios[0]: sigma_tc for a 6.0x6.0 target"),
        ({"sigma_tc": 1e-300, "sigma_tc_factor": 1e-300}, "tracker.sigma_tc: Gaussian width 1e-300"),
        ({"search_scale": 1e9}, "tracker.search_scale: suite.scenarios[0]: search region for a 6.0x6.0 target"),
        ({"search_scale": math.inf}, "tracker.search_scale: suite.scenarios[0]: search region for a 6.0x6.0 target"),
        ({"kernel_size": 2049}, "tracker.kernel_size: suite.scenarios[0]: search region for a 6.0x6.0 target"),
    ],
)
def test_cross_field_rejections_name_their_tracker_key(tmp_path, capsys, monkeypatch, tracker, key):
    _expect_usage_exit(tmp_path, capsys, monkeypatch, {**TINY_SUITE, "tracker": tracker}, key)


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
    payload = {"track": {"scenario": scenario}, "tracker": {"bb_samples": 2**20, "refine_steps": 1000}}
    cfg = load_config(_write_config(tmp_path, payload))
    assert cfg.track_scenario["num_frames"] * 32 * 32 == harness.MAX_SEQUENCE_CELLS
    assert cfg.tracker.bb_samples == tracker_module.MAX_BOX_SAMPLES
    assert cfg.tracker.refine_steps == tracker_module.MAX_REFINE_STEPS
    assert cfg.tracker.bb_epochs * cfg.tracker.bb_samples == harness.MAX_BOX_DRAWS


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
            if "range" in field.metadata:
                assert field.type in ("int", "float", "float | None", "tuple[float, ...]"), (config.__name__, field.name)

    @dataclasses.dataclass(frozen=True)
    class Unlisted:
        sizes: "tuple[int, ...]" = ()

    message = r"Unlisted.sizes: no check for annotation 'tuple\[int, \.\.\.\]'"
    with pytest.raises(TypeError, match=message):
        tracker_module._check_fields(Unlisted())


def _ranged_fields():
    """(config key, field, value -> config that sets it) for each field with a _ranged interval.

    A scenario field's key is scenario.<field>, as in the README's range
    table; its value is set in the track scenario.
    """
    for f in dataclasses.fields(TrackerConfig):
        yield f"tracker.{f.name}", f, lambda v, n=f.name: {"tracker": {n: v}}
    for f in dataclasses.fields(Scenario):
        yield f"scenario.{f.name}", f, lambda v, n=f.name: {"track": {"scenario": {"preset": "static", n: v}}}
    run_fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    for section, keys in harness._SECTIONS.items():
        for key, name in keys.items():
            f = run_fields[name]
            yield f"{section}.{key}", f, lambda v, s=section, k=key, many=f.type.startswith("tuple"): {s: {k: [v] if many else v}}


_RANGED = [(key, f, where) for key, f, where in _ranged_fields() if "range" in f.metadata]


def _beside(field, bound, toward):
    """The value next to bound in the direction of toward: one apart for an integer field, one float apart otherwise."""
    if field.type == "int":
        return bound + (1 if toward > bound else -1)
    return math.nextafter(float(bound), toward)


def _bound_cases(field):
    """(side, bound, is_open, outside, inside) for each bound of field's interval that excludes a value.

    That is each finite bound, and an open infinite one ("finite").  outside
    is the nearest value the interval excludes and inside the nearest it
    holds: the bound itself on its closed side.
    """
    low, high, open_low, open_high = field.metadata["range"]
    for side, bound, is_open, away in (("low", low, open_low, -math.inf), ("high", high, open_high, math.inf)):
        if math.isfinite(bound) or is_open:
            outside = bound if is_open else _beside(field, bound, away)
            inside = _beside(field, bound, -away) if is_open else bound
            if field.type != "int":
                outside, inside = float(outside), float(inside)
            yield side, bound, is_open, outside, inside


def _range_message(key, side, bound, is_open, value):
    """The rejection of value by one bound; a scenario field is named by its spec's place and its field name."""
    if math.isinf(bound):
        words = "finite"
    elif side == "low":
        words = "positive" if is_open and bound == 0 else f"{'greater than' if is_open else 'at least'} {bound!r}"
    else:
        words = f"{'less than' if is_open else 'at most'} {bound!r}"
    name = key.replace("scenario.", "track.scenario: bad scenario spec: ")
    return f"{name} must be {words}, got {value!r}"


@pytest.mark.parametrize(
    "key,field,where,side,bound,is_open,outside,inside",
    [(key, f, where, *case) for key, f, where in _RANGED for case in _bound_cases(f)],
    ids=[f"{key}-{case[0]}" for key, f, _ in _RANGED for case in _bound_cases(f)],
)
def test_each_field_range_rejects_the_value_just_outside_each_bound(
    tmp_path, key, field, where, side, bound, is_open, outside, inside
):
    # The nearest value outside the interval is rejected by load_config with
    # a message naming the config key, the bound and the value; the nearest
    # one inside passes the range check (another check may still reject it).
    with pytest.raises(UsageError) as info:
        load_config(_write_config(tmp_path, where(outside), "outside.json"))
    assert str(info.value).endswith(_range_message(key, side, bound, is_open, outside)), str(info.value)
    try:
        load_config(_write_config(tmp_path, where(inside), "inside.json"))
    except UsageError as exc:
        assert not str(exc).endswith(_range_message(key, side, bound, is_open, inside)), str(exc)


def test_readme_range_table_is_the_field_metadata():
    # Each row of the README's range table is one ranged field: its config
    # key and its interval, ( or ) for an open bound and [ or ] for a closed one.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([\w.]+)` \| `([\[(].*?[\])])` \|", readme, re.M)
    expected = {}
    for key, field, _ in _RANGED:
        low, high, open_low, open_high = field.metadata["range"]
        expected[key] = f"{'(' if open_low else '['}{low!r}, {high!r}{')' if open_high else ']'}"
    assert dict(rows) == expected
    assert len(rows) == len(expected)


def test_cli_bounds_the_distractor_count(tmp_path, capsys, monkeypatch):
    # render_frames builds every distractor's state before it yields the
    # first frame, about 500 bytes each: 10^9 of them loaded and would have
    # needed about 450 GB.
    spec = {"preset": "static", "num_frames": 2}
    at_bound = {"track": {"scenario": {**spec, "distractor_count": 2**10}}}
    assert load_config(_write_config(tmp_path, at_bound, "at_bound.json")).track_scenario["distractor_count"] == 2**10
    over = {"track": {"scenario": {**spec, "distractor_count": 2**10 + 1}}}
    message = "track.scenario: bad scenario spec: distractor_count must be at most 1024, got 1025"
    _expect_usage_exit(tmp_path, capsys, monkeypatch, over, message)


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
# mistyped one or an edge value.  The edges are the type edges, 0 and -1,
# and the float format's extremes, which the float-range rules (sway phase,
# 2 r^2, tau^2, the normalizers) meet; a ranged field adds each bound that
# _bound_cases tests and the values just inside and just outside it.
_EDGE = st.sampled_from(
    [0, -1, 5e-324, 1e-160, 1e308, -1e308, math.nan, math.inf, -math.inf, 2**1030, True, False, "x", [], [0.5], None]
)
_STRINGS = st.sampled_from(["kl", "nll", "l2", "rl2", "auto", "mass", "score", "fit", "train", "sigma_tc", "sigma_bb", "x"])
_FIELDS = {cls: {f.name: f for f in dataclasses.fields(cls)} for cls in (TrackerConfig, Scenario, RunConfig)}
_PRESETS = st.sampled_from([*SCENARIO_PRESETS, "nope"])


def _typed(annotation, ints):
    return {
        "int": ints,
        "float": st.floats(min_value=1e-3, max_value=10.0),
        "float | None": st.none() | st.floats(min_value=1e-3, max_value=10.0),
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
    scenario object run once, the track and dump sections always name their
    scenario objects, the dump frame is 1, and the fields named in caps are
    always set, to integers in [2, caps[field]]; others lie in [-1, 8].
    """

    def value(cls, name):
        field = _FIELDS[cls][name]
        if caps and name in caps:
            return st.integers(min_value=2, max_value=caps[name])
        ints = st.integers(min_value=-1, max_value=8) if caps else st.integers(min_value=-2, max_value=64) | st.integers()
        edge = st.sampled_from([1.5, math.nan, True, "x", None]) if caps and field.type == "int" else _EDGE
        cases = _bound_cases(field) if "range" in field.metadata else ()
        bounds = [v for _, bound, _, outside, inside in cases for v in (outside, bound, inside)]
        if bounds:
            edge = edge | st.sampled_from([[v] if field.type.startswith("tuple") else v for v in bounds])
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
        run_fields["dump_frame_index"] = st.just(1)  # in every dump scenario, which has num_frames >= 2
    tracker = {name: value(TrackerConfig, name) for name in _FIELDS[TrackerConfig]}
    sections = {"tracker": keys(tracker, [name for name in caps or () if name in tracker])}
    required = {"suite": ["scenarios", "repetitions"], "track": ["scenario"], "dump": ["scenario", "frame_index"]} if caps else {}
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
    # numeric failure (exit 1); no other exception reaches the caller, and
    # no config makes NumPy warn.
    path = tmp_path_factory.mktemp("fuzzrun") / "config.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(path), "--out", str(path.parent / "o")])
    assert code == 0 or code == 2 or (code == 1 and err.getvalue().startswith("numeric failure:")), (code, err.getvalue(), config)
    assert "Traceback" not in err.getvalue()
    assert not caught, ([f"{w.filename}:{w.lineno}: {w.message}" for w in caught], config)


@settings(max_examples=120, deadline=None)
@given(_config_strategy(_RUN_CAPS))
def test_whole_configs_run_or_exit_cleanly(tmp_path_factory, config):
    _runs_or_exits_cleanly(tmp_path_factory, "compare-losses", config)


@pytest.mark.parametrize("command", ["sigma-sweep", "track", "dump-density"])
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


@pytest.mark.parametrize(
    "content",
    [b'{"tracker": "\xff"}', b"[" * 100_000, b'{"suite": {"repetitions": ' + b"1" * 5000 + b"}}"],
    ids=["not-utf8", "nested-past-the-recursion-limit", "integer-past-the-digit-limit"],
)
def test_cli_malformed_config_exits_2(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert main(["track", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {path} is not valid JSON: "), err
    assert "Traceback" not in err


def test_config_files_past_the_byte_bound_exit_2(tmp_path, capsys):
    # The file is read only up to one byte past the bound, so no file (not
    # even /dev/zero) is read into memory whole.
    at_bound = tmp_path / "at_bound.json"
    at_bound.write_bytes(b"{}" + b" " * (harness.MAX_CONFIG_BYTES - 2))
    assert load_config(str(at_bound)) == RunConfig()
    over = tmp_path / "over.json"
    over.write_bytes(b"{}" + b" " * (harness.MAX_CONFIG_BYTES - 1))
    assert main(["track", "--config", str(over), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: config {over} is larger than {harness.MAX_CONFIG_BYTES} bytes\n"
    assert not (tmp_path / "o").exists()


def test_a_small_config_file_loads_without_a_bound_sized_buffer(tmp_path):
    # Reading stops at the file's end; nothing near MAX_CONFIG_BYTES is
    # allocated for a 3-byte file.
    path = tmp_path / "config.json"
    path.write_bytes(b"{}\n")
    load_config(str(path))
    tracemalloc.start()
    try:
        assert load_config(str(path)) == RunConfig()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


CUSTOM_SPEC = {"preset": "drift", "osc_amp_x": 3.5, "start_y": 11.25, "target_w": 4.5}


@pytest.mark.parametrize("spec", [*SCENARIO_PRESETS, CUSTOM_SPEC])
def test_generated_sequence_is_the_rendered_frames(spec):
    # generate_sequence holds what render_frames yields; two renderers of one
    # scenario, stepped in turn, share no stream.
    scenario = resolve_scenario(spec, 5)
    held = tracker_module.generate_sequence(scenario)
    streams = tracker_module.render_frames(scenario), tracker_module.render_frames(scenario)
    assert len(held) == scenario.num_frames
    for frame, *rendered in zip(held, *streams, strict=True):
        for other in rendered:
            assert (frame.values == other.values).all()


@pytest.mark.parametrize("spec", [*SCENARIO_PRESETS, CUSTOM_SPEC])
def test_rendered_target_peaks_at_the_truth_the_evaluator_reads(spec):
    # Tracking starts from Scenario.target_box(0) and is scored against
    # target_box(t), which no rendered frame carries: with noise and
    # distractors off, the target's strongest cell is its rounded center.
    for seed in (0, 7):
        scenario = dataclasses.replace(resolve_scenario(spec, seed), noise_level=0.0, distractor_count=0)
        frames = tracker_module.generate_sequence(scenario)
        for t in (0, scenario.num_frames - 1):
            assert not scenario.occluded(t)
            energy = (frames[t].values ** 2).sum(axis=0)
            cx, cy = scenario.target_center(t)
            assert np.unravel_index(np.argmax(energy), energy.shape) == (round(cy), round(cx)), (spec, seed, t)


def test_resolve_scenario_presets_and_overrides():
    for name in SCENARIO_PRESETS:
        scenario = resolve_scenario(name, seed=9)
        assert scenario.seed == 9
        assert scenario.num_frames == SCENARIO_PRESETS[name]["num_frames"]
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
    # Only the two suite commands take --jobs; they reject --jobs 0 after parsing it.
    for command in ("compare-losses", "sigma-sweep"):
        assert main([command, "--config", cfgpath, "--jobs", "0"]) == 2
        assert "--jobs must be at least 1, got 0" in capsys.readouterr().err
    # The four commands are the whole CLI: argparse exits 2 on anything else.
    for argv, message in (
        (["selftest"], "invalid choice: 'selftest'"),
        (["track", "--jobs", "2"], "unrecognized arguments: --jobs 2"),
        (["dump-density", "--jobs", "2"], "unrecognized arguments: --jobs 2"),
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
    assert main(["compare-losses", "--config", cfgpath, "--seed", "-5"]) == 2
    err = capsys.readouterr().err
    assert "--seed must be nonnegative, got -5" in err
    assert "Traceback" not in err
    # --out must be a directory or creatable as one: not a file, nor under one.
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    for out in (blocker, blocker / "sub"):
        assert main(["track", "--config", cfgpath, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot create output directory {out}: " in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, first_output",
    [
        ("compare-losses", "compare_losses.csv"),
        ("sigma-sweep", "sigma_sweep.csv"),
        ("track", "track_trace.csv"),
        ("dump-density", "center_density_f1.txt"),
    ],
)
def test_cli_output_write_failure_exits_2(tmp_path, capsys, command, first_output):
    scenario = {"preset": "static", "num_frames": 3}
    payload = {
        "suite": {"scenarios": [scenario], "repetitions": 1},
        "sweep": {"values": [1.5]},
        "track": {"scenario": scenario},
        "dump": {"scenario": scenario, "frame_index": 1},
    }
    cfgpath = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    (out / first_output).mkdir(parents=True)
    assert main([command, "--config", cfgpath, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / first_output}: "), err
    assert "Traceback" not in err


def _inline_pool(sizes: list):
    """A ThreadPoolExecutor stand-in that records its max_workers and runs each task as it is submitted."""

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn):
            future = Future()
            future.set_result(fn())
            return future

    return InlinePool


@pytest.mark.parametrize("jobs,cells,pools", [(65536, 3, [3]), (2, 5, [2]), (4, 1, []), (1, 4, [])])
def test_run_cells_starts_at_most_one_worker_per_cell(monkeypatch, jobs, cells, pools):
    # The pool would start a thread per task while none is idle, so a
    # --jobs above the cell count is capped, and one worker runs serially.
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _inline_pool(sizes))
    assert harness._run_cells([partial(int, i) for i in range(cells)], jobs) == list(range(cells))
    assert sizes == pools


def test_cli_jobs_past_the_cell_count_start_one_worker_per_cell(tmp_path, capsys, monkeypatch):
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _inline_pool(sizes))
    cfgpath = _write_config(tmp_path, {"suite": {**TINY_SUITE["suite"], "repetitions": 2}})
    assert main(["compare-losses", "--config", cfgpath, "--jobs", "65536", "--out", str(tmp_path / "o")]) == 0
    assert sizes == [2]
    capsys.readouterr()


_SERIAL_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
from prtrack.harness import main
code = main(["compare-losses", "--jobs", "1", "--config", sys.argv[2], "--out", sys.argv[3]])
print(code, "concurrent.futures" in sys.modules)
"""


def test_a_serial_suite_does_not_import_the_thread_pool(tmp_path):
    # In a fresh interpreter, a --jobs 1 suite loads nothing of the pool.
    cfgpath = _write_config(tmp_path, {**TINY_SUITE, "tracker": {"bb_epochs": 2}})
    argv = [str(Path(harness.__file__).parents[1]), cfgpath, str(tmp_path / "o")]
    done = subprocess.run([sys.executable, "-B", "-c", _SERIAL_RUN, *argv], capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 False"


def test_readme_cli_block_names_the_argparse_commands(capsys):
    # Every `prtrack <command>` line of the README's CLI block must parse
    # (its --help exits 0, an unknown command exits 2), and all four appear.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    named = [line.split()[1] for line in block.splitlines() if line.startswith("prtrack ")]
    for command in named:
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0, command
    capsys.readouterr()
    assert sorted(named) == sorted(["compare-losses", "sigma-sweep", "track", "dump-density"])


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


# ---------------------------------------------------------------------------
# compare-losses
# ---------------------------------------------------------------------------


def test_compare_losses_static_suite(tmp_path, capsys):
    cfgpath = _write_config(tmp_path, TINY_SUITE)
    out = tmp_path / "run1"
    assert main(["compare-losses", "--config", cfgpath, "--seed", "3", "--out", str(out)]) == 0
    rows = _read_csv(out / "compare_losses.csv")
    assert rows[0] == ["model", "auc", "op_0.50", "op_0.75"]
    assert [r[0] for r in rows[1:]] == list(LOSS_MODELS)
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


def test_sigma_sweep_at_the_factor_rule_width_is_the_kl_row_of_compare_losses(tmp_path):
    # The default sigma_tc is the factor rule, 0.25 sqrt(6 x 6) = 1.5 for the
    # golden suite's target, and each scorer is the one its config would
    # train alone: so the swept kl tracker at sigma_tc 1.5 is compare-losses'
    # kl tracker, bit for bit, on the same cells and seed.
    cfgpath = _write_config(tmp_path, {**GOLDEN_SUITE, "sweep": {"parameter": "sigma_tc", "values": [1.5]}})
    for command in ("compare-losses", "sigma-sweep"):
        assert main([command, "--config", cfgpath, "--seed", "1", "--out", str(tmp_path / "out")]) == 0
    losses = {row[0]: row[1] for row in _read_csv(tmp_path / "out" / "compare_losses.csv")[1:]}
    assert _read_csv(tmp_path / "out" / "sigma_sweep.csv") == [["sigma", "auc"], ["1.5", losses["kl"]]]
    assert losses["kl"] != losses["l2"]  # the suite separates the objectives


# The inputs of the benchmark's init-burst workload (perfbench/run.py): both
# suite presets cut to 8 frames, 15 repetitions, one job.  Box-scorer training
# dominates their run time, but their pinned seed-1 digest does not check that
# every scorer trains bit for bit: the CSV rounds the tracked boxes through
# AUC and overlap precision, and moving box training into the target's frame
# changed most trained center entries by about 2e-15 while every pinned digest
# held.  test_trained_scorers_match_their_pinned_digest in test_tracker.py
# pins the trained centers themselves.
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


@pytest.mark.parametrize("command,configs", [("compare-losses", len(LOSS_MODELS)), ("sigma-sweep", 3)])
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


NINE_CELLS = {
    "suite": {
        "scenarios": [{"preset": name, "num_frames": 3} for name in ("static", "drift", "occlusion")],
        "repetitions": 3,
    },
    "tracker": {"bb_epochs": 6, "bb_samples": 16},
}


def test_suite_trains_each_group_before_rendering_its_cells(tmp_path, monkeypatch):
    # One init_scorers call trains the scorers of every cell, then the cells
    # are rendered one at a time, each sequence gone before the next is
    # rendered; the suite draws exactly cells x bb_epochs x bb_samples
    # proposals.
    events, drawn, rendered = [], [], []
    original_sample = bbox.proposal_sample

    def init_scorers(cfgs, cells):
        cells = list(cells)
        events.append(("train", len(cells)))
        return tracker_module.init_scorers(cfgs, cells)

    def generate_sequence(scenario):
        events.append(("render", 1))
        assert all(ref() is None for ref in rendered)
        sequence = tracker_module.generate_sequence(scenario)
        rendered.append(weakref.ref(sequence[0]))
        return sequence

    def proposal_sample(*args, **kwargs):
        out = original_sample(*args, **kwargs)
        drawn.append(len(out))
        return out

    monkeypatch.setattr(harness, "init_scorers", init_scorers)
    monkeypatch.setattr(harness, "generate_sequence", generate_sequence)
    monkeypatch.setattr(bbox, "proposal_sample", proposal_sample)
    # Blocks of 8 cells at this config's 16 draws per batch.
    monkeypatch.setattr(bbox, "_GROUP_DRAWS", 8 * 16)
    cfgpath = _write_config(tmp_path, NINE_CELLS)
    assert main(["compare-losses", "--config", cfgpath, "--seed", "2", "--out", str(tmp_path / "o")]) == 0
    assert events == [("train", 9)] + [("render", 1)] * 9
    assert sum(drawn) == 9 * 6 * 16 and set(drawn) == {16}


def test_suite_trains_the_same_blocks_at_any_jobs(tmp_path, monkeypatch):
    # Box training runs before any task starts and cuts the cells into
    # blocks by draws alone: 10 cells at the default 768 draws are a block
    # of 8 and a block of 2 at --jobs 4 as at --jobs 1.
    blocks = []
    original = bbox._train_block

    def train_block(jobs, rngs, *args):
        blocks[-1].append(len(rngs))
        return original(jobs, rngs, *args)

    monkeypatch.setattr(bbox, "_train_block", train_block)
    payload = {
        "suite": {"scenarios": [{"preset": name, "num_frames": 3} for name in ("static", "drift")], "repetitions": 5},
        "tracker": {"bb_epochs": 2},
    }
    cfgpath = _write_config(tmp_path, payload)
    outputs = []
    for jobs in ("1", "4"):
        blocks.append([])
        out = tmp_path / f"jobs{jobs}"
        assert main(["compare-losses", "--config", cfgpath, "--jobs", jobs, "--out", str(out)]) == 0
        outputs.append((out / "compare_losses.csv").read_bytes())
    assert blocks == [[8, 2], [8, 2]]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command,jobs", [("compare-losses", len(LOSS_MODELS)), ("sigma-sweep", 1)])
def test_suite_trains_each_distinct_box_job_once(tmp_path, monkeypatch, command, jobs):
    # The default sweep varies sigma_tc, which box training does not read,
    # so its three kl configs share one job; the four loss models are four.
    passed = []

    def recording(box_jobs, *args, **schedule):
        passed.append(list(box_jobs))
        return bbox.train_box_scorer(box_jobs, *args, **schedule)

    monkeypatch.setattr(tracker_module, "train_box_scorer", recording)
    cfgpath = _write_config(tmp_path, {**TINY_SUITE, "tracker": {"bb_epochs": 2}})
    assert main([command, "--config", cfgpath, "--out", str(tmp_path / "o")]) == 0
    assert [len(box_jobs) for box_jobs in passed] == [jobs]


# ---------------------------------------------------------------------------
# sigma-sweep
# ---------------------------------------------------------------------------


def test_default_sigma_sweep_matches_its_pinned_digest(tmp_path):
    # The default sweep at seed 1, byte for byte; like compare-losses, it
    # trains every box scorer.
    out = tmp_path / "out"
    assert main(["sigma-sweep", "--seed", "1", "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "sigma_sweep.csv").read_bytes()).hexdigest()
    assert digest == "c363bcdcbe6c0729fec4e1ac0775e1d1c8b5cf679c6e069afbce2ea807f09033"


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


def test_trace_csv_round_trip(tmp_path):
    cfgpath = _write_config(tmp_path, {"track": {"scenario": {"num_frames": 6, "start_x": 20.0, "start_y": 20.0}}})
    out = tmp_path / "out"
    assert main(["track", "--config", cfgpath, "--out", str(out)]) == 0
    lines = (out / "track_trace.csv").read_text().strip().splitlines()
    assert lines[0] == "frame,cx,cy,w,h,iou,missing,peak_mass"
    assert len(lines) == 6 + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[5]) == pytest.approx(1.0)  # init frame is the annotation
    assert first[6] == "0"


SHORT_SEQUENCES = {
    "tracker": {"scorer_init": "train", "bb_epochs": 6, "bb_samples": 16},
    "track": {"scenario": {"preset": "static", "num_frames": 4}},
    "dump": {"scenario": {"preset": "static", "num_frames": 4}, "frame_index": 2},
}


@pytest.mark.parametrize("command,frames", [("track", 4), ("dump-density", 3)])
def test_single_sequence_commands_train_their_scorer_before_rendering(tmp_path, monkeypatch, command, frames):
    # With scorer_init "train", init_scorers trains the one box scorer before
    # the first frame is rendered, and track_init trains none.  dump-density
    # renders frames 0 to frame_index and no later one.
    events, inside = [], []
    train, init = tracker_module.train_box_scorer, tracker_module.track_init

    def train_box_scorer(*args, **schedule):
        events.append(("train", bool(inside)))
        return train(*args, **schedule)

    def track_init(*args):
        inside.append(True)
        try:
            return init(*args)
        finally:
            inside.pop()

    def render_frames(scenario):
        for frame in tracker_module.render_frames(scenario):
            events.append(("render", bool(inside)))
            yield frame

    monkeypatch.setattr(tracker_module, "train_box_scorer", train_box_scorer)
    monkeypatch.setattr(tracker_module, "track_init", track_init)
    monkeypatch.setattr(harness, "track_init", track_init)
    monkeypatch.setattr(harness, "render_frames", render_frames)
    cfgpath = _write_config(tmp_path, SHORT_SEQUENCES)
    assert main([command, "--config", cfgpath, "--out", str(tmp_path / "o")]) == 0
    assert events == [("train", False)] + [("render", False)] * frames


@pytest.mark.parametrize("command", ["cmd_track", "cmd_dump_density"])
def test_single_sequence_commands_hold_no_sequence(tmp_path, command):
    # A 500-frame static sequence is 500 x 4 x 48 x 48 float64 cells, 36.9 MB.
    # Tracking it a rendered frame at a time, to its last frame, peaks below
    # a tenth of that.  The config is loaded first: load_config reads into a
    # MAX_CONFIG_BYTES buffer, which tracemalloc sees.
    spec = {"preset": "static", "num_frames": 500}
    cfg = load_config(_write_config(tmp_path, {"track": {"scenario": spec}, "dump": {"scenario": spec, "frame_index": 499}}))
    tracemalloc.start()
    try:
        getattr(harness, command)(cfg, 1, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500 * 4 * 48 * 48 * 8 / 10


def test_default_track_matches_its_pinned_digests(tmp_path):
    # The default track at seed 1, both files byte for byte; its box scorer
    # is fitted in closed form (scorer_init "fit"), not trained.
    out = tmp_path / "out"
    assert main(["track", "--seed", "1", "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("track_trace.csv", "track_metrics.csv")}
    assert digests == {
        "track_trace.csv": "00c525363aae68e97cb53309ea483d7a5ccb4625ccd1f4e671cdc5227409cb87",
        "track_metrics.csv": "1858e5256b1036ba51a8da745ad01cf7d23a96b18e1715af783620f22fcd3b77",
    }


def test_trained_track_matches_its_pinned_digests(tmp_path):
    # The default track at seed 1 with its box scorer trained by SGD
    # (scorer_init "train"): box training, encoding, refinement and the
    # inline decode of every frame, byte for byte.
    cfgpath = _write_config(tmp_path, {"tracker": {"scorer_init": "train"}})
    out = tmp_path / "out"
    assert main(["track", "--config", cfgpath, "--seed", "1", "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("track_trace.csv", "track_metrics.csv")}
    assert digests == {
        "track_trace.csv": "1f7881c9dbdd34c30f08868923740df03543c11cc0428e94b4c33eb0252c0ea1",
        "track_metrics.csv": "38d714c87d80aa4293c98170615d2c3a91aa72e9f8bedc445aacdc7cd3afc4e8",
    }


# ---------------------------------------------------------------------------
# dump-density
# ---------------------------------------------------------------------------


def _argmax_cell(values):
    return np.unravel_index(int(np.argmax(values)), values.shape)


def _load_dump(path):
    return np.loadtxt(path, skiprows=1, ndmin=2)


def test_dump_density_grids(tmp_path):
    payload = {"dump": {"scenario": {"preset": "static", "num_frames": 10}, "frame_index": 5}}
    cfgpath = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["dump-density", "--config", cfgpath, "--seed", "2", "--out", str(out)]) == 0

    center = _load_dump(out / "center_density_f5.txt")
    # Static target: the stage-1 density peaks at the middle of the crop.
    region = center.shape[0]
    assert _argmax_cell(center) == (region // 2, region // 2)

    for name in ("bb_center_slice_f5.txt", "bb_size_slice_f5.txt"):
        grid = _load_dump(out / name)
        n = grid.shape[0]
        mid = (n - 1) // 2
        assert _argmax_cell(grid) == (mid, mid)
        row = grid[mid]
        # Unimodal slice: strictly falling away from the analytic optimum.
        assert np.all(np.diff(row[: mid + 1]) > 0)
        assert np.all(np.diff(row[mid:]) < 0)

    out2 = tmp_path / "out2"
    assert main(["dump-density", "--config", cfgpath, "--seed", "2", "--out", str(out2)]) == 0
    for name in ("center_density_f5.txt", "bb_center_slice_f5.txt", "bb_size_slice_f5.txt"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_default_dump_density_matches_its_pinned_digests(tmp_path):
    # The three default grids at seed 1, byte for byte: the stage-1 density
    # and the two box-scorer slices around the encoded current box.
    out = tmp_path / "out"
    assert main(["dump-density", "--seed", "1", "--out", str(out)]) == 0
    names = ("center_density_f5.txt", "bb_center_slice_f5.txt", "bb_size_slice_f5.txt")
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names} == {
        "center_density_f5.txt": "c9e6e2d8184dd9bac73ccf420df55badf8e01ad92764536a3815bfeab59b8512",
        "bb_center_slice_f5.txt": "649ddc95636b69a2ce70b36675d1661ae1dda4b583d462d853a0e6919f26a8ca",
        "bb_size_slice_f5.txt": "c032bd7c97b6c4d61e66a3365b00a94676ce4bd451ef47db99c34f67ac172913",
    }


@pytest.mark.parametrize("n", [3, 41, 600])
def test_score_slices_match_a_per_row_loop(n):
    # The (n, n) slices come from one value_batch call per block of rows (n =
    # 600 spans six blocks, the last one partial); a loop that scores one row
    # of n boxes at a time gives the same bits.
    rng = np.random.Generator(np.random.PCG64(n))
    lw, lh = math.log(7.3), math.log(4.1)
    scorer = bbox.QuadraticScorer(rng.normal(scale=0.3, size=4) + [0.0, 0.0, lw, lh], 0.2)
    base = (0.0, 0.0, lw, lh)
    offsets = np.linspace(-1.0, 1.0, n)
    log_offsets = np.linspace(-math.log(3.0), math.log(3.0), n)
    center_rows = np.empty((n, n))
    size_rows = np.empty((n, n))
    for i in range(n):
        boxes = np.column_stack([offsets, np.full(n, offsets[i]), np.full(n, lw), np.full(n, lh)])
        center_rows[i] = np.exp(scorer.value_batch(boxes))
        boxes = np.column_stack([np.zeros(n), np.zeros(n), lw + log_offsets, np.full(n, lh + log_offsets[i])])
        size_rows[i] = np.exp(scorer.value_batch(boxes))
    center = harness._score_slice(scorer, base, (0, 1), offsets)
    size = harness._score_slice(scorer, base, (2, 3), log_offsets)
    assert np.array_equal(center, center_rows)
    assert np.array_equal(size, size_rows)


def test_score_slice_memory_does_not_grow_with_the_slice():
    # Beyond its (n, n) output, a slice holds a few blocks of boxes at a time
    # (the (K, 4) stack, value_batch's difference copy, K-long score rows),
    # about 4.5 MiB for blocks of 2^16 boxes, not a stack of all n * n
    # boxes: n = 1200 alone would need 44 MiB for it.
    scorer = bbox.QuadraticScorer([0.1, -0.2, 1.9, 1.4], 0.2)
    for n in (300, 1200):
        offsets = np.linspace(-1.0, 1.0, n)
        tracemalloc.start()
        try:
            harness._score_slice(scorer, (0.0, 0.0, 2.0, 1.4), (0, 1), offsets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - n * n * 8 < 8 * 2**20, n


def test_dump_frame_out_of_range(tmp_path, capsys, monkeypatch):
    generated = []
    monkeypatch.setattr(harness, "generate_sequence", lambda *a: generated.append(a))
    payload = {"dump": {"scenario": {"preset": "static", "num_frames": 10}, "frame_index": 10}}
    cfgpath = _write_config(tmp_path, payload)
    assert main(["dump-density", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 2
    assert "out of range" in capsys.readouterr().err
    # The frame index is checked at load, before any sequence is rendered.
    assert generated == []
