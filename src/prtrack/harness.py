"""Command-line harness around the synthetic tracking benchmarks.

Subcommands
-----------
compare-losses   track the benchmark suite once per loss model (l2, rl2,
                 nll, kl) and write per-model AUC / OP columns as CSV
sigma-sweep      AUC of the divergence-loss tracker as one label width
                 (sigma_tc or sigma_bb) sweeps over a list of values
track            run one sequence, writing a per-frame trace and metrics
dump-density     run to a chosen frame and dump the stage-1 center density
                 plus two box-scorer slices as text grids

Every command builds its box scorers with init_scorers from the cell's
tracker stream before it tracks a frame; track and dump-density then render
their sequence a frame at a time.

Common flags: --config <json>, --seed <int>, --out <dir>; compare-losses
and sigma-sweep also take --jobs <n>.
Exit codes: 0 success, 2 bad usage, configuration or output write, 1 numeric
failure.

Configuration is a JSON document; unknown keys anywhere are rejected.
Top-level sections (each optional, an object when given, defaults apply):

    tracker   tracker settings, same field names as TrackerConfig
    suite     {"scenarios": [<spec>, ...], "repetitions": n}
    sweep     {"parameter": "sigma_tc" | "sigma_bb", "values": [..]}
    track     {"scenario": <spec>}
    dump      {"scenario": <spec>, "frame_index": n, "slice_cells": odd n}

A scenario <spec> is a preset name, or an object with an optional "preset"
key plus Scenario field overrides ("seed" is reserved: every run derives
its sequence seed from --seed so that repetitions are reproducible).
load_config reads at most MAX_CONFIG_BYTES of the file, checks every value
against the annotations of TrackerConfig, Scenario and RunConfig, then the
ranges, the sizes and work (MAX_SEQUENCE_CELLS, MAX_CROP_CELLS,
MAX_BOX_SAMPLES, MAX_BOX_DRAWS, MAX_SOLVER_ITERATIONS, MAX_REFINE_STEPS,
MAX_TRAINING_ROWS, MAX_SUITE_CELLS) and the dump frame, so a config that
loads runs without a usage error.

Determinism: each (scenario, repetition) cell owns its RNG streams, seeded
as master + 103 * scenario_index + 10007 * repetition (the tracker stream
adds a fixed offset), so outputs are bit-identical for equal (config,
seed) regardless of --jobs.  compare-losses and sigma-sweep first build
the box scorers of every cell and tracker config in one init_scorers
call: it trains them in the target's own frame, each cell on its one
tracker stream, in blocks of cells that train_box_scorer cuts from the
draw count alone, and centers each on its scenario's first box (each
scorer is exactly the one its config would train alone in its cell).
The streams are then dropped, and the suite runs one task per cell: it
renders the cell's frames once and tracks them once per config, from and
against the scenario's closed-form boxes.  So the loss models share one
rendered sequence and one proposal stream per cell.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import bbox
from .bbox import BOX_DIM, box_encode
from .errors import DomainError, NumericError, PrtrackError, UsageError
from .gridmath import Grid2D, dump_grid
from .labels import gaussian_normalizer, iou_xywh
from .losses import LOSS_MODELS
from .tracker import (
    Scenario,
    TrackerConfig,
    _check_fields,
    evaluate,
    generate_sequence,
    init_scorers,
    render_frames,
    run_sequence,
    search_region,
    track_init,
    track_step,
)

__all__ = ["RunConfig", "load_config", "SCENARIO_PRESETS", "main"]

TRACKER_RNG_OFFSET = 7_654_321
MAX_CROP_CELLS = 2**22  # channels x region^2 of one search-region crop; dump slice cells
MAX_SEQUENCE_CELLS = 2**30  # num_frames x channels x height x width of one sequence
MAX_BOX_SAMPLES = 2**20  # bb_samples: proposals drawn per annotation and epoch
MAX_SUITE_CELLS = 2**16  # suite scenarios x repetitions
# bb_epochs x bb_samples: proposals drawn per cell and annotation in box
# training, whose time grows with it; the default 150 epochs at the largest
# bb_samples is the most.
MAX_BOX_DRAWS = 150 * MAX_BOX_SAMPLES
MAX_CONFIG_BYTES = 2**22  # size of the --config file
MAX_SOLVER_ITERATIONS = 1000  # init_iterations, online_iterations: 100x the default first-frame solve
# refine_steps: 100x the default box refinement.  A large refine_step makes
# the ascent oscillate, so refine_tol alone need not stop it.
MAX_REFINE_STEPS = 1000
# tracker.regularization: a solve step forms reg * ||g||^2 with g about reg * w,
# so reg^3 ||w||^2 must stay in the float range; 1e100 keeps it there up to ||w|| = 1e4.
MAX_REGULARIZATION = 1e100
# Tracker configs x draws of one training block's batch, max(bb_samples,
# bbox._GROUP_DRAWS): the score rows box training holds at once.
# compare-losses at the largest bb_samples is the most it needs; only a long
# sweep.values list goes past it.
MAX_TRAINING_ROWS = 4 * MAX_BOX_SAMPLES

SCENARIO_PRESETS: dict[str, dict] = {
    # A target parked on a cell center, nothing else in the scene.
    "static": dict(num_frames=100, start_x=20.0, start_y=20.0),
    # Smooth sub-cell motion and light noise, no distractors.
    "drift": dict(
        num_frames=60, start_x=14.0, start_y=14.0,
        velocity_x=0.25, velocity_y=0.18, osc_amp_x=2.0, osc_amp_y=1.5,
        osc_period=37.0, noise_level=0.05,
    ),
    # Full occlusion window on a slowly moving target.
    "occlusion": dict(
        num_frames=70, start_x=16.0, start_y=18.0,
        velocity_x=0.15, velocity_y=0.10, noise_level=0.05,
        occlusions=((30, 42),),
    ),
    # Two similar blobs crossing near a moving target.  The broad blob makes
    # the true center ambiguous at roughly the cell scale, which is the
    # regime the label width is meant to model.
    "distractors": dict(
        num_frames=60, start_x=14.0, start_y=14.0,
        velocity_x=0.30, velocity_y=0.22, osc_amp_x=2.5, osc_amp_y=2.0,
        osc_period=29.0, noise_level=0.05, blob_radius=3.0,
        distractor_count=2, distractor_similarity=0.7,
    ),
    # Distractors plus a mid-sequence occlusion.
    "distractors_occlusion": dict(
        num_frames=60, start_x=30.0, start_y=30.0,
        velocity_x=-0.25, velocity_y=-0.20, osc_amp_x=2.0, osc_amp_y=2.5,
        osc_period=31.0, noise_level=0.05, blob_radius=3.0,
        distractor_count=2, distractor_similarity=0.7, occlusions=((28, 36),),
    ),
}

_SCENARIO_KEYS = {f.name for f in dataclasses.fields(Scenario)} - {"seed"} | {"preset"}
_TRACKER_FIELDS = {f.name: f for f in dataclasses.fields(TrackerConfig)}
# The sections after "tracker" (whose keys are the TrackerConfig fields):
# each key and the RunConfig field it sets.
_SECTIONS = {
    "suite": {"scenarios": "scenarios", "repetitions": "repetitions"},
    "sweep": {"parameter": "sweep_parameter", "values": "sweep_values"},
    "track": {"scenario": "track_scenario"},
    "dump": {
        "scenario": "dump_scenario",
        "frame_index": "dump_frame_index",
        "slice_cells": "dump_slice_cells",
    },
}
_KEY_NAMES = {
    field: f"{section}.{key}" for section, keys in _SECTIONS.items() for key, field in keys.items()
}


def _expect(cond: bool, message: str):
    if not cond:
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for every subcommand; the defaults are the CLI's."""

    tracker: TrackerConfig = dataclasses.field(default_factory=TrackerConfig)
    scenarios: tuple[object, ...] = ("distractors", "distractors_occlusion")
    repetitions: int = 5
    sweep_parameter: str = "sigma_tc"
    sweep_values: tuple[float, ...] = (0.00015, 1.5, 15.0)
    track_scenario: object = "distractors"
    dump_scenario: object = "static"
    dump_frame_index: int = 5
    dump_slice_cells: int = 41

    def __post_init__(self):
        try:
            _check_fields(self, names=_KEY_NAMES)
        except DomainError as exc:
            raise UsageError(str(exc)) from exc
        _expect(self.scenarios, "suite.scenarios must be a nonempty list")
        _expect(self.repetitions >= 1, "suite.repetitions must be an int >= 1")
        _expect(
            self.sweep_parameter in ("sigma_tc", "sigma_bb"),
            "sweep.parameter must be 'sigma_tc' or 'sigma_bb'",
        )
        _expect(self.sweep_values, "sweep.values must be a nonempty list")
        _expect(all(v > 0 for v in self.sweep_values), "sweep.values must be positive")
        _expect(self.dump_frame_index >= 1, "dump.frame_index must be an int >= 1")
        _expect(
            self.dump_slice_cells >= 3 and self.dump_slice_cells % 2 == 1,
            "dump.slice_cells must be an odd int >= 3",
        )


def _at_load(what: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a rejection turned into a usage error prefixed by what."""
    try:
        return fn(*args, **kwargs)
    except (DomainError, UsageError) as exc:
        raise UsageError(f"{what}: {exc}") from exc


def _check_keys(d: dict, allowed, where: str):
    unknown = sorted(set(d) - set(allowed))
    _expect(not unknown, f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")


def resolve_scenario(spec, seed: int) -> Scenario:
    """Build a Scenario from a spec and the cell seed.

    A spec is a preset name, or an object of Scenario field overrides with
    an optional "preset" key; UsageError if it is neither or names an
    unknown key or preset.
    """
    if isinstance(spec, str):
        spec = {"preset": spec}
    _expect(isinstance(spec, dict), "a scenario spec must be a preset name or an object")
    _check_keys(spec, _SCENARIO_KEYS, "scenario spec")
    params = dict(spec)
    if "preset" in params:
        preset = params.pop("preset")
        _expect(
            isinstance(preset, str) and preset in SCENARIO_PRESETS,
            f"unknown preset {preset!r}; presets: {sorted(SCENARIO_PRESETS)}",
        )
        params = {**SCENARIO_PRESETS[preset], **params}
    return _at_load("bad scenario spec", Scenario, **params, seed=seed)


def load_config(path: str | None) -> RunConfig:
    """Parse and validate a JSON config file; None loads pure defaults."""
    raw = {}
    if path is not None:
        try:
            with open(path, "rb") as fh:
                # In 16 KiB reads, up to one byte past the bound: a single
                # read of that many bytes allocates them for any file.
                data = bytearray()
                while chunk := fh.read(min(2**14, MAX_CONFIG_BYTES + 1 - len(data))):
                    data += chunk
        except OSError as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from exc
        _expect(len(data) <= MAX_CONFIG_BYTES, f"config {path} is larger than {MAX_CONFIG_BYTES} bytes")
        try:
            raw = json.loads(data.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError, text that is not UTF-8 and
            # integers past the interpreter's digit limit; RecursionError,
            # arrays or objects nested past the recursion limit.
            raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    _expect(isinstance(raw, dict), "config root must be a JSON object")
    _check_keys(raw, {"tracker", *_SECTIONS}, "config root")
    fields = {}
    for section in ("tracker", *_SECTIONS):
        body = raw.get(section, {})
        _expect(isinstance(body, dict), f"{section} must be an object")
        _check_keys(body, _SECTIONS.get(section, _TRACKER_FIELDS), f"{section} section")
        if section == "tracker":
            fields["tracker"] = _at_load("bad tracker config", TrackerConfig, **body)
        else:
            fields.update((_SECTIONS[section][key], value) for key, value in body.items())
    cfg = RunConfig(**fields)
    _check_resolved(cfg)
    return cfg


def _check_resolved(cfg: RunConfig):
    """Reject, before any sequence is rendered, what no run could build or compute.

    bb_samples, the box-training draws bb_epochs x bb_samples, the solver
    iterations and regularization, the box refinement steps, the
    box-training rows of a sweep (its values times a training block's draws
    per batch), the suite's cell count and the dump slice are bounded.  One
    pass over the scenario specs builds each Scenario (the seed does not
    enter its checks) and bounds its sequence's size, its target's sigma_tc
    and its search region (as track_init resolves them, from the sizes
    alone); the dump frame must lie in the dump scenario.  Sweep values replace sigma_tc or sigma_bb, and a
    label width is rejected when its Gaussian normalizer is not finite.
    """
    tracker = cfg.tracker
    _expect(
        tracker.bb_samples <= MAX_BOX_SAMPLES,
        f"tracker.bb_samples must be at most {MAX_BOX_SAMPLES}, got {tracker.bb_samples}",
    )
    draws = tracker.bb_epochs * tracker.bb_samples
    _expect(
        draws <= MAX_BOX_DRAWS,
        f"tracker.bb_epochs: {tracker.bb_epochs} epochs x {tracker.bb_samples} bb_samples"
        f" = {draws} box-training draws, over {MAX_BOX_DRAWS}",
    )
    for name, bound in (
        ("init_iterations", MAX_SOLVER_ITERATIONS),
        ("online_iterations", MAX_SOLVER_ITERATIONS),
        ("refine_steps", MAX_REFINE_STEPS),
        ("regularization", MAX_REGULARIZATION),
    ):
        n = getattr(tracker, name)
        _expect(n <= bound, f"tracker.{name} must be at most {bound}, got {n}")
    batch = max(tracker.bb_samples, bbox._GROUP_DRAWS)
    rows = len(cfg.sweep_values) * batch
    _expect(
        rows <= MAX_TRAINING_ROWS,
        f"sweep.values: {len(cfg.sweep_values)} values x {batch} draws per batch"
        f" = {rows} box-training rows, over {MAX_TRAINING_ROWS}",
    )
    cells = len(cfg.scenarios) * cfg.repetitions
    _expect(
        cells <= MAX_SUITE_CELLS,
        f"suite.repetitions: {len(cfg.scenarios)} scenarios x {cfg.repetitions} repetitions"
        f" = {cells} cells, over {MAX_SUITE_CELLS}",
    )
    n = cfg.dump_slice_cells
    _expect(
        n * n <= MAX_CROP_CELLS,
        f"dump.slice_cells: a {n}x{n} slice has {n * n} cells, over {MAX_CROP_CELLS}",
    )
    specs = [(f"suite.scenarios[{i}]", s) for i, s in enumerate(cfg.scenarios)]
    specs += [("track.scenario", cfg.track_scenario), ("dump.scenario", cfg.dump_scenario)]
    for where, spec in specs:
        sc = _at_load(where, resolve_scenario, spec, 0)
        size = (sc.num_frames, sc.channels, sc.height, sc.width)
        cells = math.prod(size)
        _expect(
            cells <= MAX_SEQUENCE_CELLS,
            f"{where}: num_frames x channels x height x width = {'x'.join(map(str, size))}"
            f" = {cells} cells, over {MAX_SEQUENCE_CELLS}",
        )
        target = f"a {sc.target_w}x{sc.target_h} target"
        sigma = tracker.resolved_sigma_tc(sc.target_w, sc.target_h)
        _at_load(f"{where}: sigma_tc for {target}", gaussian_normalizer, sigma, 2)
        what = f"{where}: search region for {target}"
        region = _at_load(what, search_region, tracker, sc.target_w, sc.target_h)
        cells = sc.channels * region * region
        _expect(
            cells <= MAX_CROP_CELLS,
            f"{what}: a {sc.channels}x{region}x{region} crop has {cells} cells, over {MAX_CROP_CELLS}",
        )
        if where == "dump.scenario":
            _expect(
                cfg.dump_frame_index < sc.num_frames,
                f"dump.frame_index {cfg.dump_frame_index} out of range for {sc.num_frames} frames",
            )
    dim = BOX_DIM if cfg.sweep_parameter == "sigma_bb" else 2
    for value in cfg.sweep_values:
        _at_load(f"sweep.values {value!r}", gaussian_normalizer, value, dim)


def _cell_seed(master: int, scenario_index: int, repetition: int) -> int:
    return master + 103 * scenario_index + 10_007 * repetition


def _run_cell(frames, truth, cfg: TrackerConfig, scorer):
    """Track frames from truth[0] with one config and its initial box scorer; score against truth."""
    run = run_sequence(frames, truth[0], cfg, scorer)
    return evaluate(truth, run.boxes)


def _cell(spec, seed: int):
    """(scenario, tracker stream) of the cell with this seed."""
    return resolve_scenario(spec, seed), np.random.Generator(np.random.PCG64(seed + TRACKER_RNG_OFFSET))


def _track_cell(scenario: Scenario, tracker_cfgs, scorers):
    """Render one cell's sequence and track it once per config, each with its initial box scorer."""
    frames = generate_sequence(scenario)  # held only by this call: one at a time in a serial suite
    truth = [scenario.target_box(t) for t in range(scenario.num_frames)]
    return [_run_cell(frames, truth, c, scorer) for c, scorer in zip(tracker_cfgs, scorers)]


def _run_cells(tasks, jobs: int) -> list:
    """Call each zero-arg task; the results come in task order, whatever the order of execution.

    The tasks run on min(jobs, len(tasks)) threads, or serially when that
    is 1: the pool starts a thread per submitted task while none is idle.
    """
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [fn() for fn in tasks]
    # Imported here, so a serial run does not load the pool's modules.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn) for fn in tasks]
        return [fut.result() for fut in futures]


def _suite_metrics(cfg: RunConfig, variants, master_seed: int, jobs: int):
    """Mean (auc, op50, op75) over the whole suite, one triple per variant.

    A variant is a dict of field overrides of cfg.tracker, applied with
    scorer_init "train".  Every (scenario, repetition) cell, in
    scenario-major order, is resolved and one init_scorers call builds the
    box scorers of every cell and variant; nothing about that training
    reads jobs.  Then one task per cell tracks every variant on it, and the
    means run over the cells in scenario-major order.
    """
    tracker_cfgs = [replace(cfg.tracker, scorer_init="train", **overrides) for overrides in variants]
    scenarios, streams = zip(
        *(
            _cell(spec, _cell_seed(master_seed, si, rep))
            for si, spec in enumerate(cfg.scenarios)
            for rep in range(cfg.repetitions)
        )
    )
    scorers = init_scorers(tracker_cfgs, zip((sc.target_box(0) for sc in scenarios), streams))
    del streams  # tracking draws nothing from them
    tasks = [partial(_track_cell, sc, tracker_cfgs, row) for sc, row in zip(scenarios, scorers)]
    cells = _run_cells(tasks, jobs)
    return [
        (
            float(np.mean([m.auc for m in metrics])),
            float(np.mean([m.op_at(0.50) for m in metrics])),
            float(np.mean([m.op_at(0.75) for m in metrics])),
        )
        for metrics in zip(*cells)
    ]


def _write_csv(path: Path, header: list[str], rows: list[list]):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows(rows)


def cmd_compare_losses(cfg: RunConfig, seed: int, out_dir: Path, jobs: int) -> Path:
    """Benchmark all four loss models on identical sequences."""
    variants = [{"loss_model": model} for model in LOSS_MODELS]
    rows = [
        [model, repr(auc), repr(op50), repr(op75)]
        for model, (auc, op50, op75) in zip(LOSS_MODELS, _suite_metrics(cfg, variants, seed, jobs))
    ]
    path = out_dir / "compare_losses.csv"
    _write_csv(path, ["model", "auc", "op_0.50", "op_0.75"], rows)
    return path


def cmd_sigma_sweep(cfg: RunConfig, seed: int, out_dir: Path, jobs: int) -> Path:
    """AUC of the divergence-loss tracker as the swept sigma varies."""
    values = sorted(cfg.sweep_values)
    variants = [{"loss_model": "kl", cfg.sweep_parameter: value} for value in values]
    rows = [
        [repr(float(value)), repr(auc)]
        for value, (auc, _, _) in zip(values, _suite_metrics(cfg, variants, seed, jobs))
    ]
    path = out_dir / "sigma_sweep.csv"
    _write_csv(path, ["sigma", "auc"], rows)
    return path


def cmd_track(cfg: RunConfig, seed: int, out_dir: Path) -> Path:
    """Track one sequence, rendered a frame at a time; write a per-frame trace and summary metrics."""
    scenario, rng = _cell(cfg.track_scenario, _cell_seed(seed, 0, 0))
    truth = [scenario.target_box(t) for t in range(scenario.num_frames)]
    [[scorer]] = init_scorers([cfg.tracker], [(truth[0], rng)])
    run = run_sequence(render_frames(scenario), truth[0], cfg.tracker, scorer)
    metrics = evaluate(truth, run.boxes)
    trace_path = out_dir / "track_trace.csv"
    trace = [
        [t, *(repr(float(v)) for v in (*box, iou_xywh(box, gt))), int(missing), repr(float(mass))]
        for t, (box, gt, missing, mass) in enumerate(zip(run.boxes, truth, run.missing, run.peak_mass))
    ]
    _write_csv(trace_path, ["frame", "cx", "cy", "w", "h", "iou", "missing", "peak_mass"], trace)
    _write_csv(
        out_dir / "track_metrics.csv",
        ["auc", "op_0.50", "op_0.75"],
        [[repr(metrics.auc), repr(metrics.op_at(0.50)), repr(metrics.op_at(0.75))]],
    )
    return trace_path


# Boxes per value_batch call of _score_slice: a slice's peak memory is its
# (n, n) output plus a few blocks of this many boxes, whatever n is.
_SLICE_BLOCK = 1 << 16


def _score_slice(scorer, base, axes: tuple[int, int], offsets: np.ndarray) -> np.ndarray:
    """exp(score) of the boxes base + offsets on an (n, n) grid, a block of rows per value_batch call.

    Columns step box parameter axes[0] and rows step axes[1] through the n offsets.
    """
    n = offsets.size
    out = np.empty((n, n))
    rows = _SLICE_BLOCK // n  # n <= 2047: dump.slice_cells is bounded at load
    for start in range(0, n, rows):
        block = offsets[start : start + rows]
        boxes = np.tile(np.asarray(base, dtype=np.float64), (block.size * n, 1))
        boxes[:, axes[0]] += np.tile(offsets, block.size)
        boxes[:, axes[1]] += np.repeat(block, n)
        with np.errstate(over="ignore"):  # a score past the float range is -inf: exp reads its limit 0
            out[start : start + block.size] = np.exp(scorer.value_batch(boxes)).reshape(block.size, n)
    return out


def cmd_dump_density(cfg: RunConfig, seed: int, out_dir: Path) -> list[Path]:
    """Dump the stage-1 density and two box-scorer slices at one frame, rendering no later frame.

    The center density covers the search region around the previous box.
    The center slice evaluates exp(score) over box-center offsets of up to
    one full width/height; the size slice covers log-size offsets in
    [-log 3, log 3] (a third to three times the current size).
    """
    frame_index = cfg.dump_frame_index
    scenario, rng = _cell(cfg.dump_scenario, _cell_seed(seed, 0, 0))
    box = scenario.target_box(0)
    [[scorer]] = init_scorers([cfg.tracker], [(box, rng)])
    frames = render_frames(scenario)
    state = track_init(next(frames), box, cfg.tracker, scorer)
    for frame in itertools.islice(frames, frame_index):  # frame_index >= 1: checked at load
        state, _, density = track_step(state, frame)

    n = cfg.dump_slice_cells
    _, _, w, h = state.current_box
    # Box parameters are (dx/w0, dy/h0, log w, log h) relative to the
    # stage-1 center, with the current size as reference, so offsets of one
    # full width/height are exactly +-1 in parameter space.
    base = box_encode(w, h)
    center_slice = _score_slice(state.scorer, base, (0, 1), np.linspace(-1.0, 1.0, n))
    log3 = math.log(3.0)
    size_slice = _score_slice(state.scorer, base, (2, 3), np.linspace(-log3, log3, n))

    paths = [
        out_dir / f"center_density_f{frame_index}.txt",
        out_dir / f"bb_center_slice_f{frame_index}.txt",
        out_dir / f"bb_size_slice_f{frame_index}.txt",
    ]
    dump_grid(density.grid, paths[0])
    dump_grid(Grid2D(center_slice), paths[1])
    dump_grid(Grid2D(size_slice), paths[2])
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="prtrack", description="synthetic probabilistic-tracking benchmarks"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    suites = {"compare-losses": cmd_compare_losses, "sigma-sweep": cmd_sigma_sweep}
    for name, doc in (
        ("compare-losses", "benchmark the four loss models"),
        ("sigma-sweep", "sweep a label sigma for the divergence model"),
        ("track", "track one synthetic sequence"),
        ("dump-density", "dump density and scorer slices as text grids"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", default=None, help="JSON configuration file")
        p.add_argument("--seed", type=int, default=1, help="master seed (default 1)")
        p.add_argument("--out", default=".", help="output directory (default .)")
        if name in suites:
            p.add_argument("--jobs", type=int, default=1, help="parallel evaluation cells")
    args = parser.parse_args(argv)
    out_dir = Path(args.out)

    try:
        cfg = load_config(args.config)
        if args.command in suites and args.jobs < 1:
            raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
        if args.seed < 0:
            raise UsageError(f"--seed must be nonnegative, got {args.seed}")
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot create output directory {out_dir}: {exc.strerror or exc}") from exc
        if args.command in suites:
            paths = [suites[args.command](cfg, args.seed, out_dir, args.jobs)]
        elif args.command == "track":
            paths = [cmd_track(cfg, args.seed, out_dir), out_dir / "track_metrics.csv"]
        else:
            paths = cmd_dump_density(cfg, args.seed, out_dir)
        for path in paths:
            print(f"wrote {path}")
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write {exc.filename or out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except PrtrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
