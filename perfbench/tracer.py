"""Outside-in span tracer for the prtrack benchmark.

The tracer wraps public functions of the prtrack modules from outside the
package: every module attribute that *is* a target function is replaced by
one timing wrapper, so each call is seen through the name its caller module
uses (``tracker.optimize``, ``bbox.kl_mc_loss``, ...).  Spans are kept in
memory as plain tuples and written out once, after the run.

A span is ``(id, name, start, end, parent, cell, thread, attrs)``.  The
parent is the innermost open span of the same thread; a span opened on a
thread with no open span (an executor worker) gets the root span as its
parent.  ``cell`` is the id of the enclosing ``harness._run_cell`` span, so
one cell's spans share it.  ``attrs`` holds the exact counts a probe reads
off the call's arguments and result.

Calls made where the wrappers cannot see them (another process, or a code
path that no longer goes through the wrapped names) leave their layer with
too few spans; ``layer_metrics`` then reports that layer's metrics as
``None`` (unmeasured), never as zero.
"""

from __future__ import annotations

import functools
import itertools
import math
import statistics
import threading
import time

# (module, function) pairs to wrap, named where they are defined.  Every
# module in the package that holds the same function object gets the wrapper.
TARGETS = (
    ("harness", "_run_cell"),
    ("tracker", "generate_sequence"),
    ("tracker", "evaluate"),
    ("tracker", "track_init"),
    ("tracker", "track_step"),
    ("center_optimizer", "optimize"),
    ("center_optimizer", "init_weights"),
    ("gridmath", "conv_apply"),
    ("density", "normalize"),
    ("labels", "label_grid"),
    ("labels", "proposal_sample"),
    ("labels", "proposal_density"),
    ("labels", "gaussian_density"),
    ("losses", "kl_mc_loss"),
    ("bbox", "train_box_scorer"),
    ("bbox", "refine_box"),
)

ROOT = "harness.main"


def _probe_step(args, kwargs, result):
    return (1 if result[0].missing else 0,)


def _probe_optimize(args, kwargs, result):
    support = args[1] if len(args) > 1 else kwargs["support"]
    rows = result[1][:-1]  # the final row records the end state, not an iteration
    moving = sum(1 for r in rows if r.grad_norm > 0.0)
    accepted = sum(1 for r in rows if r.step_length > 0.0)
    return (len(rows), moving, accepted, len(support))


def _probe_conv(args, kwargs, result):
    z = args[0] if args else kwargs["z"]
    w = args[1] if len(args) > 1 else kwargs["w"]
    c, h, wd = z.values.shape
    _, kh, kw = w.values.shape
    return (2 * c * h * wd * kh * kw,)


def _probe_proposals(args, kwargs, result):
    return (1 if result.ndim == 1 else int(result.shape[0]),)


PROBES = {
    "tracker.track_step": _probe_step,
    "center_optimizer.optimize": _probe_optimize,
    "gridmath.conv_apply": _probe_conv,
    "labels.proposal_sample": _probe_proposals,
}


class Tracer:
    """Collects spans from wrapped functions; install once per process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, args, kwargs, probe=None):
        """Call fn(*args, **kwargs) inside a span named name."""
        stack = self._stack()
        if stack:
            parent, cell = stack[-1][0], stack[-1][1]
        else:
            parent, cell = self._root, None
        sid = next(self._ids)
        if name == "harness._run_cell":
            cell = sid
        stack.append((sid, cell))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        attrs = probe(args, kwargs, result) if probe is not None else ()
        self.spans.append((sid, name, start, end, parent, cell, threading.get_ident(), attrs))
        return result

    def run_root(self, fn, *args):
        """Run the whole program call as the root span."""
        self._root = next(self._ids)
        self._stack().append((self._root, None))
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack().pop()
            self.spans.append((self._root, ROOT, start, end, None, None, threading.get_ident(), ()))

    def install(self, package_modules: dict):
        """Wrap every TARGETS function wherever the package references it.

        A target the package no longer has is skipped; its metrics then
        read as unmeasured.
        """
        for mod_name, fn_name in TARGETS:
            original = getattr(package_modules.get(mod_name), fn_name, None)
            if original is None:
                continue
            name = f"{mod_name}.{fn_name}"
            wrapper = self._wrap(name, original, PROBES.get(name))
            for module in package_modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, name, fn, probe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, args, kwargs, probe)

        return wrapper


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_checks(spans) -> dict:
    """Self time per span and the tracer's own consistency checks.

    Self time is a span's duration minus the union of its children's
    intervals.  A child on its parent's thread must lie inside the parent
    and must not overlap a sibling on that thread; each breach counts as a
    nesting error.  With proper nesting the self times sum to the root's
    duration plus the time executor threads spent inside top-level spans
    that the root does not already cover, which for one thread is the root
    duration itself; ``self_sum_error`` is the relative gap.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append(s)
    errors = 0
    self_time = {}
    for s in spans:
        kids = children.get(s[0], [])
        same = sorted((k for k in kids if k[6] == s[6]), key=lambda k: k[2])
        for k in same:
            if k[2] < s[2] or k[3] > s[3]:
                errors += 1
        for a, b in zip(same, same[1:]):
            if b[2] < a[3]:
                errors += 1
        self_time[s[0]] = (s[3] - s[2]) - _union_length([(k[2], k[3]) for k in kids])
    errors += sum(1 for v in self_time.values() if v < -1e-9)
    root = next((s for s in spans if s[1] == ROOT), None)
    if root is None:
        return {
            "self_time": self_time,
            "nesting_errors": errors + 1,
            "self_sum_error": math.inf,
            "root_s": 0.0,
        }
    root_dur = root[3] - root[2]
    cross = [k for k in children.get(root[0], []) if k[6] != root[6]]
    cross_union = _union_length([(k[2], k[3]) for k in cross])
    expected = root_dur + sum(k[3] - k[2] for k in cross) - cross_union
    got = sum(self_time.values())
    missing_parents = sum(1 for s in spans if s[4] is not None and s[4] not in by_id)
    return {
        "self_time": self_time,
        "nesting_errors": errors + missing_parents,
        "self_sum_error": abs(got - expected) / root_dur if root_dur > 0 else math.inf,
        "root_s": root_dur,
    }


def _pct(values, q: int):
    """The q-th percentile (statistics.quantiles, n=100), or the value for one sample."""
    if not values:
        return None
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# Metrics reported by the traced run, with their units.  The unit list is the
# single source for BENCHMARK.json's per-layer section and for the output.
LAYER_METRICS = {
    "harness.cells": "count",
    "harness.cell_p50_s": "s",
    "harness.cell_p75_s": "s",
    "harness.cell_busy_s": "s",
    "harness.idle_s": "s",
    "tracker.generate_sequence.calls": "count",
    "tracker.generate_sequence.s": "s",
    "tracker.track_step.calls": "count",
    "tracker.track_step.p50_ms": "ms",
    "tracker.track_step.p95_ms": "ms",
    "tracker.track_step.self_s": "s",
    "tracker.track_init.calls": "count",
    "tracker.track_init.p50_ms": "ms",
    "tracker.track_init.p75_ms": "ms",
    "tracker.track_init.self_s": "s",
    "tracker.miss_ratio": "ratio",
    "tracker.evaluate.s": "s",
    "center_optimizer.optimize.online.calls": "count",
    "center_optimizer.optimize.online.s": "s",
    "center_optimizer.optimize.init.calls": "count",
    "center_optimizer.optimize.init.s": "s",
    "center_optimizer.optimize.iterations": "count",
    "center_optimizer.optimize.accepted_ratio": "ratio",
    "center_optimizer.optimize.support_mean": "count",
    "center_optimizer.init_weights.s": "s",
    "gridmath.conv_apply.calls": "count",
    "gridmath.conv_apply.s": "s",
    "gridmath.conv_apply.gflop": "GFLOP",
    "density.normalize.calls": "count",
    "density.normalize.s": "s",
    "labels.label_grid.s": "s",
    "labels.proposal_sample.s": "s",
    "labels.proposal_density.s": "s",
    "labels.gaussian_density.s": "s",
    "losses.kl_mc_loss.calls": "count",
    "losses.kl_mc_loss.s": "s",
    "bbox.train_box_scorer.calls": "count",
    "bbox.train_box_scorer.self_s": "s",
    "bbox.proposals_drawn": "count",
    "bbox.refine_box.calls": "count",
    "bbox.refine_box.s": "s",
}

# Counts that depend only on the inputs; two traced runs of one seed must agree.
EXACT = (
    "harness.cells",
    "gridmath.conv_apply.calls",
    "gridmath.conv_apply.gflop",
    "center_optimizer.optimize.iterations",
    "center_optimizer.optimize.accepted_ratio",
    "center_optimizer.optimize.support_mean",
    "tracker.miss_ratio",
    "bbox.proposals_drawn",
)


def layer_metrics(spans, jobs: int, expected_cells: int, expected_steps: int):
    """Per-layer metrics from one traced run, and the tracer's checks.

    Returns (metrics, checks); a metric is None when unmeasured.  Metrics
    taken inside harness cells (cell timings, sequence generation and
    evaluation) need every expected cell span; all others need every
    expected track_init and track_step span.  A metric whose own function
    was never seen is unmeasured as well.
    """
    checks = span_checks(spans)
    self_time = checks.pop("self_time")
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)
    names = {s[0]: s[1] for s in spans}
    cells_seen = len(by_name.get("harness._run_cell", ())) == expected_cells
    frames_seen = (
        len(by_name.get("tracker.track_init", ())) == expected_cells
        and len(by_name.get("tracker.track_step", ())) == expected_steps
    )
    m: dict[str, float | None] = {}

    def put(key, fn, value, in_cell=False):
        seen = (cells_seen if in_cell else frames_seen) and bool(by_name.get(fn))
        m[key] = value if seen else None

    def durations(name, scale=1.0):
        return [(s[3] - s[2]) * scale for s in by_name.get(name, ())]

    def self_total(name):
        return sum(self_time[s[0]] for s in by_name.get(name, ()))

    def count_and_time(prefix, fn, in_cell=False):
        put(f"{prefix}.calls", fn, len(by_name.get(fn, ())), in_cell)
        put(f"{prefix}.s", fn, sum(durations(fn)), in_cell)

    cell = durations("harness._run_cell")
    root_s = checks["root_s"]
    put("harness.cells", "harness._run_cell", len(cell), True)
    put("harness.cell_p50_s", "harness._run_cell", _pct(cell, 50), True)
    put("harness.cell_p75_s", "harness._run_cell", _pct(cell, 75), True)
    put("harness.cell_busy_s", "harness._run_cell", sum(cell), True)
    put("harness.idle_s", "harness._run_cell", jobs * root_s - sum(cell), True)
    count_and_time("tracker.generate_sequence", "tracker.generate_sequence", True)
    put("tracker.evaluate.s", "tracker.evaluate", sum(durations("tracker.evaluate")), True)

    step, init = "tracker.track_step", "tracker.track_init"
    step_ms, init_ms = durations(step, 1e3), durations(init, 1e3)
    put("tracker.track_step.calls", step, len(step_ms))
    put("tracker.track_step.p50_ms", step, _pct(step_ms, 50))
    put("tracker.track_step.p95_ms", step, _pct(step_ms, 95))
    put("tracker.track_step.self_s", step, self_total(step))
    put("tracker.track_init.calls", init, len(init_ms))
    put("tracker.track_init.p50_ms", init, _pct(init_ms, 50))
    put("tracker.track_init.p75_ms", init, _pct(init_ms, 75))
    put("tracker.track_init.self_s", init, self_total(init))
    missed = sum(s[7][0] for s in by_name.get(step, ()))
    put("tracker.miss_ratio", step, missed / len(step_ms) if step_ms else None)

    opt_name = "center_optimizer.optimize"
    opt = by_name.get(opt_name, ())
    for stage, parent in (("online", step), ("init", init)):
        mine = [s for s in opt if names.get(s[4]) == parent]
        put(f"{opt_name}.{stage}.calls", opt_name, len(mine))
        put(f"{opt_name}.{stage}.s", opt_name, sum(s[3] - s[2] for s in mine))
    moving = sum(s[7][1] for s in opt)
    put(f"{opt_name}.iterations", opt_name, sum(s[7][0] for s in opt))
    accepted = sum(s[7][2] for s in opt) / moving if moving else None
    put(f"{opt_name}.accepted_ratio", opt_name, accepted)
    put(f"{opt_name}.support_mean", opt_name, sum(s[7][3] for s in opt) / len(opt) if opt else None)
    fn = "center_optimizer.init_weights"
    put(f"{fn}.s", fn, sum(durations(fn)))

    count_and_time("gridmath.conv_apply", "gridmath.conv_apply")
    conv_flop = sum(s[7][0] for s in by_name.get("gridmath.conv_apply", ()))
    put("gridmath.conv_apply.gflop", "gridmath.conv_apply", conv_flop / 1e9)
    count_and_time("density.normalize", "density.normalize")
    for fn in ("label_grid", "proposal_sample", "proposal_density", "gaussian_density"):
        put(f"labels.{fn}.s", f"labels.{fn}", sum(durations(f"labels.{fn}")))
    count_and_time("losses.kl_mc_loss", "losses.kl_mc_loss")
    fn = "bbox.train_box_scorer"
    put(f"{fn}.calls", fn, len(by_name.get(fn, ())))
    put(f"{fn}.self_s", fn, self_total(fn))
    drawn = sum(s[7][0] for s in by_name.get("labels.proposal_sample", ()))
    put("bbox.proposals_drawn", "labels.proposal_sample", drawn)
    count_and_time("bbox.refine_box", "bbox.refine_box")
    return m, checks


def write_spans(spans, path):
    """One line per span: id, name, start, end, parent, cell, thread, attrs."""
    with open(path, "w") as fh:
        fh.write("id\tname\tstart_s\tend_s\tparent\tcell\tthread\tattrs\n")
        for sid, name, start, end, parent, cell, thread, attrs in spans:
            fh.write(
                f"{sid}\t{name}\t{start!r}\t{end!r}\t{parent or ''}\t{cell or ''}\t{thread}\t"
                f"{','.join(str(a) for a in attrs)}\n"
            )
