"""A fixed reference task that gauges how fast the host runs at the moment.

On a host that shares its cores with other tenants the same prtrack
invocation can take between 1x and 2x its best time, and the speed drifts
within seconds and over minutes (measured on a 2-vCPU cloud VM, Intel Xeon
at 2.1 GHz). So the benchmark also times this small task, which never
changes and uses no prtrack code, and run.py scales the program's times by
``NOMINAL_S / reference time``.

A sampler process (``python3 reference.py <cpu> <out.json>``), pinned to
one core, runs the task every ``INTERVAL_S`` seconds while the program is
measured, until it receives SIGTERM. run.py keeps that core busy with the
program (set-up samples and ``--jobs 1`` calls are pinned to it, a
``--jobs 2`` call occupies both cores), so the sampler always shares a
working core and reads how fast it runs, whatever the program's threads
or processes look like.

Each sampled pass is timed in thread CPU time after an untimed warm-up
pass, so a reading leaves out the time the sampler waited for the core.
The task mirrors the program's profile: small-array NumPy calls driven
from the interpreter.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import sys
import time

import numpy as np

INTERVAL_S = 0.1
_GRID = np.random.Generator(np.random.PCG64(20_200_327)).standard_normal((16, 16))


def _task() -> float:
    acc = 0.0
    for i in range(100):
        acc += float(np.exp(_GRID * 0.01).sum()) + sum(range(i))
    if not acc > 0:
        raise ArithmeticError("reference task lost its sum")
    return acc


def _pass_seconds() -> float:
    _task()
    start = time.thread_time()
    _task()
    return time.thread_time() - start


def typical(samples) -> float:
    """Mean of the samples without the lowest and highest 5 %."""
    xs = sorted(samples)
    k = len(xs) // 20
    return statistics.fmean(xs[k : len(xs) - k])


def sample_until_terminated(out_path: str) -> None:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    samples = []
    while not stop:
        samples.append(_pass_seconds())
        time.sleep(INTERVAL_S)
    with open(out_path, "w") as fh:
        json.dump({"samples": len(samples), "typical_s": typical(samples) if samples else None}, fh)


if __name__ == "__main__":
    os.sched_setaffinity(0, {int(sys.argv[1])})
    sample_until_terminated(sys.argv[2])
