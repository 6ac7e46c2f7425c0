"""Check compare_losses.csv against every digest pinned in perfbench/csv_digests.json.

Usage (from the repository root, no options):

    python3 tests/check_pinned_digests.py

Runs `prtrack compare-losses --jobs 1` on the benchmark's two inputs, the
suite (both presets, 60 frames, 5 repetitions) and init-burst (both presets
cut to 8 frames, 15 repetitions), at every seed pinned for them, prints one
line per mismatch and then the count of matches, and exits 1 unless all
match.  Tier 1 checks seed 1 of each input; this script checks all 60, one
run per worker process on every core the process may use (about three
minutes on one core), and prints its lines in input and seed order.  It
opens the digest file read-only.
"""

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from test_harness import HEADLINE_SUITE, INIT_BURST_SUITE, PINNED_DIGESTS  # noqa: E402

from prtrack.harness import main  # noqa: E402

INPUTS = {"suite": HEADLINE_SUITE, "init-burst": INIT_BURST_SUITE}


def digest(name: str, seed: str) -> str:
    """The sha256 of compare_losses.csv for one input at one seed, or "failed"."""
    with tempfile.TemporaryDirectory() as tmp:
        cfgpath = Path(tmp) / f"{name}.json"
        cfgpath.write_text(json.dumps(INPUTS[name]))
        out = Path(tmp) / "out"
        args = ["compare-losses", "--config", str(cfgpath), "--seed", seed, "--jobs", "1", "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(args)
        if code != 0:
            return "failed"
        return hashlib.sha256((out / "compare_losses.csv").read_bytes()).hexdigest()


def check() -> int:
    with open(PINNED_DIGESTS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    names, seeds, wants = zip(*((name, seed, want) for name in INPUTS for seed, want in pinned[name].items()))
    matches = 0
    workers = len(os.sched_getaffinity(0))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        # map yields in submission order, so the lines come in run order.
        for name, seed, want, got in zip(names, seeds, wants, pool.map(digest, names, seeds)):
            if got == want:
                matches += 1
            else:
                print(f"MISMATCH {name} seed {seed}: {got}", flush=True)
    print(f"{matches}/{len(wants)} pinned digests match")
    return 0 if matches == len(wants) else 1


if __name__ == "__main__":
    sys.exit(check())
