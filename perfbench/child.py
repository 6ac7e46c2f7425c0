"""One measured prtrack invocation, run in a fresh interpreter by run.py.

Usage: python3 child.py <request.json> <result.json>

The request names the repository root, the workload config file, the CLI
arguments for ``prtrack.harness.main`` and whether to trace.  Mode "setup"
stops after the import and the config validation; mode "run" then calls
the CLI entry.  A request that names a core pins the interpreter to it
first.  BLAS thread pools are pinned to one thread before NumPy loads, so
at ``--jobs N`` the run uses at most N compute threads.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
    }


def main(request_path: str, result_path: str) -> int:
    with open(request_path) as fh:
        req = json.load(fh)
    if req["cpu"] is not None:
        os.sched_setaffinity(0, {req["cpu"]})
    src = os.path.join(req["root"], "src")
    sys.path.insert(0, src)

    import numpy as np

    import prtrack
    import prtrack.harness as harness

    if not os.path.abspath(prtrack.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"prtrack imported from {prtrack.__file__}, not from {src}")
    harness.load_config(req["config"])
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s, "env": _environment(np)}
    if req["mode"] == "run":
        tracer = None
        if req["trace"]:
            import tracer as tracing

            modules = {
                name.split(".", 1)[1]: module
                for name, module in sys.modules.items()
                if name.startswith("prtrack.")
            }
            tracer = tracing.Tracer()
            tracer.install(modules)
        cpu0 = _cpu_s()
        t1 = time.perf_counter()
        if tracer is None:
            rc = harness.main(req["argv"])
        else:
            rc = tracer.run_root(harness.main, req["argv"])
        result["wall_s"] = time.perf_counter() - t1
        result["cpu_s"] = _cpu_s() - cpu0
        result["rc"] = rc
        if tracer is not None:
            metrics, checks = tracing.layer_metrics(
                tracer.spans, req["jobs"], req["expected_cells"], req["expected_steps"]
            )
            result["layers"] = metrics
            result["trace_checks"] = checks
            result["spans"] = len(tracer.spans)
            tracing.write_spans(tracer.spans, req["spans_path"])

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
