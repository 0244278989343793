"""One repetition of a workload, run as a fresh process by ``run.py``.

It imports ``kickstab``, loads the workload's config, builds the
``Pipeline`` and runs the stage list, recording CLOCK_MONOTONIC timestamps
(shared with the parent process) and process CPU time around the stages.
A stage that raises is recorded with its error class and the next stage
still runs.  With ``--setup-only`` it stops once the pipeline is built.
With ``--trace`` it wraps the package's public functions (see ``layertrace.py``)
and records a tracemalloc peak per stage.

Usage (normally started by run.py):
    python3 perfbench/child.py --config C --out DIR --stages a,b --seed N \
        --result R.json [--trace] [--setup-only]
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return None


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    def blas(show_config):
        info = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy.show_config),
            "scipy_blas": blas(scipy.show_config), "blas_threads": _blas_threads()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--stages", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    rec = {"stages": {}, "errors": {}}
    t_import = time.monotonic()
    import kickstab
    from kickstab.cli import Pipeline
    from kickstab.config import load_config
    t_config = time.monotonic()
    cfg = load_config(args.config)
    # no threads argument: the program picks its own ensemble thread count
    pipe = Pipeline(cfg, args.out, seed_override=args.seed)
    t_ready = time.monotonic()
    rec.update(kickstab_file=kickstab.__file__, t_ready=t_ready,
               import_s=t_config - t_import, config_s=t_ready - t_config)
    if args.setup_only:
        _write(args.result, rec)
        return 0

    tracer = None
    if args.trace:
        import tracemalloc

        from layertrace import Tracer  # script directory is on sys.path

        tracer = Tracer()
        tracer.install()
        tracemalloc.start()

    stages = args.stages.split(",")
    cpu0, t0 = _cpu_s(), time.monotonic()
    for st in stages:
        if tracer is not None:
            tracemalloc.reset_peak()
        s0 = time.monotonic()
        try:
            pipe.run_stage(st)
        except Exception as exc:  # a failing stage is a counted outcome, not a crash
            rec["errors"][st] = type(exc).__name__
            traceback.print_exc()
        entry = {"s": time.monotonic() - s0}
        if tracer is not None:
            entry["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        rec["stages"][st] = entry
    t1, cpu1 = time.monotonic(), _cpu_s()
    rec.update(t_first=t0, t_last=t1, cpu_s=cpu1 - cpu0, environment=_environment())
    if tracer is not None:
        tracemalloc.stop()
        tracer.uninstall()
        rec["layers"] = tracer.summary()
    _write(args.result, rec)
    return 0


def _write(path, rec):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec, fh)


if __name__ == "__main__":
    sys.exit(main())
