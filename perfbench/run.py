#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-reddit-process --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` runs with nothing installed and reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` wraps each layer's public
entry points (see ``spans.py``), reports the per-layer metrics and writes
the spans to ``perfbench/out/<workload>-seed<seed>.trace.json``.  A
layer a workload does not run reports 0.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the host (CPU count, library versions, BLAS thread settings,
source revision) and the run's sample counts.  See ``README.md`` beside
this file for the workloads, the metric definitions and the measured
spreads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")
#: One BLAS thread per process.  The host's few cores are shared with the
#: ``process`` backend's rank workers (and with other tenants): a second
#: BLAS thread per process makes every GEMM wait for whichever core is
#: busy, which measures the scheduler.  Set before numpy is imported.
for _name in BLAS_ENV:
    os.environ[_name] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Hard wall-clock limit of one run; a hung run exits non-zero.
TIME_LIMIT_S = 170


def _host() -> dict:
    import numpy
    import scipy
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
    }


def _declared(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _stop_children(grace_s: float = 10.0) -> None:
    """Stop every process this run started and wait for each to end.

    The ``process`` backend joins its rank workers in ``close()``, but its
    shared-memory arenas also start ``multiprocessing``'s resource-tracker
    process, which otherwise outlives the run by the time it takes to
    notice that its parent exited.  Stragglers of either kind are
    terminated, then killed, and always reaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    children = multiprocessing.active_children()
    for proc in children:
        proc.terminate()
    for proc in children:
        proc.join(timeout=grace_s)
        if proc.is_alive():
            proc.kill()
            proc.join()

    tracker = resource_tracker._resource_tracker
    fd, pid = tracker._fd, tracker._pid
    if pid is None:
        return
    # Closing the tracker's pipe tells it to finish; it exits once every
    # holder of the pipe (the parent and the now-reaped workers) is gone.
    if fd is not None:
        os.close(fd)
    tracker._fd = tracker._pid = None
    try:
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            if os.waitpid(pid, os.WNOHANG)[0] == pid:
                return
            time.sleep(0.02)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass  # already reaped


def _timeout(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {TIME_LIMIT_S} s")


def main(argv=None) -> int:
    import serving
    import training

    workloads = sorted(list(training.WORKLOADS) + list(serving.WORKLOADS))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    declared = _declared(bool(args.trace))
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(TIME_LIMIT_S)

    from spans import Tracer
    tracer = Tracer() if args.trace else None
    module = serving if args.workload in serving.WORKLOADS else training
    try:
        result = module.run(args.workload, args.seed, args.seconds, tracer)
    finally:
        signal.alarm(0)
        if tracer is not None:
            tracer.uninstall()
        _stop_children()

    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    values = {}
    for name, unit in declared.items():
        if name not in metrics and not args.trace:
            raise KeyError(f"end-to-end metric {name!r} was not measured")
        value = float(metrics.get(name, 0.0))
        if not math.isfinite(value) or (value <= 0 and not args.trace):
            raise ValueError(f"metric {name!r} measured {value}")
        values[name] = {"value": value, "unit": unit}

    if tracer is not None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write_chrome(
            str(out / f"{args.workload}-seed{args.seed}.trace.json"))
    print(json.dumps({"host": _host(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "info": result["info"]}))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
