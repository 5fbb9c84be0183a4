"""One benchmark run: set-up timing, a warm-up pass, timed passes, checks, metrics.

End-to-end metrics come from passes with tracing off.  A traced run adds
one traced pass after an untraced one; the per-layer metrics are read off
its spans, and the difference of the two pass times is the tracing
overhead.  One caller drives the library in-process, in a closed loop: a
pass starts when the previous one has finished.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from spans import Tracer
from workloads import WORKLOADS, Checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_SAMPLES = 7       # fresh-interpreter imports per run; their median is setup_s
IMPORTTIME_SAMPLES = 3
IMPORT_CODE = ("import time; t = time.perf_counter(); import widebeam.cli; "
               "print(time.perf_counter() - t)")

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
    "worst_case_gain": "gain",
    "prototype_gain": "gain",
}
PER_LAYER = {
    "codebook.evaluate.s": "s",
    "codebook.evaluate.calls": "count",
    "codebook.evaluate.cells": "count",
    "codebook.evaluate.cells_per_s": "1/s",
    "codebook.evaluate.per_zone_spread": "gain",
    "alm.s": "s",
    "alm.calls": "count",
    "alm.iters": "count",
    "alm.s_per_iter": "s",
    "alm.improved_ratio": "ratio",
    "alm.iters_after_best_ratio": "ratio",
    "zones.s": "s",
    "prv.s": "s",
    "prv.calls": "count",
    "codebook.shift.s": "s",
    "storage.write.s": "s",
    "storage.read.s": "s",
    "storage.bytes": "bytes",
    "storage.MBps": "MB/s",
    "narrowband.codebook.s": "s",
    "narrowband.closed_form.s": "s",
    "narrowband.max_err_over_tol": "ratio",
    "setup.scipy_import_s": "s",
    "trace.overhead_s": "s",
}
# stages reported per array size, beside the reference table in RESULTS.md
STAGES = ("zones", "prv", "alm", "codebook.shift", "codebook.evaluate",
          "storage.write", "storage.read")


def _fresh_import(*flags: str) -> subprocess.CompletedProcess:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *flags, "-c", IMPORT_CODE], env=env,
                          capture_output=True, text=True, check=True, timeout=120)


def setup_seconds() -> float:
    """Median time a fresh interpreter takes to import widebeam.cli."""
    _fresh_import()  # leaves the bytecode caches a first import writes
    return statistics.median(float(_fresh_import().stdout) for _ in range(SETUP_SAMPLES))


def scipy_import_share(log: str) -> float:
    """Seconds spent importing scipy, from a `python -X importtime` log.

    The log lists each import after the imports it caused, one indent level
    deeper, so reading it backwards meets every parent before its children.
    The share is the cumulative time of the scipy modules that no other
    scipy module imported.
    """
    total_us = 0
    enclosing: list[tuple[int, bool]] = []   # (indent, is scipy) of open parents
    for line in reversed(log.splitlines()):
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        indent = len(name) - len(name.lstrip())
        while enclosing and enclosing[-1][0] >= indent:
            enclosing.pop()
        module = name.strip()
        is_scipy = module == "scipy" or module.startswith("scipy.")
        if is_scipy and not any(s for _, s in enclosing):
            total_us += int(cumulative)
        enclosing.append((indent, is_scipy))
    return total_us / 1e6


def scipy_import_seconds() -> float:
    return statistics.median(scipy_import_share(_fresh_import("-X", "importtime").stderr)
                             for _ in range(IMPORTTIME_SAMPLES))


def git_sha() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment(seed: int) -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": " ".join(str(blas.get(k, "")) for k in ("name", "version",
                                                        "openblas configuration")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "seed": seed,
    }


def layer_metrics(tr: Tracer) -> dict:
    def total(name, key):
        return sum(s.attrs[key] for s in tr.named(name))

    def ratio(a, b):
        return a / b if b else 0.0

    evaluate_s = tr.self_time("codebook.evaluate")
    cells = total("codebook.evaluate", "cells")
    alm_s = tr.self_time("alm")
    solves = len(tr.named("alm"))
    iters = total("alm", "iters")
    write_s = tr.self_time("storage.write")
    read_s = tr.self_time("storage.read")
    written = total("storage.write", "bytes")
    return {
        "codebook.evaluate.s": evaluate_s,
        "codebook.evaluate.calls": len(tr.named("codebook.evaluate")),
        "codebook.evaluate.cells": cells,
        "codebook.evaluate.cells_per_s": ratio(cells, evaluate_s),
        "codebook.evaluate.per_zone_spread": max(
            (s.attrs["per_zone_spread"] for s in tr.named("codebook.evaluate")), default=0.0),
        "alm.s": alm_s,
        "alm.calls": solves,
        "alm.iters": iters,
        "alm.s_per_iter": ratio(alm_s, iters),
        "alm.improved_ratio": ratio(total("alm", "improved"), solves),
        "alm.iters_after_best_ratio": ratio(total("alm", "after_best"), iters),
        "zones.s": tr.self_time("zones"),
        "prv.s": tr.self_time("prv"),
        "prv.calls": len(tr.named("prv")),
        "codebook.shift.s": tr.self_time("codebook.shift"),
        "storage.write.s": write_s,
        "storage.read.s": read_s,
        "storage.bytes": written,
        "storage.MBps": ratio(written + total("storage.read", "bytes"), write_s + read_s) / 1e6,
        "narrowband.codebook.s": tr.self_time("narrowband.codebook"),
        "narrowband.closed_form.s": tr.self_time("narrowband.closed_form"),
        "narrowband.max_err_over_tol": max(
            (s.attrs["err_over_tol"] for s in tr.named("narrowband.closed_form")), default=0.0),
    }


def stage_table(tr: Tracer) -> dict:
    """Self seconds of each design and evaluation stage, by array size N."""
    table: dict = {}
    for s, t in zip(tr.spans, tr.self_times()):
        if s.name in STAGES and "N" in s.attrs:
            row = table.setdefault(s.attrs["N"], {})
            row[s.name] = row.get(s.name, 0.0) + t
    return dict(sorted(table.items()))


def measure(wl, seed: int, seconds: float, trace: bool) -> tuple[dict, Checks, dict]:
    """Run one workload; return its metrics, its checks and a record for the log."""
    checks = Checks()
    inputs = wl.inputs(seed)
    off = Tracer(False)
    setup = None if trace else setup_seconds()
    # warm-up: a first call is several times slower than later ones
    wl.check(inputs, wl.run(inputs, off), checks)
    times = []
    start = time.perf_counter()
    while True:
        # drop the last pass's outputs first, so that peak memory does not
        # depend on how many passes fit in `seconds`
        out = None
        t0 = time.perf_counter()
        out = wl.run(inputs, off)
        times.append(time.perf_counter() - t0)
        wl.check(inputs, out, checks)
        # stop when another pass as long as the last would overrun `seconds`
        if trace or time.perf_counter() - start + times[-1] > seconds:
            break
    record = {"pass_s": times}
    if trace:
        tr = Tracer(True, run_id=f"{wl.name}-seed{seed}-{time.time_ns()}")
        t0 = time.perf_counter()
        with tr.span(wl.name):
            traced = wl.run(inputs, tr)
        traced_s = time.perf_counter() - t0
        wl.check(inputs, traced, checks)
        wl.agree(inputs, out, traced, checks)
        metrics = {**layer_metrics(tr),
                   "setup.scipy_import_s": scipy_import_seconds(),
                   "trace.overhead_s": traced_s - times[0]}
        record.update(traced_pass_s=traced_s, stages_by_N=stage_table(tr), spans=tr.records())
    else:
        worst, prototype = wl.quality(inputs, out)
        metrics = {
            "run_s": statistics.median(times),
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_rate": 1.0 - len(checks.failures) / checks.attempted,
            "worst_case_gain": worst,
            "prototype_gain": prototype,
        }
    return metrics, checks, record


def _number(v):
    return int(v) if isinstance(v, (int, np.integer)) and not isinstance(v, bool) else float(v)


def main(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Measure, print a readable summary, log the record, print the result line last."""
    env = environment(seed)
    metrics, checks, record = measure(wl, seed, seconds, trace)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": _number(metrics[k]), "unit": u} for k, u in units.items()},
    }
    print(f"workload {wl.name}, seed {seed}, trace {int(trace)}")
    print("environment " + json.dumps(env))
    for failure in checks.failures:
        print(f"check failed: {failure}")
    print(f"error_rate = {result['failed'] / result['attempted']!r} "
          f"({result['failed']} of {result['attempted']} checks)")
    for k, m in result["metrics"].items():
        print(f"{k} = {m['value']!r} {m['unit']}")
    for n, row in record.get("stages_by_N", {}).items():
        print(f"N={n}: " + ", ".join(f"{k} {v:.4f} s" for k, v in row.items()))
    RESULTS.mkdir(exist_ok=True)
    log = RESULTS / f"{wl.name}-seed{seed}-trace{int(trace)}.json"
    log.write_text(json.dumps({"environment": env, **result,
                               "failures": checks.failures, **record}, indent=1) + "\n")
    print(json.dumps(result))
    return result
