"""Summaries with sample counts, the machine block, and result printing."""
from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(values, q: float) -> dict:
    """The ``q``-th percentile with its sample count.

    ``supported`` says whether at least ten samples lie beyond it, the rule
    for reporting a tail percentile.
    """
    n = len(values)
    return {"value": percentile(values, q), "n": n,
            "supported": q == 50 or n * (100 - q) / 100.0 >= 10}


def metric(value, unit: str, n: int, **extra) -> dict:
    return {"value": float(value), "unit": unit, "n": int(n), **extra}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads_in_effect():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine_block(root: Path, seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "blas_threads_in_effect": _blas_threads_in_effect(),
        "seed": seed,
        "git_commit": _git_commit(root),
    }


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        extra = "" if m.get("supported", True) else "  (fewer than 10 samples beyond it)"
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}{extra}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    })

