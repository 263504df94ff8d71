"""Machine record printed with every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource

import numpy as np


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_runtime() -> tuple[str, int | None]:
    """(core config, thread count) from the OpenBLAS numpy bundles."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"),
                               ("openblas", "64_"), ("openblas", "")):
            get_cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_n = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_cfg is not None and get_n is not None:
                get_cfg.restype = ctypes.c_char_p
                get_n.restype = ctypes.c_int
                return get_cfg().decode(), int(get_n())
    return "unknown", None


def record(thread_vars) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config, threads = _openblas_runtime()
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": config,
        "blas_threads": threads,
        "thread_env": {v: os.environ.get(v) for v in thread_vars},
    }
