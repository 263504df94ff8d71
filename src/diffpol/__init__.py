"""Diffusion-policy imitation learning with adaptive training and
stage-scheduled inference, plus a toy push benchmark to measure both."""

import os
import sys

__version__ = "0.1.0"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Have numpy's BLAS run one thread, so that training's Adam worker
    process has a core of its own (see ``diffpol.training.train``),
    unless the environment already names a thread count.  BLAS reads
    these once, when numpy loads, so this does nothing once numpy is
    imported."""
    if "numpy" in sys.modules or any(v in os.environ
                                     for v in BLAS_THREAD_VARS):
        return
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
