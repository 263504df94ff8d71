"""Reference kernels: fixed NumPy work that times the machine, not diffpol.

The 2-vCPU host this benchmark was built on changes speed by up to 1.8x
within minutes (neighbours on the host), with no change in the program.
Each end-to-end time is therefore paired with a reference kernel timed
right next to it, and reported as it would read on a machine where the
kernel takes its nominal time.  A kernel imitates the resources its
workload uses, so that contention slows both alike:

* ``train``: forward, backward and Adam of a tanh MLP at the test_07
  shapes (B=64, hidden=384), as one step of ``train()`` does.
* ``small``: batch-1 forward passes with small-array NumPy calls in a
  Python loop, as rollouts, demo generation and aln's per-sample draws
  do.

The kernels are the benchmark's own code and must never change: a change
would rescale every normalised figure.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

HIDDEN = 384
D_IN = 17 + 16 * 2 + 128      # observation features, action window, embed
D_OUT = 16 * 2
TRAIN_BATCH = 64
TRAIN_STEPS = 10
SMALL_CALLS = 100

# Nominal kernel times (seconds), rounded from their medians on the
# baseline machine (Intel Xeon, 2 vCPU, numpy 2.4.6, OpenBLAS 0.3.31, one
# BLAS thread).  Normalised figures read as on a machine this fast.
NOMINAL_S = {"train": 0.100, "small": 0.020}


class RefKernels:
    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        dims = [D_IN, HIDDEN, HIDDEN, HIDDEN, D_OUT]
        self.ws = [rng.standard_normal((a, b)) / np.sqrt(a)
                   for a, b in zip(dims[:-1], dims[1:])]
        self.bs = [np.zeros(b) for b in dims[1:]]
        self.x = rng.standard_normal((TRAIN_BATCH, D_IN))
        self.y = rng.standard_normal((TRAIN_BATCH, D_OUT))
        n = sum(w.size + b.size for w, b in zip(self.ws, self.bs))
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.x1 = self.x[:1].copy()
        self.sink = 0.0
        self.seen: dict[str, list[float]] = {k: [] for k in NOMINAL_S}

    def _forward(self, x):
        hs = [x]
        for i, (w, b) in enumerate(zip(self.ws, self.bs)):
            h = hs[-1] @ w + b
            hs.append(np.tanh(h) if i < len(self.ws) - 1 else h)
        return hs

    def _train_step(self) -> None:
        hs = self._forward(self.x)
        g = 2.0 * (hs[-1] - self.y) / self.y.size
        grads = []
        for i in range(len(self.ws) - 1, -1, -1):
            grads.append(g.sum(axis=0))
            grads.append((hs[i].T @ g).ravel())
            if i:
                g = (g @ self.ws[i].T) * (1.0 - hs[i] * hs[i])
        flat = np.concatenate(grads)
        # Adam moments only: the weights stay fixed so every call does
        # identical arithmetic
        self.m = 0.9 * self.m + 0.1 * flat
        self.v = 0.999 * self.v + 0.001 * flat * flat
        step = self.m / (np.sqrt(self.v) + 1e-8)
        self.sink += float(step[0])

    def _small_call(self) -> None:
        y = self._forward(self.x1)[-1].reshape(16, 2)
        pos = np.zeros(2)
        for a in y[:4]:
            pos = np.clip(pos + 0.01 * a, -1.0, 1.0)
            self.sink += float(np.hypot(pos[0], pos[1]))

    def time(self, kind: str) -> float:
        """Seconds one run of the ``kind`` kernel takes now."""
        fn, n = ((self._train_step, TRAIN_STEPS) if kind == "train"
                 else (self._small_call, SMALL_CALLS))
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        return time.perf_counter() - t0

    def slowdown(self, kind: str) -> float:
        """How much slower than nominal the machine runs now (above 1:
        slower).  A time divided by it reads as at nominal speed."""
        k = self.time(kind) / NOMINAL_S[kind]
        self.seen[kind].append(k)
        return k

    def median_slowdown(self, kind: str) -> float:
        return statistics.median(self.seen[kind]) if self.seen[kind] else 0.0
