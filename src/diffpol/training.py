"""Adaptive training loop for the action denoiser.

Two mechanisms sit on top of plain denoiser regression, both driven by
batch-normalized loss signals:

* a learnable timestep sampler: a small MLP maps each step's sinusoidal
  embedding to a logit, draws are uniform for a warmup period and then
  follow the softmax, and the net is updated by a score-function step on
  ``-r * log pi(k) - entropy_coef * H(pi)``;
* per-trajectory replay weights: an exponential moving average toward
  ``reward + 1`` with a hard floor, renormalized to mean one, with the
  blend factor cosine-annealed over the run.

``mode="uniform"`` disables both and gives the plain baseline.

An adaptive step has two sides that share no array until the next
step's draws: the denoiser's backward pass and Adam, and the sampler
side (the sampler net's update, the replay weights' update and the
sampler's next forward pass).  ``train`` runs the denoiser side on the
calling thread and the sampler side on one worker thread, started as
soon as the forward pass has given the batch losses; the two join
before the step is reported.  Each side's arithmetic is unchanged and
every random draw stays on the calling thread, in the same order, so
the results are bit-identical to running the sides one after the other.

In both modes the denoiser's Adam is split by layer.  A forked worker
process updates layers L-1 .. 1, each as soon as the backward pass is
done with it, while the pass goes on with the layers below; the calling
thread updates layer 0, the last one the pass finishes.  Weights and
gradient live in memory shared with the worker, and every read of the
weights waits for its acknowledgements first.  Where the worker would
have no core to itself (one CPU, or numpy's BLAS on more than one
thread), the calling thread updates each layer itself instead.
Adam works element by element, so the bits are those of one
whole-vector update either way.

The loop computes in ``TrainConfig.dtype`` (float32 by default): both
nets' weights, gradients, Adam moments and batch arrays.  Random draws,
rewards and the draw distribution stay float64, and the returned
parameters are float64, like every artifact.
"""

from __future__ import annotations

import contextvars
import csv
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from . import BLAS_THREAD_VARS, nets
from .diffusion import BETA_END, BETA_START, MAX_T, forward_noise
from .env import D_A, T_P, DemoDataset, policy_features
from .nets import (
    AdamState,
    DenoiserParams,
    MlpParams,
    _embed_table,
    check_embed_dim,
    denoiser_batch_grads,
    init_mlp,
    init_params,
    mlp_backward,
    mlp_forward,
    optimizer_step,
)

WEIGHT_FLOOR = 1e-4


# -- reward shaping ----------------------------------------------------------


def normalize_rewards(losses: np.ndarray) -> np.ndarray:
    """Per-batch z-scores: (l - mean) / (population std + 1e-8)."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 1 or losses.size == 0:
        raise ValueError("losses must be a non-empty 1-d array")
    mu = losses.mean()
    sd = losses.std()
    return (losses - mu) / (sd + 1e-8)


def anneal_alpha(step: int, total_steps: int) -> float:
    """Cosine decay of the weight-update blend factor from 0.1 at step 0
    to 0.01 at the last step."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not (0 <= step <= total_steps):
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    frac = 0.5 * (1.0 + np.cos(np.pi * step / total_steps))
    return 0.01 + (0.1 - 0.01) * frac


# -- learnable timestep sampler ----------------------------------------------


@dataclass
class TimestepSampler:
    T: int
    embed_dim: int
    warmup: int
    entropy_coef: float
    net: MlpParams = field(repr=False)
    adam: AdamState = field(repr=False)
    # the forward pass at the current weights, None once they change
    _logits: np.ndarray | None = field(default=None, repr=False)
    _cache: list[np.ndarray] | None = field(default=None, repr=False)


def make_timestep_sampler(seed: int, T: int, warmup: int = 500,
                          entropy_coef: float = 10.0, hidden: int = 256,
                          embed_dim: int = 128) -> TimestepSampler:
    check_embed_dim(embed_dim)
    rng = np.random.default_rng(seed)
    net = init_mlp(rng, [embed_dim, hidden, hidden, hidden, 1])
    return TimestepSampler(T=T, embed_dim=embed_dim, warmup=warmup,
                           entropy_coef=entropy_coef, net=net,
                           adam=AdamState())


def _sampler_logits(ts: TimestepSampler) -> np.ndarray:
    """The logits over steps 1..T, from one forward pass per weight
    update; the pass's cache is kept for the update's backward pass."""
    if ts._logits is None:
        x = _embed_table(ts.embed_dim, ts.T)
        y, ts._cache = mlp_forward(ts.net, x)
        ts._logits = y[:, 0]
    return ts._logits


def sampler_distribution(ts: TimestepSampler) -> np.ndarray:
    """Current draw probabilities over steps 1..T (softmax of the logits,
    taken in float64 whatever the net's dtype)."""
    z = _sampler_logits(ts).astype(np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def sampler_entropy(ts: TimestepSampler) -> float:
    p = sampler_distribution(ts)
    return float(-np.sum(p * np.log(np.maximum(p, 1e-300))))


def sample_timestep(ts: TimestepSampler, rng: np.random.Generator,
                    step_count: int, size: int) -> np.ndarray:
    """Draw ``size`` step indices in 1..T: uniform while step_count <
    warmup, from the learned distribution afterwards."""
    if step_count < ts.warmup:
        return rng.integers(1, ts.T + 1, size=size)
    return rng.choice(ts.T, size=size, p=sampler_distribution(ts)) + 1


def _policy_entropy_grad(ts: TimestepSampler, ks: np.ndarray,
                         rs: np.ndarray) -> np.ndarray:
    """d/d logits of  mean_e[-r_e log pi(k_e)] - entropy_coef * H(pi)."""
    p = sampler_distribution(ts)
    # draw e's two terms are rows 2e and 2e + 1, summed in draw order
    B = len(ks)
    terms = np.zeros((2 * B, ts.T))
    terms[0::2] = rs[:, None] * p
    terms[np.arange(1, 2 * B, 2), ks - 1] = -rs
    dz = terms.sum(axis=0)
    dz /= B
    logp = np.log(np.maximum(p, 1e-300))
    H = float(-np.sum(p * logp))
    dz += ts.entropy_coef * p * (logp + H)
    return dz


def sampler_update_batch(ts: TimestepSampler, ks: np.ndarray,
                         rs: np.ndarray) -> TimestepSampler:
    """One optimizer step on the per-batch mean of the per-sample
    objective (policy term averaged, entropy term once)."""
    ks = np.asarray(ks, dtype=np.int64)
    rs = np.asarray(rs, dtype=np.float64)
    if ks.shape != rs.shape or ks.ndim != 1 or ks.size == 0:
        raise ValueError("ks and rs must be matching non-empty 1-d arrays")
    if np.any((ks < 1) | (ks > ts.T)):
        raise ValueError("step indices outside [1, T]")
    dz = _policy_entropy_grad(ts, ks, rs)  # runs the forward pass
    grads = mlp_backward(ts.net, ts._cache, dz[:, None])
    optimizer_step(ts.net, grads, ts.adam)
    ts._logits = ts._cache = None
    return ts


# -- per-trajectory replay weights: a float64 array, one entry per demo ------


def _renormalize(w: np.ndarray, floor: float = WEIGHT_FLOOR) -> np.ndarray:
    """Scale to mean one while keeping every entry at or above the floor.

    Entries pinned at the floor keep it exactly; the remaining mass is
    rescaled so the total is n.  Iterates because rescaling can push new
    entries under the floor; the pinned set only grows, so this ends.
    """
    w = np.maximum(w, floor)
    free = np.ones(w.size, dtype=bool)
    for _ in range(w.size):
        target = w.size - floor * np.count_nonzero(~free)
        s = w[free].sum()
        if s <= 0.0 or target <= 0.0:
            break
        w[free] *= target / s
        sunk = free & (w < floor)
        if not sunk.any():
            break
        w[sunk] = floor
        free &= ~sunk
    return w


def update_traj_weights_batch(w: np.ndarray, idxs: np.ndarray,
                              rs: np.ndarray, alpha: float) -> np.ndarray:
    """New weights after EMA updates for every drawn trajectory, in draw
    order, each blending its weight toward reward + 1:
    w = (1 - alpha) * w + alpha * (r + 1); then one floor + renorm.  The
    given array is left as it is.  idxs and rs must be matching 1-d
    arrays, else ValueError; an index outside [0, n) is an IndexError
    and alpha outside (0, 1] a ValueError."""
    idxs, rs = np.asarray(idxs), np.asarray(rs)
    if idxs.shape != rs.shape or idxs.ndim != 1:
        raise ValueError("idxs and rs must be matching 1-d arrays")
    if np.any((idxs < 0) | (idxs >= w.size)):
        raise IndexError(f"trajectory index outside [0, {w.size})")
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    w = w.copy()
    for i, r in zip(idxs, rs):
        w[i] = (1.0 - alpha) * w[i] + alpha * (float(r) + 1.0)
    return _renormalize(w)


def weighted_sample_index(w: np.ndarray, rng: np.random.Generator,
                          size: int) -> np.ndarray:
    """Draw ``size`` trajectory indices, each with probability
    proportional to its weight."""
    return rng.choice(w.size, size=size, p=w / w.sum())


# -- the denoiser's Adam, layer by layer --------------------------------------

# the worker's pipe protocol: each command is one byte, a layer index; each
# update done is one ACK byte back, and a failure is FAILED and one line.
# Layers 1..L-1 go through nets' own optimizer_step wherever they run, and
# layer 0 and the sampler through this module's import of it, so that the
# calling process's updates and the worker's can be told apart.
_ACK, _FAILED = b"+", b"!"


def _layer_adams(net: MlpParams, grads: MlpParams, lr: float) -> list:
    """Each layer of ``net`` with its gradient and an Adam state of its
    own, so that ``optimizer_step(*layers[i])`` updates layer i.  Adam
    works element by element: a layer updated once per step gets the
    bits of one whole-vector update."""
    return [(net.layer(i), grads.layer(i), AdamState(lr=lr))
            for i in range(len(net.shapes))]


def _worker_has_a_core() -> bool:
    """Whether an Adam worker process would have a CPU to itself: this
    process may run on two or more, and numpy's BLAS runs one thread, as
    the first of ``BLAS_THREAD_VARS`` set in the environment says (see
    ``pin_blas_threads``).  With BLAS on every core, the worker would
    only take turns with the gemms of the backward pass."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    named = [os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ]
    return cores > 1 and named[:1] == ["1"]


def _serve_adam(cmd_fd: int, ack_fd: int, layers: list) -> None:
    """Update the layers named over ``cmd_fd`` and acknowledge each on
    ``ack_fd``; returns at end of file on ``cmd_fd``."""
    while msg := os.read(cmd_fd, 64):
        for i in msg:
            nets.optimizer_step(*layers[i])
            os.write(ack_fd, _ACK)


class _InlineAdam:
    """``_AdamWorker``'s interface on the calling thread, for when a
    worker would have no core to itself: ``send(i)`` updates layer i
    there and then."""

    def __init__(self, layers: list):
        self._layers = layers

    def send(self, layer: int) -> None:
        nets.optimizer_step(*self._layers[layer])

    def wait(self) -> None:
        pass

    def __enter__(self) -> "_InlineAdam":
        return self

    def __exit__(self, *exc) -> None:
        pass


class _AdamWorker:
    """A forked process that updates ``layers`` (from ``_layer_adams``,
    in memory shared with it) as ``_serve_adam`` does; the Adam states
    it updates are its own copies.

    ``send(i)`` hands it layer i once the caller has written the layer's
    gradient and stopped reading its weights; ``wait()`` returns once
    every layer sent has been updated, and raises a RuntimeError naming
    the failure if the worker failed or died.  Used as a context
    manager, it ends and reaps the worker on the way out, whether the
    block returns or raises.  The worker inherits the forking thread's
    context, numpy's error state included, and exits with ``os._exit``:
    at end of file on its command pipe, which is also what it reads when
    the parent dies.
    """

    def __init__(self, layers: list):
        cmd_r, self._cmd = os.pipe()
        self._acks, ack_w = os.pipe()
        self._pending = 0
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (cmd_r, self._cmd, self._acks, ack_w):
                os.close(fd)
            raise
        if self.pid == 0:
            _adam_worker_main(cmd_r, ack_w, layers)
        os.close(cmd_r)
        os.close(ack_w)

    def send(self, layer: int) -> None:
        self._pending += 1
        try:
            os.write(self._cmd, bytes((layer,)))
        except BrokenPipeError:  # the worker is gone; wait() says why
            pass

    def wait(self) -> None:
        while self._pending:
            got = os.read(self._acks, 4096)
            acks = len(got) - len(got.lstrip(_ACK))
            self._pending -= acks
            if not got or acks < len(got):
                raise RuntimeError(self._failure(got[acks + 1:]))

    def _failure(self, message: bytes) -> str:
        """What went wrong: the worker's own message, else how it ended."""
        if message:
            return ("Adam worker process failed: "
                    + message.decode(errors="replace"))
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 \
            else f"exited with status {code}"
        return f"Adam worker process {how} mid-run"

    def __enter__(self) -> "_AdamWorker":
        return self

    def __exit__(self, *exc) -> None:
        os.close(self._cmd)  # the worker exits once its queue is done
        if self.pid is not None:
            os.waitpid(self.pid, 0)
        os.close(self._acks)


def _adam_worker_main(cmd_r: int, ack_w: int, layers: list) -> None:
    """The worker process's whole life; never returns into the caller's
    frames.  It first closes every descriptor but its two pipe ends and
    stdio, so that it holds no end of another worker's pipes, whose end
    of file would then never come."""
    status = 1
    try:
        lo, hi = sorted((cmd_r, ack_w))
        os.closerange(3, lo)
        os.closerange(lo + 1, hi)
        os.closerange(hi + 1, os.sysconf("SC_OPEN_MAX"))
        _serve_adam(cmd_r, ack_w, layers)
        status = 0
    except Exception as e:  # reported on the pipe; the parent raises it
        text = " ".join(f"{type(e).__name__}: {e}".split())
        os.write(ack_w, _FAILED + text.encode()[:1024])
    finally:
        os._exit(status)


# -- training loop -----------------------------------------------------------


@dataclass
class TrainConfig:
    total_steps: int
    batch_size: int = 32
    seed: int = 0
    T: int = 100
    beta_start: float = BETA_START
    beta_end: float = BETA_END
    warmup: int = 500
    entropy_coef: float = 10.0
    lr: float = 1e-3
    hidden: int = 256
    embed_dim: int = 128
    sampler_hidden: int = 256
    eval_every: int = 0
    snapshot_every: int = 1000
    dtype: str = "float32"  # of the training arithmetic; artifacts are float64

    def __post_init__(self):
        if self.total_steps < 0:
            raise ValueError("total_steps must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.T <= MAX_T:
            raise ValueError(f"T must be in [1, {MAX_T}], got {self.T}")
        for name in ("warmup", "eval_every", "snapshot_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")
        if not math.isfinite(self.entropy_coef):
            raise ValueError(f"entropy_coef must be finite, "
                             f"got {self.entropy_coef!r}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be 'float32' or 'float64', "
                             f"got {self.dtype!r}")

    def check_mode(self, mode: str) -> None:
        """ValueError unless ``train`` can run this config in ``mode``."""
        if mode not in ("uniform", "aln"):
            raise ValueError(f"mode must be 'uniform' or 'aln', got {mode!r}")
        # only the sampler reads the warmup; uniform mode has none
        if mode == "aln" and 0 < self.total_steps <= self.warmup:
            raise ValueError("warmup must be < total_steps")


@dataclass
class TrainReport:
    mode: str
    steps: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    entropies: list[float] = field(default_factory=list)
    eval_steps: list[int] = field(default_factory=list)
    eval_success: list[float] = field(default_factory=list)
    sampler_snapshots: list[tuple[int, np.ndarray]] = field(default_factory=list)
    weight_snapshots: list[tuple[int, np.ndarray]] = field(default_factory=list)
    final_sampler_probs: np.ndarray | None = None
    final_traj_weights: np.ndarray | None = None

    def to_csv(self, path: str) -> None:
        """Columns: step, loss, eval_success (blank off eval steps),
        sampler_entropy."""
        evals = dict(zip(self.eval_steps, self.eval_success))
        with open(path, "w", newline="") as f:
            wr = csv.writer(f)
            wr.writerow(["step", "loss", "eval_success", "sampler_entropy"])
            for s, l, h in zip(self.steps, self.losses, self.entropies):
                ev = f"{evals[s]:.17g}" if s in evals else ""
                wr.writerow([s, f"{l:.17g}", ev, f"{h:.17g}"])

    def snapshots_to_csv(self, path: str) -> None:
        """Wide rows: step then the full draw distribution at that step
        (columns p1..pT)."""
        _wide_csv(path, self.sampler_snapshots, "p", 1)

    def weights_to_csv(self, path: str) -> None:
        """Wide rows: step then every trajectory's replay weight at that
        step (columns w0..w{n-1})."""
        _wide_csv(path, self.weight_snapshots, "w", 0)


def _wide_csv(path: str, snapshots: list[tuple[int, np.ndarray]],
              prefix: str, first: int) -> None:
    """Header step, {prefix}{first}, ...; one row per snapshot, values as
    .17g; just the step column when there are no snapshots."""
    n = snapshots[0][1].size if snapshots else 0
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["step"]
                    + [f"{prefix}{i}" for i in range(first, first + n)])
        for s, v in snapshots:
            wr.writerow([s] + [f"{x:.17g}" for x in v])


def train(config: TrainConfig, dataset: DemoDataset, mode: str,
          eval_fn=None) -> tuple[DenoiserParams, TrainReport]:
    """Run the denoiser regression loop in "uniform" or "aln" mode.

    "uniform": timesteps and trajectories drawn uniformly (no sampler net,
    and the report's draw distributions are uniform).  "aln": both
    adaptive mechanisms active after the warmup; until then the draws,
    and the distributions and entropies reported, are uniform.
    ``eval_fn(params)``, when given, is called every ``config.eval_every``
    steps with a float64 copy of the parameters, and its return value
    recorded in the report.  The returned parameters are float64.

    Processes: when the process may run on two or more CPUs and numpy's
    BLAS runs one thread (``diffpol.pin_blas_threads``, which the
    ``diffpol`` CLI calls), every call forks one ``_AdamWorker``, before
    any thread of its own starts, and reaps it before it returns or
    raises.  The worker updates the denoiser's layers 1..L-1 during
    each backward pass; this thread updates layer 0 with
    ``optimizer_step``.  A failed or killed worker is a RuntimeError
    naming the failure.  Otherwise the worker would have no core to
    itself, and this thread updates every layer as the pass finishes
    it, with the same bits.

    Threads: an aln call owns one worker thread, which exists only
    inside the call, whether it returns or raises; uniform mode starts
    none.  At each adaptive step, ``denoiser_batch_grads`` hands the
    batch losses to the worker between its forward and backward pass,
    once the mean loss has been checked.  The worker runs
    ``normalize_rewards``, ``sampler_update_batch``, ``anneal_alpha``,
    ``update_traj_weights_batch`` and ``sampler_entropy``, in a copy of
    this thread's context (so numpy's error state carries over), while
    this thread runs the denoiser's backward pass and
    ``optimizer_step``.  The step then waits for the worker, whose
    error, if any, is raised here unchanged, before it reports and
    before the next step's draws read the sampler and the weights.
    Neither side reads what the other writes while both run, and the
    draws all stay on this thread, so the bits are those of the two
    sides run in turn.
    """
    import mmap  # here, so that processes that never train do not load it

    config.check_mode(mode)

    rng = np.random.default_rng(config.seed)
    # the denoiser conditions on the lifted observation, not the raw one;
    # every window start is lifted once per call, and batches gather rows
    feats = policy_features(dataset.obs)
    params = init_params(config.seed, d_o=feats.shape[1], T_p=T_P, d_a=D_A,
                         hidden=config.hidden, embed_dim=config.embed_dim,
                         T=config.T)
    # the weights, then their gradient, in memory the Adam worker shares
    n, dtype = params.net.flat.size, np.dtype(config.dtype)
    shared = np.frombuffer(mmap.mmap(-1, 2 * n * dtype.itemsize), dtype)
    shared[:n] = params.net.flat
    net, grads = (MlpParams(v, params.net.shapes)
                  for v in (shared[:n], shared[n:]))
    params = replace(params, net=net, beta_start=config.beta_start,
                     beta_end=config.beta_end)
    sched = params.noise_schedule()
    layers = _layer_adams(net, grads, config.lr)
    adaptive = mode == "aln"
    # own generator (seed + 1), so uniform mode's draws do not depend on it
    ts = make_timestep_sampler(
        config.seed + 1, config.T, warmup=config.warmup,
        entropy_coef=config.entropy_coef, hidden=config.sampler_hidden,
        embed_dim=config.embed_dim) if adaptive else None
    if adaptive:
        ts.net = ts.net.astype(config.dtype)
    uniform_probs = np.full(config.T, 1.0 / config.T)

    def learned(step: int) -> bool:
        """Whether step ``step``'s timestep draws follow the sampler net."""
        return adaptive and step >= config.warmup

    def draw_probs(step: int) -> np.ndarray:
        """A copy of the distribution step ``step``'s draws come from."""
        return (sampler_distribution(ts) if learned(step)
                else uniform_probs).copy()

    def float64_params() -> DenoiserParams:
        worker.wait()
        return replace(params, net=params.net.astype(np.float64))

    tw = np.ones(dataset.n_traj)  # the replay weights
    report = TrainReport(mode=mode)
    B = config.batch_size
    uniform_entropy = float(np.log(config.T))

    def sampler_side(step, ks, idxs, losses, tw):
        """An adaptive step's sampler and replay-weight updates, then the
        next forward pass of the sampler net (for the step's entropy);
        returns the new weights and that entropy."""
        rs = normalize_rewards(losses)
        sampler_update_batch(ts, ks, rs)
        alpha = anneal_alpha(step, config.total_steps)
        return (update_traj_weights_batch(tw, idxs, rs, alpha),
                sampler_entropy(ts))

    def start_sampler_side(losses):
        """Called between the forward and the backward pass: checks the
        loss, then hands a learned step's sampler side to the worker."""
        nonlocal loss, pending
        loss = float(losses.mean())
        if not np.isfinite(loss):
            raise ValueError(f"training loss became non-finite ({loss}) "
                             f"at step {step + 1}")
        if learned(step):
            # in a copy of this thread's context, so that the caller's
            # numpy error state holds on the worker too
            pending = pool.submit(contextvars.copy_context().run,
                                  sampler_side, step, ks, idxs, losses, tw)

    # aln's worker thread; it ends with the block, whether the loop
    # returns or raises, and starts at the first submit, after the fork.
    # Only aln imports the executor, which also loads logging, queue and
    # traceback.
    if adaptive:
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(max_workers=1)
    else:
        pool = nullcontext()
    adam = _AdamWorker if _worker_has_a_core() else _InlineAdam
    with adam(layers) as worker, pool:
        for step in range(config.total_steps):
            if adaptive:
                idxs = weighted_sample_index(tw, rng, size=B)
            else:
                idxs = rng.integers(0, dataset.n_traj, size=B)
            # one draw per row, consuming the generator like B scalar draws
            wis = rng.integers(dataset.n_windows[idxs])
            steps, starts = dataset.window_rows(idxs, wis)
            a0_b, feat_b = dataset.actions[steps], feats[starts]
            if adaptive:
                ks = sample_timestep(ts, rng, step, size=B)
            else:
                ks = rng.integers(1, config.T + 1, size=B)
            eps_b = rng.standard_normal(a0_b.shape)
            ak_b = forward_noise(sched, a0_b, ks, eps_b)

            loss, pending, entropy = None, None, uniform_entropy
            worker.wait()  # the forward pass reads every layer
            denoiser_batch_grads(params, feat_b, ak_b, ks, eps_b,
                                 start_sampler_side, grads, worker.send)
            optimizer_step(*layers[0])
            if pending is not None:  # the two sides join here
                tw, entropy = pending.result()

            report.steps.append(step + 1)
            report.losses.append(loss)
            report.entropies.append(entropy)
            if config.snapshot_every > 0 \
                    and (step + 1) % config.snapshot_every == 0:
                report.sampler_snapshots.append((step + 1, draw_probs(step)))
                report.weight_snapshots.append((step + 1, tw.copy()))
            if eval_fn is not None and config.eval_every > 0 \
                    and (step + 1) % config.eval_every == 0:
                report.eval_steps.append(step + 1)
                report.eval_success.append(float(eval_fn(float64_params())))
        trained = float64_params()

    report.final_sampler_probs = draw_probs(config.total_steps - 1)
    report.final_traj_weights = tw.copy()
    return trained, report
