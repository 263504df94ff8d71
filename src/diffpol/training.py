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

The loop computes in ``TrainConfig.dtype`` (float32 by default): both
nets' weights, gradients, Adam moments and batch arrays.  Random draws,
rewards and the draw distribution stay float64, and the returned
parameters are float64, like every artifact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .diffusion import BETA_END, BETA_START, forward_noise
from .env import DemoDataset, policy_features
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
                    step_count: int, size: int | None = None):
    """Draw a step index in 1..T: uniform while step_count < warmup, from
    the learned distribution afterwards.  Like numpy's ``size``: None
    gives an int, an int n an array of n draws, consuming ``rng`` exactly
    as n single draws would."""
    if step_count < ts.warmup:
        ks = rng.integers(1, ts.T + 1, size=size)
    else:
        ks = rng.choice(ts.T, size=size, p=sampler_distribution(ts)) + 1
    return int(ks) if size is None else ks


def _policy_entropy_grad(ts: TimestepSampler, ks: np.ndarray,
                         rs: np.ndarray) -> np.ndarray:
    """d/d logits of  mean_e[-r_e log pi(k_e)] - entropy_coef * H(pi)."""
    p = sampler_distribution(ts)
    dz = np.zeros(ts.T)
    for k, r in zip(ks, rs):
        dz += r * p
        dz[k - 1] -= r
    dz /= len(ks)
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


# -- per-trajectory replay weights -------------------------------------------


@dataclass
class TrajectoryWeights:
    w: np.ndarray

    @property
    def n(self) -> int:
        return self.w.size


def make_traj_weights(n: int) -> TrajectoryWeights:
    if n < 1:
        raise ValueError("need at least one trajectory")
    return TrajectoryWeights(np.ones(n))


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


def update_traj_weights_batch(tw: TrajectoryWeights, idxs: np.ndarray,
                              rs: np.ndarray,
                              alpha: float) -> TrajectoryWeights:
    """EMA updates for every drawn trajectory, in draw order, each blending
    its weight toward reward + 1: w = (1 - alpha) * w + alpha * (r + 1);
    then one floor + renorm.  An index outside [0, n) or alpha outside
    (0, 1] raises."""
    idxs = np.asarray(idxs)
    if np.any((idxs < 0) | (idxs >= tw.n)):
        raise IndexError(f"trajectory index outside [0, {tw.n})")
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    w = tw.w.copy()
    for i, r in zip(idxs, rs):
        w[i] = (1.0 - alpha) * w[i] + alpha * (float(r) + 1.0)
    return TrajectoryWeights(_renormalize(w))


def weighted_sample_index(tw: TrajectoryWeights, rng: np.random.Generator,
                          size: int | None = None):
    """Draw a trajectory index with probability proportional to weight;
    ``size`` as in sample_timestep."""
    idxs = rng.choice(tw.n, size=size, p=tw.w / tw.w.sum())
    return int(idxs) if size is None else idxs


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
        for name in ("warmup", "eval_every", "snapshot_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")
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
    """
    config.check_mode(mode)
    if dataset.n_traj == 0:
        raise ValueError("dataset has no trajectories")

    rng = np.random.default_rng(config.seed)
    # the denoiser conditions on the lifted observation, not the raw one
    d_feat = policy_features(np.zeros(dataset.d_o)).size
    params = init_params(config.seed, d_o=d_feat, T_p=dataset.T_p,
                         d_a=dataset.d_a, hidden=config.hidden,
                         embed_dim=config.embed_dim, T=config.T)
    params = replace(params, net=params.net.astype(config.dtype),
                     beta_start=config.beta_start, beta_end=config.beta_end)
    sched = params.noise_schedule()
    adam = AdamState(lr=config.lr)
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
        return replace(params, net=params.net.astype(np.float64))

    tw = make_traj_weights(dataset.n_traj)
    report = TrainReport(mode=mode)
    B = config.batch_size
    n_windows = np.array([tr.n_windows for tr in dataset.trajectories])
    uniform_entropy = float(np.log(config.T))

    for step in range(config.total_steps):
        if adaptive:
            idxs = weighted_sample_index(tw, rng, size=B)
        else:
            idxs = rng.integers(0, dataset.n_traj, size=B)
        # one draw per row, consuming the generator like B scalar draws
        wis = rng.integers(n_windows[idxs])
        obs_b = np.empty((B, dataset.d_o))
        a0_b = np.empty((B, dataset.T_p, dataset.d_a))
        for e, (ti, wi) in enumerate(zip(idxs, wis)):
            traj = dataset.trajectories[ti]
            obs_b[e] = traj.obs[wi]
            a0_b[e] = traj.actions[wi]
        if adaptive:
            ks = sample_timestep(ts, rng, step, size=B)
        else:
            ks = rng.integers(1, config.T + 1, size=B)
        eps_b = rng.standard_normal(a0_b.shape)
        ak_b = forward_noise(sched, a0_b, ks, eps_b)

        losses, grads = denoiser_batch_grads(params, policy_features(obs_b),
                                             ak_b, ks, eps_b)
        loss = float(losses.mean())
        if not np.isfinite(loss):
            raise ValueError(f"training loss became non-finite ({loss}) "
                             f"at step {step + 1}")
        optimizer_step(params.net, grads, adam)

        if adaptive and step >= config.warmup:
            rs = normalize_rewards(losses)
            sampler_update_batch(ts, ks, rs)
            alpha = anneal_alpha(step, config.total_steps)
            tw = update_traj_weights_batch(tw, idxs, rs, alpha)

        report.steps.append(step + 1)
        report.losses.append(loss)
        report.entropies.append(sampler_entropy(ts) if learned(step)
                                else uniform_entropy)
        if config.snapshot_every > 0 and (step + 1) % config.snapshot_every == 0:
            report.sampler_snapshots.append((step + 1, draw_probs(step)))
            report.weight_snapshots.append((step + 1, tw.w.copy()))
        if eval_fn is not None and config.eval_every > 0 \
                and (step + 1) % config.eval_every == 0:
            report.eval_steps.append(step + 1)
            report.eval_success.append(float(eval_fn(float64_params())))

    report.final_sampler_probs = draw_probs(config.total_steps - 1)
    report.final_traj_weights = tw.w.copy()
    return float64_params(), report
