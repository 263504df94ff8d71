"""Receding-horizon rollout, evaluation metrics, and speedup comparison.

A rollout runs window by window: each replan takes a horizon N_a and a
step count N_d, fixed or from the stage scheduler, denoises one action
window with N_d denoiser calls, records (step, stage, N_a, N_d), and
runs the window's first N_a actions open loop.  Denoiser calls, the
hardware-independent cost metric, are summed over the replans; wall
time is excluded from equality so seeded rollouts stay bit-reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .diffusion import NoiseSchedule, ddim_reverse_step, ddpm_reverse_step, \
    respaced_schedule
from .env import MAX_STEPS, STAGES, env_step, observe, policy_features, \
    reset_env
from .nets import DenoiserParams, denoiser_context, denoiser_forward
from .scheduling import SchedulerState, scheduler_tick
from .stages import ScheduleEntry, ScheduleTable

EARLY_FRACTION = 0.6  # success this early in the budget counts as "early"

SAMPLER_KINDS = ("ddpm", "ddim")


def hvts_schedule_table() -> ScheduleTable:
    """Bench table for the push task: the contact-rich precision stage
    (push) gets the small-horizon, many-steps budget; everything else
    runs light."""
    entries = tuple(
        ScheduleEntry(name=n,
                      n_action_steps=8 if n == "push" else 16,
                      num_inference_steps=40 if n == "push" else 20)
        for n in STAGES)
    return ScheduleTable(entries=entries)


def denoise_action_window(params: DenoiserParams, sched: NoiseSchedule,
                          obs: np.ndarray, n_steps: int, kind: str,
                          rng: np.random.Generator,
                          forward_fn=None) -> np.ndarray:
    """Draw one action window by reverse diffusion from pure noise.

    kind "ddpm" walks a respaced chain with re-derived coefficients and
    per-step noise injection; "ddim" walks the same step subset of the
    original schedule deterministically.  The denoiser is always queried
    at original-schedule step indices.  n_steps must not exceed the
    training schedule length.
    """
    if kind not in SAMPLER_KINDS:
        raise ValueError(f"kind must be one of {SAMPLER_KINDS}, got {kind!r}")
    if not (1 <= n_steps <= sched.T):
        raise ValueError(f"n_steps {n_steps} outside [1, {sched.T}]")
    obs = policy_features(obs)  # same lift the denoiser was trained on
    # the start window and, for ddpm, each step's z but the last (zero)
    # in one draw, which consumes rng exactly as per-step draws would
    noise = rng.standard_normal((n_steps if kind == "ddpm" else 1,
                                 params.T_p, params.d_a))
    a = noise[0]
    derived, idx = respaced_schedule(sched, n_steps)
    ks = idx.tolist()
    # the default denoiser's step-invariant first-layer terms, per window
    ctx = denoiser_context(params, obs, idx) if forward_fn is None else None

    def predict_noise(j: int, a: np.ndarray) -> np.ndarray:
        if ctx is None:
            return forward_fn(params, obs, a, ks[j - 1])
        return denoiser_forward(params, obs, a, ks[j - 1], ctx[j - 1])

    if kind == "ddpm":
        for j in range(n_steps, 0, -1):
            eps_hat = predict_noise(j, a)
            z = noise[n_steps - j + 1] if j > 1 else np.zeros_like(a)
            a = ddpm_reverse_step(derived, eps_hat, a, j, z)
    else:
        for j in range(n_steps, 0, -1):
            eps_hat = predict_noise(j, a)
            a = ddim_reverse_step(sched, eps_hat, a, ks[j - 1],
                                  ks[j - 2] if j > 1 else 0)
    return np.clip(a, -1.0, 1.0)


def _fixed_pair(schedule) -> tuple[int, int]:
    """A fixed ``(N_a, N_d)`` schedule as ints; N_a must be at least 1."""
    na, nd = (int(v) for v in schedule)
    if na < 1:
        raise ValueError(f"fixed schedule horizon {na} must be >= 1")
    return na, nd


@dataclass(frozen=True)
class EpisodeResult:
    success: bool
    steps: int
    replans: tuple[tuple[int, int, int, int], ...]  # (step, stage, N_a, N_d)
    wall_time: float = field(compare=False, default=0.0)

    @property
    def denoiser_calls(self) -> int:
        return sum(nd for _, _, _, nd in self.replans)

    @property
    def early_success(self) -> bool:
        # an episode ends at its first success, so it succeeded at `steps`
        return self.success and self.steps <= EARLY_FRACTION * MAX_STEPS


def rollout(params: DenoiserParams, sched: NoiseSchedule, env_seed: int,
            schedule, sampler_kind: str = "ddpm", seed: int = 0,
            forward_fn=None) -> EpisodeResult:
    """Run one episode under a fixed or scheduled compute budget.

    ``schedule`` is either a fixed ``(N_a, N_d)`` pair or a
    SchedulerState, which is ticked once per replan to size the next
    action window from the current state; a replan's record holds its
    first step and stage (-1 for fixed runs).  A window runs until the
    block reaches the target or the episode reaches MAX_STEPS.  A fixed
    horizon below 1 raises ValueError before the first window.  ``seed``
    drives only the denoising noise; ``env_seed``, the initial condition.
    """
    scheduler = schedule if isinstance(schedule, SchedulerState) else None
    if scheduler is None:
        na, nd = _fixed_pair(schedule)
    stage = -1
    rng = np.random.default_rng(seed)
    env = reset_env(env_seed)
    replans: list[tuple[int, int, int, int]] = []
    step, reached = 0, False
    t0 = time.perf_counter()
    while not reached and step < MAX_STEPS:
        if scheduler is not None:
            na, nd, scheduler = scheduler_tick(scheduler, env)
            stage = scheduler.active
        window = denoise_action_window(params, sched, observe(env), nd,
                                       sampler_kind, rng, forward_fn)
        replans.append((step, stage, na, nd))
        for action in window[:min(na, MAX_STEPS - step)]:
            env, reached = env_step(env, action)
            step += 1
            if reached:
                break
    return EpisodeResult(success=reached, steps=step, replans=tuple(replans),
                         wall_time=time.perf_counter() - t0)


@dataclass(frozen=True)
class Metrics:
    success_rate: float
    early_success_rate: float
    mean_calls_per_step: float
    n_episodes: int
    seeds: tuple[int, ...]
    per_seed_success: tuple[float, ...]
    total_calls: int
    total_steps: int
    mean_wall_time: float = field(compare=False, default=0.0)


def episode_seeds(seed: int, n_episodes: int) -> list[int]:
    """Environment seeds for one evaluation seed, disjoint across seeds."""
    return [10_000 * seed + i for i in range(n_episodes)]


def evaluate(params: DenoiserParams, sched: NoiseSchedule, n_episodes: int,
             schedule, sampler_kind: str = "ddpm",
             seeds: tuple[int, ...] = (0, 1, 2), gap: float = 0.2,
             forward_fn=None) -> Metrics:
    """Aggregate rollouts over n_episodes per evaluation seed.

    ``schedule`` is a fixed ``(N_a, N_d)`` pair, or a ScheduleTable to
    run the oracle-classified scheduler.  Episode initial conditions
    depend only on (seed, episode index), so two evaluations with the
    same seeds see identical environments.  The oracle indexes a table
    by stage position, so a table needs an entry for each of the task's
    stages, and an entry named after one of them must sit at its
    position.  Every step count the schedule can ask for must lie in
    [1, sched.T], and a fixed horizon must be at least 1.  Each fault
    raises ValueError before any episode runs.
    The denoiser runs in float32, the dtype training computes in, on a
    copy of the net; the caller's params are left as they are.
    """
    seeds = tuple(seeds)
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    if not seeds:
        raise ValueError("need at least one evaluation seed")
    use_table = isinstance(schedule, ScheduleTable)
    if use_table and len(schedule.entries) < len(STAGES):
        raise ValueError(f"schedule table has {len(schedule.entries)} "
                         f"stages; the task has {len(STAGES)}")
    for i, e in enumerate(schedule.entries if use_table else ()):
        if e.name in STAGES and STAGES.index(e.name) != i:
            raise ValueError(f"schedule table has stage {e.name!r} at "
                             f"position {i}; the task has it at "
                             f"{STAGES.index(e.name)}")
    budgets = ([(e.name, e.num_inference_steps) for e in schedule.entries]
               if use_table else [("fixed", _fixed_pair(schedule)[1])])
    for name, n_steps in budgets:
        if not 1 <= n_steps <= sched.T:
            raise ValueError(f"stage {name!r}: {n_steps} denoising steps "
                             f"outside [1, {sched.T}]")
    # float32 weights fit the batch-1 calls' working set in a per-core L2
    params = replace(params, net=params.net.astype(np.float32))
    results: list[EpisodeResult] = []
    per_seed: list[float] = []
    for s in seeds:
        seed_results = []
        for env_seed in episode_seeds(s, n_episodes):
            sub = (SchedulerState(schedule, gap=gap,
                                  rng=np.random.default_rng(env_seed))
                   if use_table else schedule)
            seed_results.append(rollout(params, sched, env_seed, sub,
                                        sampler_kind, seed=env_seed + 1,
                                        forward_fn=forward_fn))
        per_seed.append(float(np.mean([r.success for r in seed_results])))
        results.extend(seed_results)
    total_calls = sum(r.denoiser_calls for r in results)
    total_steps = sum(r.steps for r in results)
    return Metrics(
        success_rate=float(np.mean([r.success for r in results])),
        early_success_rate=float(np.mean([r.early_success for r in results])),
        mean_calls_per_step=total_calls / total_steps,
        n_episodes=n_episodes,
        seeds=seeds,
        per_seed_success=tuple(per_seed),
        total_calls=total_calls,
        total_steps=total_steps,
        mean_wall_time=float(np.mean([r.wall_time for r in results])))


@dataclass(frozen=True)
class SpeedupReport:
    nfe_reduction: float
    success_delta: float  # baseline minus candidate, in rate points


def compare_speedup(baseline: Metrics, candidate: Metrics) -> SpeedupReport:
    """Denoiser-call reduction of candidate relative to baseline; both
    runs must cover identical seeds and episode counts."""
    if baseline.seeds != candidate.seeds \
            or baseline.n_episodes != candidate.n_episodes:
        raise ValueError("metrics were not computed on matching episodes")
    return SpeedupReport(
        nfe_reduction=baseline.mean_calls_per_step
        / candidate.mean_calls_per_step,
        success_delta=baseline.success_rate - candidate.success_rate)
