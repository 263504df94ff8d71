"""Receding-horizon rollout, evaluation metrics, and speedup comparison.

A rollout runs window by window: each replan ticks the stage scheduler
for the current stage's horizon N_a and step count N_d, denoises one
action window with N_d denoiser calls, records (step, stage, N_a, N_d),
and runs the window's first N_a actions open loop.  A fixed budget is
the schedule table with one pair for every stage.  Denoiser calls, the
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
from .nets import DenoiserParams, denoiser_forward, denoiser_obs_part, \
    denoiser_step_part
from .scheduling import SchedulerState, scheduler_tick
from .stages import ScheduleEntry, ScheduleTable

EARLY_FRACTION = 0.6  # success this early in the budget counts as "early"
EPISODES_PER_SEED = 10_000  # each evaluation seed's block of env seeds

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


def fixed_schedule_table(na: int, nd: int) -> ScheduleTable:
    """A fixed receding-horizon budget: the pair (na, nd) for every stage
    of the push task, under ScheduleEntry's checks."""
    return ScheduleTable(tuple(ScheduleEntry(n, na, nd) for n in STAGES))


def denoise_action_window(params: DenoiserParams, sched: NoiseSchedule,
                          obs: np.ndarray, n_steps: int, kind: str,
                          rng: np.random.Generator,
                          step_parts: dict[int, np.ndarray]) -> np.ndarray:
    """Draw one action window by reverse diffusion from pure noise.

    kind "ddpm" walks a respaced chain with re-derived coefficients and
    per-step noise injection; "ddim" walks the same step subset of the
    original schedule deterministically.  The denoiser is always queried
    at original-schedule step indices.  n_steps must not exceed the
    training schedule length.

    ``step_parts`` maps a step count to ``denoiser_step_part`` for its
    chain; a missing entry is built and stored.  One map serves one
    (params, sched) pair, such as an episode's windows.
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
    # the denoiser's step-invariant first-layer terms: the step part once
    # per step count, the observation part per window
    if n_steps not in step_parts:
        step_parts[n_steps] = denoiser_step_part(params, idx)
    ctx = step_parts[n_steps] + denoiser_obs_part(params, obs)
    if kind == "ddpm":
        for j in range(n_steps, 0, -1):
            eps_hat = denoiser_forward(params, obs, a, ks[j - 1], ctx[j - 1])
            z = noise[n_steps - j + 1] if j > 1 else np.zeros_like(a)
            a = ddpm_reverse_step(derived, eps_hat, a, j, z)
    else:
        for j in range(n_steps, 0, -1):
            eps_hat = denoiser_forward(params, obs, a, ks[j - 1], ctx[j - 1])
            a = ddim_reverse_step(sched, eps_hat, a, ks[j - 1],
                                  ks[j - 2] if j > 1 else 0)
    return np.clip(a, -1.0, 1.0)


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
            schedule: SchedulerState, sampler_kind: str = "ddpm",
            seed: int = 0) -> EpisodeResult:
    """Run one episode under a staged compute budget.

    ``schedule`` is ticked once per replan to size the next action
    window from the current state; a replan's record holds its first
    step and the stage the tick chose.  A window runs until the block
    reaches the target or the episode reaches MAX_STEPS.  ``seed``
    drives only the denoising noise; ``env_seed``, the initial condition.
    """
    step_parts: dict[int, np.ndarray] = {}  # per N_d, for every window
    rng = np.random.default_rng(seed)
    env = reset_env(env_seed)
    replans: list[tuple[int, int, int, int]] = []
    step, reached = 0, False
    t0 = time.perf_counter()
    while not reached and step < MAX_STEPS:
        na, nd, schedule = scheduler_tick(schedule, env)
        window = denoise_action_window(params, sched, observe(env), nd,
                                       sampler_kind, rng, step_parts)
        replans.append((step, schedule.active, na, nd))
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
    """Environment seeds for one evaluation seed, disjoint across seeds
    while n_episodes <= EPISODES_PER_SEED."""
    return [EPISODES_PER_SEED * seed + i for i in range(n_episodes)]


def evaluate(params: DenoiserParams, sched: NoiseSchedule, n_episodes: int,
             schedule, sampler_kind: str = "ddpm",
             seeds: tuple[int, ...] = (0, 1, 2), gap=None) -> Metrics:
    """Aggregate rollouts over n_episodes per evaluation seed.

    ``schedule`` is a ScheduleTable, or a fixed ``(N_a, N_d)`` pair that
    runs as fixed_schedule_table's; either way every episode ticks its
    own oracle-classified scheduler.  Episode initial conditions depend
    only on (seed, episode index), so two evaluations with the same
    seeds see identical environments.  The oracle indexes a table by
    stage position, so a table needs an entry for each of the task's
    stages, and an entry named after one of them must sit at its
    position.  Every entry's step count must lie in [1, sched.T].  The
    seeds must be distinct and non-negative and n_episodes at most
    EPISODES_PER_SEED, so that no episode runs twice.  Each fault, and a
    pair that is not two positive integers, raises ValueError before any
    episode runs.
    The denoiser runs in float32, the dtype training computes in, on a
    copy of the net; the caller's params are left as they are.
    ``gap`` is accepted and ignored, as a classifier returns the stage
    itself; it stays only while the benchmark's call
    (perfbench/workloads.py) passes it.
    """
    seeds = tuple(seeds)
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    if n_episodes > EPISODES_PER_SEED:
        raise ValueError(f"n_episodes {n_episodes} exceeds "
                         f"{EPISODES_PER_SEED}, the episodes of one seed")
    if not seeds:
        raise ValueError("need at least one evaluation seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"evaluation seeds repeat: {seeds}")
    if min(seeds) < 0:
        raise ValueError(f"evaluation seed {min(seeds)} is negative; "
                         "seeds must be >= 0")
    if not isinstance(schedule, ScheduleTable):
        na, nd = schedule
        schedule = fixed_schedule_table(na, nd)
    if len(schedule.entries) < len(STAGES):
        raise ValueError(f"schedule table has {len(schedule.entries)} "
                         f"stages; the task has {len(STAGES)}")
    for i, e in enumerate(schedule.entries):
        if e.name in STAGES and STAGES.index(e.name) != i:
            raise ValueError(f"schedule table has stage {e.name!r} at "
                             f"position {i}; the task has it at "
                             f"{STAGES.index(e.name)}")
        if not 1 <= e.num_inference_steps <= sched.T:
            raise ValueError(f"stage {e.name!r}: {e.num_inference_steps} "
                             f"denoising steps outside [1, {sched.T}]")
    # float32 weights fit the batch-1 calls' working set in a per-core L2
    params = replace(params, net=params.net.astype(np.float32))
    results: list[EpisodeResult] = []
    per_seed: list[float] = []
    for s in seeds:
        seed_results = []
        for env_seed in episode_seeds(s, n_episodes):
            seed_results.append(rollout(params, sched, env_seed,
                                        SchedulerState(schedule),
                                        sampler_kind, seed=env_seed + 1))
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
