"""The three benchmark workloads, their output checks, and their metrics.

Each workload drives diffpol's public API the way the CLI does:
``train(config, demos, mode)`` for ``diffpol train`` and
``evaluate(...)`` over the four ``diffpol bench`` rows for ``diffpol
bench``.  The untraced part of a run gives the end-to-end numbers; with
tracing on, a fixed amount of the same work is repeated under
``spans.Tracer`` and gives the per-layer split.

Why these workloads:

* train-uniform: nearly all work is the denoiser forward+backward and
  Adam; the timestep sampler and replay weights never run.  Headline
  training number, and the bypass workload for aln-only changes.
* train-aln: adds 2*B per-sample draws, the sampler MLP forward+backward
  with its own Adam, and the replay-weight renormalisation per step.
* rollout-bench: batch-1 denoiser calls dominate ddpm_fixed (about 6.5
  calls per control step); on the ddim and HVTS rows (about 1.5) the env
  step, scheduler tick and per-replan overhead weigh more.  The policy
  is the committed fixture, so training changes cannot alter its inputs.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field

import diffpol.rollout
import diffpol.scheduling
import diffpol.training
from diffpol.diffusion import make_noise_schedule
from diffpol.env import STAGES, T_P, generate_demos
from diffpol.rollout import evaluate, hvts_schedule_table
from diffpol.training import TrainConfig, train

import calib
import fixture
import spans

# -- training workloads -------------------------------------------------------

N_DEMOS = 250
TRAIN_STEPS = 200          # steps per train() call; every call is identical
WARMUP_CALL_STEPS = 20     # untimed first call: BLAS threads, page faults
MIN_TRAIN_CALLS = 2        # at least one repeat, for the determinism check
TRACED_TRAIN_CALLS = 3
SETUP_REPEATS = 5          # setup_s is the median of these
# Reference kernels (calib.py) whose geometric-mean slowdown normalises a
# train() call: a uniform step is nearly all batch-64 array work, while an
# aln step spends about half its time in per-sample draws and the small
# sampler net, which the small kernel imitates.
TRAIN_KERNELS = {"uniform": ("train",), "aln": ("train", "small")}


def train_config(seed: int, total_steps: int = TRAIN_STEPS) -> TrainConfig:
    """The test_07 configuration; warmup is a tenth of the run so that in
    aln mode most steps are adaptive."""
    return TrainConfig(total_steps=total_steps, batch_size=64, seed=seed,
                       warmup=max(1, total_steps // 10), hidden=384,
                       embed_dim=128, T=100)


# -- rollout workload ---------------------------------------------------------

# (row label, sampler, schedule) exactly as `diffpol bench` runs them;
# None stands for the HVTS schedule table
BENCH_ROWS = (
    ("ddpm_fixed", "ddpm", (16, 100)),
    ("ddpm_hvts", "ddpm", None),
    ("ddim_fixed", "ddim", (16, 25)),
    ("ddim_hvts", "ddim", None),
)
GAP = 0.2
# Success and NFE come from this fixed prefix of rounds, and tracing
# repeats it, so per-layer counts depend only on the seed.
FIXED_ROUNDS = 20


def eval_seed(seed: int, rnd: int) -> int:
    """evaluate() seed of one bench round: one episode per row, env seed
    10_000 * eval_seed, far from the fixture's demo seeds."""
    return 10_000 * (seed + 1) + rnd


# -- bookkeeping --------------------------------------------------------------


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    tracer: spans.Tracer | None = None

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def _median_timed(fn, repeats: int, ref: calib.RefKernels, digest=None):
    """Call fn repeats times, each followed by the small reference kernel;
    return (last result, median normalised seconds, median raw seconds,
    set of digest(result)).  Earlier results are dropped as soon as the
    next one exists, so peak memory holds at most two."""
    raw, norm, digests, result = [], [], set(), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        raw.append(time.perf_counter() - t0)
        norm.append(raw[-1] / ref.slowdown("small"))
        if digest is not None:
            digests.add(digest(result))
    return result, statistics.median(norm), statistics.median(raw), digests


def _record_slowdowns(out: Outcome, ref: calib.RefKernels) -> None:
    for kind in calib.NOMINAL_S:
        out.layer[f"machine.slowdown.{kind}"] = ref.median_slowdown(kind)


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def _geomean(xs) -> float:
    return math.exp(_mean(math.log(x) for x in xs))


# -- span targets -------------------------------------------------------------


def train_targets() -> list[spans.Target]:
    tr = diffpol.training
    return [
        spans.Target(tr, "denoiser_batch_grads", "nets.denoiser_batch_grads"),
        spans.Target(tr, "optimizer_step", "nets.optimizer_step"),
        spans.Target(tr, "sample_timestep", "training.sample_timestep"),
        spans.Target(tr, "weighted_sample_index",
                     "training.weighted_sample_index"),
        spans.Target(tr, "sampler_update_batch",
                     "training.sampler_update_batch"),
        spans.Target(tr, "update_traj_weights_batch",
                     "training.update_traj_weights_batch"),
        spans.Target(tr, "sampler_entropy", "training.sampler_entropy"),
        spans.Target(tr, "policy_features", "env.policy_features"),
    ]


def _tick_info(args, kwargs, result):
    st = result[2]
    return (st.active, st.degraded)


def _window_info(args, kwargs, result):
    return kwargs.get("n_steps", args[3] if len(args) > 3 else None)


def _episode_info(args, kwargs, result):
    return result.steps


def rollout_targets() -> list[spans.Target]:
    ro = diffpol.rollout
    return [
        spans.Target(ro, "rollout", "rollout.episode", new_group=True,
                     on_result=_episode_info),
        spans.Target(ro, "denoise_action_window",
                     "rollout.denoise_action_window",
                     on_result=_window_info),
        spans.Target(ro, "denoiser_forward", "nets.denoiser_forward"),
        spans.Target(ro, "respaced_schedule", "diffusion.respaced_schedule"),
        spans.Target(ro, "ddpm_reverse_step", "diffusion.ddpm_reverse_step"),
        spans.Target(ro, "ddim_reverse_step", "diffusion.ddim_reverse_step"),
        spans.Target(ro, "env_step", "env.env_step"),
        spans.Target(ro, "policy_features", "env.policy_features"),
        spans.Target(ro, "scheduler_tick", "scheduling.scheduler_tick",
                     on_result=_tick_info),
        spans.Target(diffpol.scheduling.OracleStageClassifier, "classify",
                     "scheduling.classify"),
    ]


# -- per-layer metric names (every workload reports all of them) -------------

ROW_METRICS = (
    ("ctrl_steps_per_s", "1/s"), ("nfe_per_step", "count"),
    ("success_rate", "ratio"), ("replan_ms.p50", "ms"),
    ("replan_ms.tail", "ms"), ("replan_ms.tail_pct", "pct"),
    ("replan_ms.n", "count"), ("denoise_action_window.self_us", "us"),
    ("episode.self_us_per_step", "us"), ("actions_used_frac", "ratio"),
)

LAYER_METRICS: dict[str, str] = {
    "nets.denoiser_batch_grads.ms": "ms",
    "nets.optimizer_step.denoiser.ms": "ms",
    "nets.optimizer_step.sampler.ms": "ms",
    "nets.denoiser_forward.calls": "count",
    "nets.denoiser_forward.us": "us",
    "training.step.self_ms": "ms",
    "training.sample_timestep.calls": "count",
    "training.sample_timestep.us": "us",
    "training.weighted_sample_index.calls": "count",
    "training.weighted_sample_index.us": "us",
    "training.draws.step_share": "ratio",
    "training.sampler_update_batch.self_ms": "ms",
    "training.update_traj_weights_batch.ms": "ms",
    "training.sampler_entropy.ms": "ms",
    "training.loss_head": "mse",
    "training.loss_tail": "mse",
    "env.generate_demos.s": "s",
    "env.policy_features.us": "us",
    "env.env_step.calls": "count",
    "env.env_step.us": "us",
    "diffusion.respaced_schedule.calls": "count",
    "diffusion.respaced_schedule.us": "us",
    "diffusion.ddpm_reverse_step.us": "us",
    "diffusion.ddim_reverse_step.us": "us",
    "scheduling.scheduler_tick.calls": "count",
    "scheduling.scheduler_tick.us": "us",
    "scheduling.classify.calls": "count",
    "scheduling.classify_per_tick": "ratio",
    "scheduling.degraded_ticks": "count",
    **{f"rollout.{row}.{m}": u for row, _, _ in BENCH_ROWS
       for m, u in ROW_METRICS},
    **{f"rollout.{stage}.nfe_share": "ratio" for stage in STAGES},
    "rollout.success_rate": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.absent_targets": "count",
    "raw.throughput": "1/s",
    "raw.setup_s": "s",
    "machine.slowdown.train": "ratio",
    "machine.slowdown.small": "ratio",
}


def _by_name(sp: list[spans.Span]) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for i, s in enumerate(sp):
        out.setdefault(s.name, []).append(i)
    return out


def _mean_dur(sp, idxs, scale: float) -> float:
    return _mean(sp[i].dur for i in idxs) * scale


# -- train-uniform / train-aln ----------------------------------------------


def _digest_demos(ds) -> bytes:
    h = hashlib.sha256()
    for tr in ds.trajectories:
        h.update(tr.obs.tobytes())
        h.update(tr.actions.tobytes())
    return h.digest()


def run_train(mode: str, seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome()
    ref = calib.RefKernels()
    demos, setup_s, raw_setup_s, digests = _median_timed(
        lambda: generate_demos(N_DEMOS, seed=seed), SETUP_REPEATS, ref,
        _digest_demos)
    out.check(len(digests) == 1, "generate_demos is not deterministic")

    cfg = train_config(seed)
    train(train_config(seed, WARMUP_CALL_STEPS), demos, mode)

    first: list[float] | None = None
    walls: list[float] = []
    slowdowns: list[float] = []
    calls = 0
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or calls < MIN_TRAIN_CALLS:
        calls += 1
        losses, wall = _train_call(out, cfg, demos, mode)
        if losses is None:
            continue
        walls.append(wall)
        slowdowns.append(_geomean(ref.slowdown(k)
                                  for k in TRAIN_KERNELS[mode]))
        if first is None:
            first = losses
            _check_losses(out, losses)
        else:
            out.check(losses == first, "train() losses differ between calls "
                      "with the same seed")

    samples = cfg.batch_size * cfg.total_steps
    if walls:
        out.e2e["throughput"] = samples / statistics.median(
            w / k for w, k in zip(walls, slowdowns))
        out.layer["raw.throughput"] = samples / statistics.median(walls)
    else:
        out.e2e["throughput"] = 0.0
    out.e2e["setup_s"] = setup_s
    out.layer["raw.setup_s"] = raw_setup_s
    tenth = max(1, cfg.total_steps // 10)
    if first is not None:
        out.layer["training.loss_head"] = _mean(first[:tenth])
        out.layer["training.loss_tail"] = _mean(first[-tenth:])
    out.layer["env.generate_demos.s"] = raw_setup_s
    _record_slowdowns(out, ref)

    if traced and walls:
        _trace_train(out, cfg, demos, mode, first)
    return out


def _trace_train(out: Outcome, cfg, demos, mode: str, ref) -> None:
    """TRACED_TRAIN_CALLS traced train() calls, each right after an
    untraced one, so that drift in the machine's speed cancels in the
    overhead ratio."""
    tracer = spans.Tracer()
    plain_wall = traced_wall = 0.0
    for _ in range(TRACED_TRAIN_CALLS):
        _, wall0 = _train_call(out, cfg, demos, mode)
        inst = spans.install(tracer, train_targets())
        try:
            t0 = time.perf_counter()
            _, report = tracer.call("training.train", train,
                                    (cfg, demos, mode), {}, new_group=True)
            wall = time.perf_counter() - t0
        finally:
            spans.restore(inst)
        out.attempted += cfg.total_steps
        out.check(report.losses == ref, "tracing changed the training losses")
        if wall0 > 0:
            plain_wall += wall0
            traced_wall += wall
    _train_layers(out, tracer.spans, cfg)
    out.layer["trace.overhead_frac"] = \
        traced_wall / plain_wall - 1.0 if plain_wall > 0 else 0.0
    out.layer["trace.absent_targets"] = len(inst.absent)
    out.absent = inst.absent
    out.tracer = tracer


def _train_call(out: Outcome, cfg, demos, mode):
    """One timed train(); returns (losses, wall) or (None, 0) on error."""
    out.attempted += cfg.total_steps
    t0 = time.perf_counter()
    try:
        _, report = train(cfg, demos, mode)
    except (ValueError, FloatingPointError, RuntimeError) as e:
        out.failed += cfg.total_steps
        out.check(False, f"train() raised {type(e).__name__}: {e}")
        return None, 0.0
    wall = time.perf_counter() - t0
    bad = sum(1 for x in report.losses if not math.isfinite(x))
    out.failed += bad
    return report.losses, wall


def _check_losses(out: Outcome, losses: list[float]) -> None:
    out.check(all(math.isfinite(x) for x in losses), "non-finite loss")
    tenth = max(1, len(losses) // 10)
    head, tail = _mean(losses[:tenth]), _mean(losses[-tenth:])
    out.check(tail < head, f"loss_tail {tail:.6g} is not below the first "
              f"tenth's mean {head:.6g}")


def _train_layers(out: Outcome, sp: list[spans.Span], cfg) -> None:
    names = _by_name(sp)
    selfs = spans.self_times(sp)
    roots = set(names["training.train"])
    steps = cfg.total_steps * len(roots)
    L = out.layer
    L["nets.denoiser_batch_grads.ms"] = _mean_dur(
        sp, names.get("nets.denoiser_batch_grads", []), 1e3)
    opt = names.get("nets.optimizer_step", [])
    L["nets.optimizer_step.denoiser.ms"] = _mean_dur(
        sp, [i for i in opt if sp[i].parent in roots], 1e3)
    L["nets.optimizer_step.sampler.ms"] = _mean_dur(
        sp, [i for i in opt if sp[sp[i].parent].name
             == "training.sampler_update_batch"], 1e3)
    L["training.step.self_ms"] = sum(selfs[r] for r in roots) / steps * 1e3
    draws = 0.0
    for name in ("sample_timestep", "weighted_sample_index"):
        idxs = names.get(f"training.{name}", [])
        L[f"training.{name}.calls"] = len(idxs)
        L[f"training.{name}.us"] = _mean_dur(sp, idxs, 1e6)
        draws += sum(sp[i].dur for i in idxs)
    L["training.draws.step_share"] = draws / sum(sp[r].dur for r in roots)
    upd = names.get("training.sampler_update_batch", [])
    L["training.sampler_update_batch.self_ms"] = \
        _mean(selfs[i] for i in upd) * 1e3
    L["training.update_traj_weights_batch.ms"] = _mean_dur(
        sp, names.get("training.update_traj_weights_batch", []), 1e3)
    L["training.sampler_entropy.ms"] = _mean_dur(
        sp, names.get("training.sampler_entropy", []), 1e3)
    L["env.policy_features.us"] = _mean_dur(
        sp, names.get("env.policy_features", []), 1e6)


# -- rollout-bench ------------------------------------------------------------


@dataclass
class RowTotals:
    steps: int = 0
    calls: int = 0
    successes: int = 0
    episodes: int = 0
    rates: list[float] = field(default_factory=list)  # steps/s per episode
    norm_rates: list[float] = field(default_factory=list)  # at nominal speed

    def add(self, m, wall: float, slowdown: float = 1.0) -> None:
        self.steps += m.total_steps
        self.rates.append(m.total_steps / wall)
        self.norm_rates.append(m.total_steps * slowdown / wall)
        self.calls += m.total_calls
        self.successes += round(m.success_rate)
        self.episodes += 1


def _nfe_bounds(table) -> tuple[float, float]:
    """Per-replan calls-per-action extremes the schedule table allows."""
    ratios = [e.num_inference_steps / min(e.n_action_steps, T_P)
              for e in table.entries]
    return min(ratios), max(ratios)


def _check_episode(out: Outcome, label: str, schedule, table, m) -> None:
    if schedule is not None:
        na, nd = schedule
        want = math.ceil(m.total_steps / min(na, T_P)) * nd
        out.check(m.total_calls == want,
                  f"{label}: {m.total_calls} denoiser calls over "
                  f"{m.total_steps} steps, expected {want}")
    else:
        lo, hi = _nfe_bounds(table)
        max_nd = max(e.num_inference_steps for e in table.entries)
        nfe = m.total_calls / m.total_steps
        # every replan but the last yields its full horizon, so the only
        # excess over the per-replan ratio is the last replan's calls
        out.check(lo - 1e-12 <= nfe <= hi + max_nd / m.total_steps + 1e-12,
                  f"{label}: {nfe:.4f} calls/step outside the table's "
                  f"bounds [{lo}, {hi} + {max_nd}/steps]")


def _episode(out: Outcome, params, sched, row, table, es: int):
    label, sampler, schedule = row
    out.attempted += 1
    t0 = time.perf_counter()
    try:
        m = evaluate(params, sched, 1, schedule if schedule else table,
                     sampler, seeds=(es,), gap=GAP)
    except (ValueError, RuntimeError, diffpol.scheduling.ClassifierError) \
            as e:
        out.failed += 1
        out.check(False, f"{label}: episode {es} raised "
                  f"{type(e).__name__}: {e}")
        return None, 0.0
    wall = time.perf_counter() - t0
    _check_episode(out, label, schedule, table, m)
    return m, wall


def run_rollout(seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome()
    ref = calib.RefKernels()
    params, setup_s, raw_setup_s, _ = _median_timed(
        fixture.load_policy, SETUP_REPEATS, ref)
    sched = make_noise_schedule(params.T, 1e-4, 0.02)
    table = hvts_schedule_table()

    for row in BENCH_ROWS:  # warm-up, on an episode the loop never runs
        evaluate(params, sched, 1, row[2] or table, row[1],
                 seeds=(eval_seed(seed, -1),), gap=GAP)

    totals = {row[0]: RowTotals() for row in BENCH_ROWS}
    fixed = {row[0]: RowTotals() for row in BENCH_ROWS}
    seen: dict[tuple[str, int], object] = {}
    t_end = time.perf_counter() + seconds
    rnd = 0
    while time.perf_counter() < t_end or rnd < FIXED_ROUNDS:
        done = []
        for row in BENCH_ROWS:
            m, wall = _episode(out, params, sched, row, table,
                               eval_seed(seed, rnd))
            if m is not None:
                done.append((row[0], m, wall))
        slowdown = ref.slowdown("small")
        for label, m, wall in done:
            totals[label].add(m, wall, slowdown)
            if rnd < FIXED_ROUNDS:
                fixed[label].add(m, wall)
                seen[label, rnd] = m
        rnd += 1

    for row in BENCH_ROWS:  # the same seed must give the same Metrics
        m, _ = _episode(out, params, sched, row, table, eval_seed(seed, 0))
        out.check(m is not None and m == seen.get((row[0], 0)),
                  f"{row[0]}: repeated episode gave different Metrics")

    # medians over episodes: a burst of load from elsewhere on the
    # machine moves a few episodes, not the figure
    rates = {k: statistics.median(t.rates) if t.rates else 0.0
             for k, t in totals.items()}
    norm_rates = [statistics.median(t.norm_rates) if t.norm_rates else 0.0
                  for t in totals.values()]
    out.e2e["setup_s"] = setup_s
    out.e2e["throughput"] = _geomean(max(r, 1e-9) for r in norm_rates)
    L = out.layer
    L["raw.throughput"] = _geomean(max(r, 1e-9) for r in rates.values())
    L["raw.setup_s"] = raw_setup_s
    _record_slowdowns(out, ref)
    for label, q in fixed.items():
        L[f"rollout.{label}.ctrl_steps_per_s"] = rates[label]
        L[f"rollout.{label}.nfe_per_step"] = q.calls / max(q.steps, 1)
        L[f"rollout.{label}.success_rate"] = q.successes / max(q.episodes, 1)
    n_ep = sum(q.episodes for q in fixed.values())
    L["rollout.success_rate"] = \
        sum(q.successes for q in fixed.values()) / max(n_ep, 1)

    if traced:
        _trace_rollout(out, params, sched, table, seed, seen)
    return out


def _trace_rollout(out: Outcome, params, sched, table, seed: int,
                   seen: dict) -> None:
    """Repeat the first FIXED_ROUNDS rounds, each episode once untraced
    and then once traced.  The episodes match the untraced loop's, so
    their Metrics must too, and the paired wall times give the overhead
    without drift in the machine's speed between the two."""
    tracer = spans.Tracer()
    targets = rollout_targets()
    rows: dict[str, list[tuple[int, int]]] = {r[0]: [] for r in BENCH_ROWS}
    traced_calls = 0
    plain_wall = traced_wall = 0.0
    for rnd in range(FIXED_ROUNDS):
        for row in BENCH_ROWS:
            es = eval_seed(seed, rnd)
            _, wall0 = _episode(out, params, sched, row, table, es)
            lo = len(tracer.spans)
            inst = spans.install(tracer, targets)
            try:
                m, wall = _episode(out, params, sched, row, table, es)
            finally:
                spans.restore(inst)
            rows[row[0]].append((lo, len(tracer.spans)))
            out.check(m is not None and m == seen.get((row[0], rnd)),
                      f"{row[0]}: tracing changed episode {rnd}")
            if m is not None:
                traced_calls += m.total_calls
                plain_wall += wall0
                traced_wall += wall
    sp = tracer.spans
    names = _by_name(sp)
    selfs = spans.self_times(sp)
    L = out.layer

    fwd = names.get("nets.denoiser_forward", [])
    L["nets.denoiser_forward.calls"] = len(fwd)
    L["nets.denoiser_forward.us"] = _mean_dur(sp, fwd, 1e6)
    out.check(len(fwd) == traced_calls,
              f"traced denoiser_forward calls {len(fwd)} != evaluate() "
              f"NFE {traced_calls}")
    for key in ("diffusion.respaced_schedule", "env.env_step",
                "scheduling.scheduler_tick"):
        L[f"{key}.calls"] = len(names.get(key, []))
    for key in ("diffusion.respaced_schedule", "diffusion.ddpm_reverse_step",
                "diffusion.ddim_reverse_step", "env.env_step",
                "env.policy_features", "scheduling.scheduler_tick"):
        L[f"{key}.us"] = _mean_dur(sp, names.get(key, []), 1e6)
    ticks = names.get("scheduling.scheduler_tick", [])
    n_classify = len(names.get("scheduling.classify", []))
    L["scheduling.classify.calls"] = n_classify
    L["scheduling.classify_per_tick"] = n_classify / max(len(ticks), 1)
    L["scheduling.degraded_ticks"] = sum(1 for i in ticks if sp[i].info[1])

    stage_calls = [0] * len(STAGES)
    for label, ranges in rows.items():
        windows, episodes, stage = [], [], None
        for lo, hi in ranges:
            for i in range(lo, hi):
                s = sp[i]
                if s.name == "scheduling.scheduler_tick":
                    stage = s.info[0]
                elif s.name == "rollout.denoise_action_window":
                    windows.append(i)
                    if stage is not None and label.endswith("hvts"):
                        stage_calls[stage] += s.info
                elif s.name == "rollout.episode":
                    episodes.append(i)
                    stage = None
        replan_ms = [sp[i].dur * 1e3 for i in windows]
        pct, tail, n = spans.tail_percentile(replan_ms)
        p = f"rollout.{label}"
        L[f"{p}.replan_ms.p50"] = spans.percentile(replan_ms, 50) if n else 0
        L[f"{p}.replan_ms.tail"] = tail if n else 0.0
        L[f"{p}.replan_ms.tail_pct"] = pct
        L[f"{p}.replan_ms.n"] = n
        L[f"{p}.denoise_action_window.self_us"] = \
            _mean(selfs[i] for i in windows) * 1e6
        steps = sum(sp[i].info for i in episodes)
        L[f"{p}.episode.self_us_per_step"] = \
            sum(selfs[i] for i in episodes) / max(steps, 1) * 1e6
        L[f"{p}.actions_used_frac"] = steps / max(len(windows) * T_P, 1)
    hv = sum(stage_calls)
    for k, stage_name in enumerate(STAGES):
        L[f"rollout.{stage_name}.nfe_share"] = stage_calls[k] / max(hv, 1)

    L["trace.overhead_frac"] = traced_wall / plain_wall - 1.0 \
        if plain_wall > 0 else 0.0
    L["trace.absent_targets"] = len(inst.absent)
    out.absent = inst.absent
    out.tracer = tracer
