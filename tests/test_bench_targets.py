"""The benchmark's span targets name functions that still exist, and
its episodes and training set-up call diffpol in forms that still work.

perfbench wraps diffpol functions by attribute name to split a run into
layers; a renamed or deleted function would silently drop its span.
Importing the workload module runs no workload.
"""

import pathlib
import sys

import numpy as np
import pytest

import diffpol.rollout
from diffpol.diffusion import make_noise_schedule
from diffpol.env import T_P, generate_demos, policy_features
from diffpol.nets import init_params
from diffpol.rollout import hvts_schedule_table

PERFBENCH = str(pathlib.Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return workloads


@pytest.mark.parametrize("build", ["train_targets", "rollout_targets"])
def test_every_span_target_exists(workloads, build):
    targets = getattr(workloads, build)()
    assert targets
    # vars() and not hasattr, as the tracer itself looks targets up
    missing = [f"{getattr(t.owner, '__name__', t.owner)}.{t.attr}"
               for t in targets if t.attr not in vars(t.owner)]
    assert missing == []


def test_every_bench_row_runs_one_episode(workloads, monkeypatch):
    """Each row through the benchmark's own episode call on a tiny
    policy: evaluate(..., seeds=, gap=), and, traced, scheduler_tick's
    (N_a, N_d, state) with state.active and state.degraded, each
    denoise_action_window's N_d (its 4th positional argument) and one
    denoiser_forward call per NFE."""
    d_feat = policy_features(np.zeros(6)).size
    params = init_params(0, d_o=d_feat, T_p=T_P, d_a=2, hidden=16,
                         embed_dim=8, T=100)
    sched = make_noise_schedule(params.T)
    table = hvts_schedule_table()
    episodes = []  # every EpisodeResult, under the tracer's wrapper
    inner = diffpol.rollout.rollout

    def recording(*args, **kwargs):
        episodes.append(inner(*args, **kwargs))
        return episodes[-1]

    monkeypatch.setattr(diffpol.rollout, "rollout", recording)
    out = workloads.Outcome()
    tracer = workloads.spans.Tracer()
    inst = workloads.spans.install(tracer, workloads.rollout_targets())
    nfe = 0
    try:
        for row in workloads.BENCH_ROWS:
            m, _ = workloads._episode(out, params, sched, row, table,
                                      workloads.eval_seed(0, 0))
            assert m is not None and m.n_episodes == 1, row[0]
            nfe += m.total_calls
    finally:
        workloads.spans.restore(inst)
    assert (out.attempted, out.failed, out.problems) == \
        (len(workloads.BENCH_ROWS), 0, [])
    ticks = [s.info for s in tracer.spans
             if s.name == "scheduling.scheduler_tick"]
    assert ticks and all(degraded is False for _, degraded in ticks)
    windows = [s.info for s in tracer.spans
               if s.name == "rollout.denoise_action_window"]
    assert len(episodes) == len(workloads.BENCH_ROWS)
    assert windows == [nd for r in episodes for *_, nd in r.replans]
    forwards = [s for s in tracer.spans if s.name == "nets.denoiser_forward"]
    assert len(forwards) == nfe == sum(r.denoiser_calls for r in episodes)


def test_training_setup_runs(workloads):
    """The train-* set-up as the benchmark runs it: the demo digest it
    compares across set-up repeats, then train() at its configuration in
    both modes, on the dataset it digested."""
    digests = [workloads._digest_demos(generate_demos(3, seed))
               for seed in (0, 0, 1)]
    assert digests[0] == digests[1] != digests[2]
    demos = generate_demos(3, 0)
    for mode in ("uniform", "aln"):
        _, report = workloads.train(workloads.train_config(0, 2), demos, mode)
        assert report.steps == [1, 2]
        assert all(np.isfinite(report.losses))
