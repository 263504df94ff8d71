"""Receding-horizon rollout, metrics aggregation, speedup comparison."""

from dataclasses import replace

import numpy as np
import pytest
from helpers import expert_forward_fn, expert_window, fixed_rollout, \
    install_denoiser, zero_forward_fn

import diffpol.rollout
from diffpol.diffusion import ddim_reverse_step, ddpm_reverse_step, \
    make_noise_schedule, respaced_schedule
from diffpol.env import MAX_STEPS, T_P, observe, policy_features, reset_env
from diffpol.nets import _embed_table, denoiser_forward, denoiser_obs_part, \
    denoiser_step_part, init_params, mlp_forward
from diffpol.rollout import (
    EpisodeResult,
    Metrics,
    compare_speedup,
    denoise_action_window,
    episode_seeds,
    evaluate,
    fixed_schedule_table,
    hvts_schedule_table,
    rollout,
)
from diffpol.scheduling import SchedulerState

SCHED = make_noise_schedule(100)


def tiny_params(seed=0):
    # d_o matches the lifted observation the rollout feeds the denoiser
    d_feat = policy_features(np.zeros(6)).size
    return init_params(seed, d_o=d_feat, T_p=T_P, d_a=2, hidden=16,
                       embed_dim=8, T=100)


def per_step_draw_window(p, sched, obs, n_steps, kind, rng):
    """The reverse chain with the start window and each z drawn in
    separate calls, in chain order."""
    obs = policy_features(obs)
    a = rng.standard_normal((p.T_p, p.d_a))
    derived, idx = respaced_schedule(sched, n_steps)
    ctx = denoiser_step_part(p, idx) + denoiser_obs_part(p, obs)
    for j in range(n_steps, 0, -1):
        k = int(idx[j - 1])
        eps_hat = denoiser_forward(p, obs, a, k, ctx[j - 1])
        if kind == "ddpm":
            z = rng.standard_normal(a.shape) if j > 1 else np.zeros_like(a)
            a = ddpm_reverse_step(derived, eps_hat, a, j, z)
        else:
            k_prev = int(idx[j - 2]) if j > 1 else 0
            a = ddim_reverse_step(sched, eps_hat, a, k, k_prev)
    return np.clip(a, -1.0, 1.0)


class TestDenoiseWindow:
    def test_shape_and_bounds(self):
        p = tiny_params()
        rng = np.random.default_rng(0)
        for kind in ("ddpm", "ddim"):
            w = denoise_action_window(p, SCHED, observe(reset_env(0)), 10,
                                      kind, rng, {})
            assert w.shape == (T_P, 2)
            assert np.all(np.abs(w) <= 1.0)

    def test_deterministic_given_rng_seed(self):
        p = tiny_params()
        obs = observe(reset_env(0))
        a = denoise_action_window(p, SCHED, obs, 10, "ddpm",
                                  np.random.default_rng(7), {})
        b = denoise_action_window(p, SCHED, obs, 10, "ddpm",
                                  np.random.default_rng(7), {})
        np.testing.assert_array_equal(a, b)

    def test_ddim_expert_reconstruction_is_exact(self, monkeypatch):
        install_denoiser(monkeypatch, expert_forward_fn(SCHED))
        obs = observe(reset_env(3))
        w = denoise_action_window(tiny_params(), SCHED, obs, 8, "ddim",
                                  np.random.default_rng(0), {})
        np.testing.assert_allclose(w, expert_window(obs), atol=1e-9)

    def test_rejects_bad_args(self):
        p = tiny_params()
        obs = observe(reset_env(0))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            denoise_action_window(p, SCHED, obs, 101, "ddpm", rng, {})
        with pytest.raises(ValueError):
            denoise_action_window(p, SCHED, obs, 0, "ddpm", rng, {})
        with pytest.raises(ValueError):
            denoise_action_window(p, SCHED, obs, 10, "euler", rng, {})

    @pytest.mark.parametrize("kind", ["ddpm", "ddim"])
    def test_default_path_matches_concatenated_forward(self, kind,
                                                       monkeypatch):
        """The per-window first-layer context gives the windows the plain
        forward over the concatenated training input gives."""
        p = tiny_params(3)
        table = _embed_table(p.embed_dim, p.T)

        def concat_forward(params, obs, ak, k, context=None):
            x = np.concatenate([obs, ak.ravel(), table[k - 1]])[None]
            return mlp_forward(params.net, x)[0][0].reshape(ak.shape)

        obs = observe(reset_env(5))
        for n_steps in (1, 10, 100):
            got = denoise_action_window(p, SCHED, obs, n_steps, kind,
                                        np.random.default_rng(n_steps), {})
            with monkeypatch.context() as mp:
                install_denoiser(mp, concat_forward)
                want = denoise_action_window(p, SCHED, obs, n_steps, kind,
                                             np.random.default_rng(n_steps),
                                             {})
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n_steps", [1, 2, 20, 100])
    @pytest.mark.parametrize("kind", ["ddpm", "ddim"])
    def test_matches_per_step_draws(self, kind, n_steps, dtype):
        """One draw per window gives the per-step draws' window bit for
        bit and leaves the generator where they leave it, with the step
        part built for the window or taken from a map that windows
        share, as an episode's do."""
        p = tiny_params(6)
        p = replace(p, net=p.net.astype(dtype))
        rng_a = np.random.default_rng(40 + n_steps)
        rng_b = np.random.default_rng(40 + n_steps)
        shared = {}
        for env_seed, step_parts in enumerate(({}, shared, shared)):
            obs = observe(reset_env(n_steps + env_seed))
            got = denoise_action_window(p, SCHED, obs, n_steps, kind, rng_a,
                                        step_parts)
            want = per_step_draw_window(p, SCHED, obs, n_steps, kind, rng_b)
            assert got.tobytes() == want.tobytes()
        assert list(shared) == [n_steps]
        assert rng_a.standard_normal(4).tobytes() \
            == rng_b.standard_normal(4).tobytes()


class TestRollout:
    def test_expert_policy_succeeds_ddim(self, monkeypatch):
        install_denoiser(monkeypatch, expert_forward_fn(SCHED))
        r = fixed_rollout(tiny_params(), SCHED, env_seed=0, pair=(8, 25),
                          sampler_kind="ddim", seed=1)
        assert r.success and r.steps < MAX_STEPS

    def test_expert_policy_succeeds_ddpm(self, monkeypatch):
        install_denoiser(monkeypatch, expert_forward_fn(SCHED))
        for env_seed in range(5):
            r = fixed_rollout(tiny_params(), SCHED, env_seed=env_seed,
                              pair=(8, 50), sampler_kind="ddpm", seed=1)
            assert r.success, f"env seed {env_seed}"

    def test_zero_policy_fails(self, monkeypatch):
        install_denoiser(monkeypatch, zero_forward_fn(SCHED))
        r = fixed_rollout(tiny_params(), SCHED, env_seed=0, pair=(8, 10),
                          sampler_kind="ddim", seed=1)
        assert not r.success
        assert r.steps == MAX_STEPS

    def test_replan_arithmetic_and_counter(self, monkeypatch):
        calls = {"n": 0}
        inner = zero_forward_fn(SCHED)

        def counting(params, obs, ak, k, context=None):
            calls["n"] += 1
            return inner(params, obs, ak, k)

        install_denoiser(monkeypatch, counting)
        r = fixed_rollout(tiny_params(), SCHED, env_seed=0, pair=(8, 100),
                          sampler_kind="ddpm", seed=0)
        assert r.steps == MAX_STEPS
        replans = int(np.ceil(r.steps / 8))
        assert r.denoiser_calls == replans * 100
        assert calls["n"] == r.denoiser_calls  # instrumented count agrees

    @pytest.mark.parametrize("scheduled", [False, True],
                             ids=["fixed", "hvts"])
    def test_default_path_calls_denoiser_forward_once_per_nfe(
            self, monkeypatch, scheduled):
        """The benchmark counts NFE by wrapping this module attribute."""
        calls = {"n": 0}
        inner = diffpol.rollout.denoiser_forward

        def counting(*args, **kwargs):
            calls["n"] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(diffpol.rollout, "denoiser_forward", counting)
        if scheduled:
            r = rollout(tiny_params(), SCHED, env_seed=1,
                        schedule=SchedulerState(hvts_schedule_table()),
                        sampler_kind="ddpm", seed=2)
        else:
            r = fixed_rollout(tiny_params(), SCHED, env_seed=1,
                              pair=(8, 10), sampler_kind="ddim", seed=2)
        assert r.denoiser_calls > 0
        assert calls["n"] == r.denoiser_calls

    def test_step_part_built_once_per_step_count(self, monkeypatch):
        """A scheduled episode builds the denoiser's step part once for
        each distinct N_d among its replans, not once per replan."""
        built = []
        inner = diffpol.rollout.denoiser_step_part

        def counting(params, ks):
            built.append(len(ks))
            return inner(params, ks)

        monkeypatch.setattr(diffpol.rollout, "denoiser_step_part", counting)
        # the HVTS table with align's step count apart from approach's,
        # the two stages this episode visits
        table = hvts_schedule_table()
        table = replace(table, entries=tuple(
            replace(e, num_inference_steps=25) if e.name == "align" else e
            for e in table.entries))
        r = rollout(tiny_params(), SCHED, env_seed=3,
                    schedule=SchedulerState(table),
                    sampler_kind="ddim", seed=2)
        n_ds = [nd for *_, nd in r.replans]
        assert set(n_ds) == {20, 25} and len(n_ds) > 2
        assert sorted(built) == [20, 25]

    def test_replans_cover_every_step(self, monkeypatch):
        # one record per 8-step window, the last one cut at the success
        install_denoiser(monkeypatch, expert_forward_fn(SCHED))
        r = fixed_rollout(tiny_params(), SCHED, env_seed=0, pair=(8, 5),
                          sampler_kind="ddim", seed=0)
        assert r.success and r.steps % 8 != 0
        assert [t[0] for t in r.replans] == list(range(0, r.steps, 8))
        assert all(t[2:] == (8, 5) for t in r.replans)
        assert r.denoiser_calls == 5 * len(r.replans)

    def test_step_limit_cuts_the_last_window(self, monkeypatch):
        # MAX_STEPS = 12 * 16 + 8: the 13th window runs 8 of its actions
        assert MAX_STEPS == 12 * 16 + 8
        calls = {"n": 0}
        inner = diffpol.rollout.env_step

        def counting(st, action):
            calls["n"] += 1
            return inner(st, action)

        monkeypatch.setattr(diffpol.rollout, "env_step", counting)
        install_denoiser(monkeypatch, zero_forward_fn(SCHED))
        r = fixed_rollout(tiny_params(), SCHED, env_seed=0, pair=(16, 10),
                          sampler_kind="ddim", seed=0)
        assert not r.success
        assert r.steps == calls["n"] == MAX_STEPS
        assert [t[0] for t in r.replans] == list(range(0, MAX_STEPS, 16))
        assert r.denoiser_calls == 13 * 10

    def test_seeded_rollout_bit_identical(self):
        p = tiny_params()
        a = fixed_rollout(p, SCHED, 4, (8, 10), "ddpm", seed=9)
        b = fixed_rollout(p, SCHED, 4, (8, 10), "ddpm", seed=9)
        assert a == b  # wall_time excluded from comparison

    def test_scheduled_rollout_stays_in_table(self, monkeypatch):
        install_denoiser(monkeypatch, expert_forward_fn(SCHED))
        table = hvts_schedule_table()
        r = rollout(tiny_params(), SCHED, env_seed=2,
                    schedule=SchedulerState(table), sampler_kind="ddim",
                    seed=3)
        assert r.success
        pairs = {(t[2], t[3]) for t in r.replans}
        allowed = {e.pair for e in table.entries}
        assert pairs <= allowed
        assert {t[1] for t in r.replans} <= {0, 1, 2, 3, 4}

    def test_scheduled_cheaper_than_fixed_heavy(self, monkeypatch):
        install_denoiser(monkeypatch, expert_forward_fn(SCHED))
        table = hvts_schedule_table()
        fixed = fixed_rollout(tiny_params(), SCHED, 5, (16, 100), "ddpm",
                              seed=0)
        hvts = rollout(tiny_params(), SCHED, 5, SchedulerState(table),
                       "ddpm", seed=0)
        assert hvts.denoiser_calls / hvts.steps \
            < fixed.denoiser_calls / fixed.steps

    def test_rejects_bad_schedule_config(self, monkeypatch):
        install_denoiser(monkeypatch, zero_forward_fn(SCHED))
        with pytest.raises(ValueError):
            fixed_rollout(tiny_params(), SCHED, 0, (8,), "ddpm")
        with pytest.raises(ValueError):
            fixed_rollout(tiny_params(), SCHED, 0, (8, 500), "ddpm")


    @pytest.mark.parametrize("horizon", [0, -3])
    def test_rejects_nonpositive_fixed_horizon(self, horizon, monkeypatch):
        def no_window(*args, **kwargs):
            raise AssertionError("a window was drawn")

        monkeypatch.setattr(diffpol.rollout, "denoise_action_window",
                            no_window)
        with pytest.raises(ValueError, match="n_action_steps must be a "
                                             "positive integer, got "):
            fixed_rollout(tiny_params(), SCHED, 0, (horizon, 10))


class TestEvaluate:
    def test_expert_policy_metrics(self, monkeypatch):
        install_denoiser(monkeypatch, expert_forward_fn(SCHED))
        m = evaluate(tiny_params(), SCHED, n_episodes=3, schedule=(8, 10),
                     sampler_kind="ddim", seeds=(0, 1))
        assert m.success_rate == 1.0
        assert m.per_seed_success == (1.0, 1.0)
        assert m.early_success_rate <= m.success_rate
        assert m.n_episodes == 3 and m.seeds == (0, 1)
        assert m.total_steps > 0
        assert m.mean_calls_per_step == m.total_calls / m.total_steps

    def test_zero_policy_metrics(self, monkeypatch):
        install_denoiser(monkeypatch, zero_forward_fn(SCHED))
        m = evaluate(tiny_params(), SCHED, n_episodes=2, schedule=(8, 5),
                     sampler_kind="ddim", seeds=(0,))
        assert m.success_rate == 0.0
        assert m.early_success_rate == 0.0

    def test_deterministic(self):
        a = evaluate(tiny_params(), SCHED, 2, (8, 5), "ddpm", seeds=(0, 1))
        b = evaluate(tiny_params(), SCHED, 2, (8, 5), "ddpm", seeds=(0, 1))
        assert a == b

    def test_scheduled_evaluation(self, monkeypatch):
        install_denoiser(monkeypatch, expert_forward_fn(SCHED))
        m = evaluate(tiny_params(), SCHED, n_episodes=2,
                     schedule=hvts_schedule_table(), sampler_kind="ddim",
                     seeds=(0,))
        assert m.success_rate == 1.0
        assert m.mean_calls_per_step < 100 / 16

    def test_episode_seeds_disjoint_across_eval_seeds(self):
        a = set(episode_seeds(0, 50))
        b = set(episode_seeds(1, 50))
        assert not (a & b)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            evaluate(tiny_params(), SCHED, 0, (8, 5))
        with pytest.raises(ValueError):
            evaluate(tiny_params(), SCHED, 1, (8, 5), seeds=())
        with pytest.raises(ValueError):
            evaluate(tiny_params(), SCHED, 1, (8, 5),
                     seeds=(s for s in ()))

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_rejects_nonpositive_fixed_horizon(self, horizon, monkeypatch):
        def no_rollout(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(diffpol.rollout, "rollout", no_rollout)
        with pytest.raises(ValueError, match="n_action_steps must be a "
                                             "positive integer, got "):
            evaluate(tiny_params(), SCHED, 1, (horizon, 10))

    @pytest.mark.parametrize("n_episodes,seeds,match", [
        (1, (0, 0), "seeds repeat"), (2, (3, 1, 3), "seeds repeat"),
        (10_001, (0, 1), "exceeds 10000"), (10_001, (5,), "exceeds 10000")])
    def test_rejects_episodes_that_would_run_twice(self, n_episodes, seeds,
                                                   match, monkeypatch):
        """A repeated seed, or more episodes than a seed's block of 10,000
        env seeds, would run some episode twice and count it twice in
        every rate; neither runs any episode."""
        assert episode_seeds(0, 10_001)[-1] == episode_seeds(1, 1)[0]

        def no_rollout(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(diffpol.rollout, "rollout", no_rollout)
        with pytest.raises(ValueError, match=match):
            evaluate(tiny_params(), SCHED, n_episodes, (8, 5), seeds=seeds)

    @pytest.mark.parametrize("pair", [(8.7, 3), (True, 3), (4, 2.5),
                                      ("4", "3"), (8,), (8, 3, 1)])
    def test_rejects_pairs_that_are_not_two_positive_integers(
            self, pair, monkeypatch):
        """A pair meets a table entry's rule: no value is truncated or
        converted, so a float, a bool or a string never runs."""
        def no_rollout(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(diffpol.rollout, "rollout", no_rollout)
        with pytest.raises(ValueError):
            evaluate(tiny_params(), SCHED, 1, pair, "ddim", seeds=(0,))

    @pytest.mark.parametrize("pair,kind", [((8, 5), "ddim"),
                                           ((16, 10), "ddpm")])
    def test_pair_runs_as_its_uniform_table(self, pair, kind, monkeypatch):
        """A pair and fixed_schedule_table's table for it give the same
        metrics and the same episodes, replan records included."""
        episodes = []
        inner = diffpol.rollout.rollout

        def recording(*args, **kwargs):
            episodes.append(inner(*args, **kwargs))
            return episodes[-1]

        monkeypatch.setattr(diffpol.rollout, "rollout", recording)
        install_denoiser(monkeypatch, expert_forward_fn(SCHED))
        runs = []
        for schedule in (pair, fixed_schedule_table(*pair)):
            episodes.clear()
            m = evaluate(tiny_params(), SCHED, 2, schedule, kind,
                         seeds=(0, 1))
            runs.append((m, list(episodes)))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == 4
        assert {t[2:] for r in runs[0][1] for t in r.replans} == {pair}

    def test_denoiser_runs_on_a_float32_copy(self, monkeypatch):
        """evaluate computes on a float32 copy of the net: a float64 net
        and its float32 rounding make the same denoiser calls with the
        same outputs, and the caller's net stays float64 and unchanged."""
        seen = []
        inner = diffpol.rollout.denoiser_forward

        def recording(params, *args):
            eps_hat = inner(params, *args)
            seen.append((params.net.flat.dtype, eps_hat.tobytes()))
            return eps_hat

        monkeypatch.setattr(diffpol.rollout, "denoiser_forward", recording)
        p = tiny_params(4)
        before = p.net.flat.copy()
        runs = []
        for params in (p, replace(p, net=p.net.astype(np.float32))):
            seen.clear()
            m = evaluate(params, SCHED, 2, hvts_schedule_table(), "ddpm",
                         seeds=(0, 1))
            runs.append((m, list(seen)))
        assert runs[0] == runs[1]
        assert {dtype for dtype, _ in runs[0][1]} == {np.dtype(np.float32)}
        assert p.net.flat.dtype == np.float64
        np.testing.assert_array_equal(p.net.flat, before)

    def test_seed_generator_matches_tuple(self):
        args = (tiny_params(), SCHED, 2, (8, 5), "ddim")
        assert evaluate(*args, seeds=(s for s in (0, 1))) \
            == evaluate(*args, seeds=(0, 1))


def fake_metrics(calls_per_step, success=1.0, seeds=(0, 1, 2)):
    return Metrics(success_rate=success, early_success_rate=success,
                   mean_calls_per_step=calls_per_step, n_episodes=10,
                   seeds=seeds, per_seed_success=(success,) * len(seeds),
                   total_calls=int(calls_per_step * 1000), total_steps=1000)


class TestCompareSpeedup:
    def test_identical_is_unity(self):
        r = compare_speedup(fake_metrics(6.25), fake_metrics(6.25))
        assert r.nfe_reduction == pytest.approx(1.0)
        assert r.success_delta == 0.0

    def test_halved_calls_doubles(self):
        r = compare_speedup(fake_metrics(6.25), fake_metrics(3.125))
        assert r.nfe_reduction == pytest.approx(2.0)

    def test_success_delta_sign(self):
        r = compare_speedup(fake_metrics(4.0, success=0.9),
                            fake_metrics(2.0, success=0.8))
        assert r.success_delta == pytest.approx(0.1)

    def test_seed_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compare_speedup(fake_metrics(4.0, seeds=(0, 1)),
                            fake_metrics(4.0, seeds=(0, 2)))
