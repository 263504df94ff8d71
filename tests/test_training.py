"""Reward shaping, the learnable timestep sampler, trajectory replay
weights, and the training loop."""

import csv
import sys
import threading

import numpy as np
import pytest
from scipy import stats

import diffpol.training
from diffpol.env import D_A, D_O, T_P, DemoDataset, generate_demos, \
    policy_features
from diffpol.nets import _embed_table, init_params, load_checkpoint, \
    mlp_backward, mlp_forward, save_checkpoint
from diffpol.training import (
    WEIGHT_FLOOR,
    TrainConfig,
    _policy_entropy_grad,
    _renormalize,
    anneal_alpha,
    make_timestep_sampler,
    normalize_rewards,
    sample_timestep,
    sampler_distribution,
    sampler_entropy,
    sampler_update_batch,
    train,
    update_traj_weights_batch,
    weighted_sample_index,
)

from helpers import policy_entropy_grad_loop, sampler_objective


def tiny_dataset(seed=0, n_traj=4, n_windows=6):
    """Random demos whose windows are cut from per-step actions, as a
    collector records them: n_windows observations and
    n_windows + T_P - 1 actions per trajectory."""
    rng = np.random.default_rng(seed)
    obs, acts = [], []
    for _ in range(n_traj):
        obs.append(rng.uniform(0.0, 1.0, (n_windows, D_O)))
        acts.append(rng.uniform(-1.0, 1.0, (n_windows + T_P - 1, D_A)))
    return DemoDataset(range(n_traj), obs, acts)


def tiny_config(**over):
    base = dict(total_steps=60, batch_size=8, seed=0, T=20, warmup=10,
                hidden=32, embed_dim=32, sampler_hidden=32, entropy_coef=1.0,
                snapshot_every=20, eval_every=0)
    base.update(over)
    return TrainConfig(**base)


class TestDemoDataset:
    def test_batch_gather_matches_trajectory_views(self):
        """A batch's rows of the packed arrays are the drawn windows,
        bit for bit, and its rows of the lifted observations are each
        window start's own lift."""
        ds = generate_demos(6, seed=1)
        feats = policy_features(ds.obs)
        trajs = ds.trajectories
        rng = np.random.default_rng(0)
        for _ in range(20):
            idxs = rng.integers(0, ds.n_traj, size=32)
            wis = rng.integers(ds.n_windows[idxs])
            steps, starts = ds.window_rows(idxs, wis)
            acts, obs_feats = ds.actions[steps], feats[starts]
            for e, (i, w) in enumerate(zip(idxs, wis)):
                np.testing.assert_array_equal(acts[e], trajs[i].actions[w])
                np.testing.assert_array_equal(
                    obs_feats[e], policy_features(trajs[i].obs[w]))

    def test_rejects_trajectory_without_windows(self):
        obs = [np.zeros((3, D_O)), np.zeros((0, D_O))]
        acts = [np.zeros((3 + T_P - 1, D_A)), np.zeros((T_P - 1, D_A))]
        with pytest.raises(ValueError, match=r"trajectory 1 \(env seed 8\)"):
            DemoDataset([7, 8], obs, acts)

    def test_rejects_more_observations_than_actions(self):
        obs = [np.zeros((3, D_O)), np.zeros((3, D_O))]
        acts = [np.zeros((3 + T_P - 1, D_A)), np.zeros((3 + T_P - 2, D_A))]
        with pytest.raises(ValueError, match=r"trajectory 1 \(env seed 1\)"):
            DemoDataset([0, 1], obs, acts)

    @pytest.mark.parametrize("obs_shape,acts_shape", [
        ((4, D_O), (4 + T_P, D_A)),      # more actions than the windows use
        ((4, D_O - 1), (4 + T_P - 1, D_A)),
        ((4, D_O), (4 + T_P - 1, D_A + 1)),
        ((4, D_O), (4, T_P, D_A)),       # windows, not per-step actions
    ])
    def test_rejects_obs_and_actions_that_do_not_match(self, obs_shape,
                                                        acts_shape):
        obs = [np.zeros((2, D_O)), np.zeros(obs_shape)]
        acts = [np.zeros((2 + T_P - 1, D_A)), np.zeros(acts_shape)]
        with pytest.raises(ValueError, match=r"trajectory 1 \(env seed 3\)"):
            DemoDataset([2, 3], obs, acts)

    def test_rejects_no_trajectories_and_unmatched_lists(self):
        with pytest.raises(ValueError, match="no trajectories"):
            DemoDataset([], [], [])
        with pytest.raises(ValueError, match="one obs and one actions"):
            DemoDataset([0, 1], [np.zeros((1, D_O))],
                        [np.zeros((T_P, D_A))])


class TestRewardShaping:
    def test_zscore_frozen(self):
        z = normalize_rewards(np.array([2.0, 4.0, 6.0]))
        np.testing.assert_allclose(
            z, [-1.2247448638915892, 0.0, 1.2247448638915892], rtol=0, atol=0)

    def test_zscore_constant_batch(self):
        # zero spread: eps keeps it finite, all rewards zero
        np.testing.assert_array_equal(normalize_rewards(np.full(5, 3.0)),
                                      np.zeros(5))

    def test_zscore_single_element(self):
        assert normalize_rewards(np.array([7.0]))[0] == 0.0

    def test_zscore_rejects_bad_input(self):
        with pytest.raises(ValueError):
            normalize_rewards(np.array([]))
        with pytest.raises(ValueError):
            normalize_rewards(np.zeros((2, 2)))

    def test_anneal_endpoints_and_midpoint(self):
        assert anneal_alpha(0, 1000) == pytest.approx(0.1, abs=1e-15)
        assert anneal_alpha(1000, 1000) == pytest.approx(0.01, abs=1e-15)
        assert anneal_alpha(500, 1000) == pytest.approx(0.055, abs=1e-15)

    def test_anneal_monotone(self):
        vals = [anneal_alpha(s, 200) for s in range(0, 201, 10)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_anneal_rejects_bad_args(self):
        with pytest.raises(ValueError):
            anneal_alpha(5, 0)
        with pytest.raises(ValueError):
            anneal_alpha(-1, 10)
        with pytest.raises(ValueError):
            anneal_alpha(11, 10)


class TestTrajectoryWeights:
    def test_ema_frozen(self):
        # (1 - 0.2) * 1.0 + 0.2 * (0.5 + 1) is 1.1 exactly, beside an
        # untouched 1.0, before the floor and mean-one rescale
        out = update_traj_weights_batch(np.ones(2), [0], [0.5], 0.2)
        np.testing.assert_array_equal(out, _renormalize(np.array([1.1, 1.0])))

    def test_update_renormalizes_to_mean_one(self):
        tw = np.ones(2)
        out = update_traj_weights_batch(tw, [0], [0.5], 0.2)
        np.testing.assert_allclose(out, [22.0 / 21.0, 20.0 / 21.0],
                                   rtol=0, atol=1e-15)
        assert out.mean() == pytest.approx(1.0, abs=1e-15)

    def test_floor_engages_on_bad_trajectory(self):
        # a large negative reward floors the weight; the mean-one rescale
        # then lifts everything by a common factor, preserving ratios
        tw = np.ones(3)
        out = update_traj_weights_batch(tw, [0], [-24.0], 1.0)
        scale = 3.0 / (2.0 + WEIGHT_FLOOR)
        np.testing.assert_allclose(
            out, [WEIGHT_FLOOR * scale, scale, scale], rtol=0, atol=1e-15)
        assert np.all(out >= WEIGHT_FLOOR)

    def test_renormalize_pins_iteratively(self):
        # first rescale drags the middle entry under the floor; it must be
        # pinned there and the rest rescaled again, ratios preserved
        out = _renormalize(np.array([3.0, WEIGHT_FLOOR, 0.5]))
        np.testing.assert_allclose(
            out, [6.0 * (3.0 - WEIGHT_FLOOR) / 7.0, WEIGHT_FLOOR,
                  (3.0 - WEIGHT_FLOOR) / 7.0], rtol=0, atol=1e-12)
        assert out.sum() == pytest.approx(3.0, abs=1e-12)

    def test_invariants_under_random_updates(self):
        rng = np.random.default_rng(0)
        tw = np.ones(8)
        for _ in range(200):
            i = int(rng.integers(8))
            r = float(rng.normal(scale=3.0))
            a = float(rng.uniform(0.01, 1.0))
            tw = update_traj_weights_batch(tw, [i], [r], a)
            assert np.all(tw >= WEIGHT_FLOOR - 1e-15)
            assert tw.mean() == pytest.approx(1.0, abs=1e-9)

    def test_batch_update_matches_sequential_ema(self):
        tw = np.ones(4)
        out = update_traj_weights_batch(tw, np.array([0, 2]),
                                        np.array([0.5, -0.5]), 0.2)
        w = tw.copy()
        w[0] = (1.0 - 0.2) * w[0] + 0.2 * (0.5 + 1.0)
        w[2] = (1.0 - 0.2) * w[2] + 0.2 * (-0.5 + 1.0)
        np.testing.assert_allclose(out, _renormalize(w), rtol=0, atol=1e-15)

    def test_weighted_draw_frequencies(self):
        tw = np.array([0.5, 1.0, 2.5])
        rng = np.random.default_rng(1)
        n = 4000
        counts = np.bincount(weighted_sample_index(tw, rng, size=n),
                             minlength=3)
        expected = n * tw / tw.sum()
        assert stats.chisquare(counts, expected).pvalue > 1e-3

    def test_rejects_bad_args(self):
        tw = np.ones(2)
        for i in (-1, 2):
            with pytest.raises(IndexError):
                update_traj_weights_batch(tw, [i], [0.0], 0.1)
        with pytest.raises(ValueError):
            update_traj_weights_batch(tw, [0], [0.0], 0.0)
        with pytest.raises(ValueError):
            update_traj_weights_batch(tw, [0], [0.0], 1.5)

    @pytest.mark.parametrize("idxs, rs", [
        ([0, 1, 2], [0.5]), ([0], [0.5, 0.5]), ([[0, 1]], [[0.5, 0.5]]),
        (0, 0.5),
    ], ids=["fewer-rewards", "more-rewards", "2-d", "0-d"])
    def test_rejects_unmatched_draws(self, idxs, rs):
        """Each drawn index needs its own reward: zipping unequal inputs
        would update some draws and drop the rest without a word."""
        tw = np.ones(3)
        with pytest.raises(ValueError, match="matching 1-d"):
            update_traj_weights_batch(tw, np.array(idxs), np.array(rs), 0.1)
        np.testing.assert_array_equal(tw, np.ones(3))


class TestTimestepSampler:
    def test_distribution_is_normalized(self):
        ts = make_timestep_sampler(0, T=15, hidden=32, embed_dim=16)
        p = sampler_distribution(ts)
        assert p.shape == (15,)
        assert np.all(p > 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_warmup_draws_are_uniform(self):
        ts = make_timestep_sampler(0, T=10, warmup=100, hidden=32,
                                   embed_dim=16)
        rng = np.random.default_rng(2)
        n = 5000
        counts = np.bincount(sample_timestep(ts, rng, 0, size=n) - 1,
                             minlength=10)
        assert stats.chisquare(counts).pvalue > 1e-3

    def test_post_warmup_draws_follow_softmax(self):
        ts = make_timestep_sampler(3, T=8, warmup=0, hidden=32, embed_dim=16)
        # push the logits away from uniform first
        for _ in range(30):
            sampler_update_batch(ts, [3], [1.0])
        p = sampler_distribution(ts)
        rng = np.random.default_rng(4)
        n = 5000
        counts = np.bincount(sample_timestep(ts, rng, 99, size=n) - 1,
                             minlength=8)
        assert stats.chisquare(counts, n * p).pvalue > 1e-3

    def test_gradient_matches_finite_differences(self):
        ts = make_timestep_sampler(0, T=12, warmup=0, entropy_coef=0.7,
                                   hidden=32, embed_dim=16)
        k, r = 5, 1.3
        dz = _policy_entropy_grad(ts, np.array([k]), np.array([r]))
        x = _embed_table(ts.embed_dim, ts.T)
        _, cache = mlp_forward(ts.net, x)
        grads = mlp_backward(ts.net, cache, dz[:, None])
        rng = np.random.default_rng(1)
        eps = 1e-6
        for arrs, garrs in ((ts.net.weights, grads.weights),
                            (ts.net.biases, grads.biases)):
            for li, (arr, garr) in enumerate(zip(arrs, garrs)):
                flat, gflat = arr.reshape(-1), garr.reshape(-1)
                n_probe = min(5, flat.size)
                for idx in rng.choice(flat.size, size=n_probe, replace=False):
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    ts._logits = None
                    fp = sampler_objective(ts, k, r)
                    flat[idx] = orig - eps
                    ts._logits = None
                    fm = sampler_objective(ts, k, r)
                    flat[idx] = orig
                    ts._logits = None
                    num = (fp - fm) / (2.0 * eps)
                    if abs(num) < 1e-9 and abs(gflat[idx]) < 1e-9:
                        continue  # both zero: logit grads sum to zero
                    denom = abs(num) + abs(gflat[idx])
                    assert abs(num - gflat[idx]) / denom < 1e-5

    def test_reward_pulls_probability_up(self):
        ts = make_timestep_sampler(0, T=12, warmup=0, entropy_coef=0.0,
                                   hidden=32, embed_dim=16)
        k = 5
        before = sampler_distribution(ts)[k - 1]
        for _ in range(50):
            sampler_update_batch(ts, [k], [1.0])
        after = sampler_distribution(ts)[k - 1]
        assert after > 0.5
        assert after > 3.0 * before

    def test_entropy_term_pushes_toward_uniform(self):
        ts = make_timestep_sampler(0, T=12, warmup=0, entropy_coef=0.0,
                                   hidden=32, embed_dim=16)
        for _ in range(40):
            sampler_update_batch(ts, [4], [1.0])
        ts.entropy_coef = 10.0
        h0 = sampler_entropy(ts)
        for _ in range(40):
            sampler_update_batch(ts, [4], [0.0])
        assert sampler_entropy(ts) > h0

    def test_objective_value(self):
        ts = make_timestep_sampler(0, T=9, hidden=32, embed_dim=16,
                                   entropy_coef=2.5)
        p = sampler_distribution(ts)
        H = -np.sum(p * np.log(p))
        want = -1.7 * np.log(p[3]) - 2.5 * H
        assert sampler_objective(ts, 4, 1.7) == pytest.approx(want, rel=1e-12)

    def test_entropy_grad_matches_per_draw_loop(self):
        """The (2B, T) form adds the draws' terms in the loop's order, so
        it equals the loop bit for bit, repeated steps included."""
        rng = np.random.default_rng(3)
        ts = make_timestep_sampler(2, T=20, hidden=32, embed_dim=16,
                                   entropy_coef=0.7)
        for B in [1, 2, 5] + [64] * 30:
            ks = rng.integers(1, 21, size=B)
            ks[B // 2:] = ks[0]  # the first draw's step again
            rs = normalize_rewards(rng.standard_normal(B))
            np.testing.assert_array_equal(_policy_entropy_grad(ts, ks, rs),
                                          policy_entropy_grad_loop(ts, ks, rs))

    def test_batch_update_matches_mean_of_singles(self):
        ks = np.array([2, 7, 7])
        rs = np.array([1.0, -0.5, 0.3])
        a = make_timestep_sampler(5, T=10, hidden=32, embed_dim=16,
                                  entropy_coef=0.4)
        b = make_timestep_sampler(5, T=10, hidden=32, embed_dim=16,
                                  entropy_coef=0.4)
        dz_batch = _policy_entropy_grad(a, ks, rs)
        singles = [_policy_entropy_grad(b, ks[i:i + 1], rs[i:i + 1])
                   for i in range(3)]
        # the policy term averages; the entropy term appears once in each
        mean_singles = np.mean(singles, axis=0)
        np.testing.assert_allclose(dz_batch, mean_singles, rtol=0, atol=1e-15)

    def test_rejects_bad_args(self):
        ts = make_timestep_sampler(0, T=10, hidden=32, embed_dim=16)
        with pytest.raises(ValueError):
            sampler_update_batch(ts, [0], [1.0])
        with pytest.raises(ValueError):
            sampler_update_batch(ts, [11], [1.0])
        with pytest.raises(ValueError):
            sampler_update_batch(ts, np.array([1, 2]), np.array([1.0]))
        with pytest.raises(ValueError):
            sampler_update_batch(ts, np.array([]), np.array([]))


class TestTrainLoop:
    def test_zero_steps_returns_fresh_params(self):
        ds = tiny_dataset()
        cfg = tiny_config(total_steps=0, warmup=0, dtype="float64")
        params, rep = train(cfg, ds, "uniform")
        d_feat = policy_features(np.zeros(D_O)).size
        fresh = init_params(cfg.seed, d_o=d_feat, T_p=T_P, d_a=D_A,
                            hidden=cfg.hidden, embed_dim=cfg.embed_dim,
                            T=cfg.T)
        for w, fw in zip(params.net.weights, fresh.net.weights):
            np.testing.assert_array_equal(w, fw)
        assert rep.steps == [] and rep.losses == []

    def test_window_draws_match_scalar_draws(self):
        """train() draws a batch's window indices in one call; it must
        give the values and generator state of one call per row."""
        n_windows = np.array([1, 2, 3, 22, 47, 80, 255, 256, 70_000])
        one, many = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(20):
            idxs = one.integers(0, n_windows.size, size=16)
            many.integers(0, n_windows.size, size=16)
            singles = [int(one.integers(n_windows[i])) for i in idxs]
            np.testing.assert_array_equal(many.integers(n_windows[idxs]),
                                          singles)
        assert one.random() == many.random()

    def test_uniform_loss_decreases(self):
        params, rep = train(tiny_config(total_steps=200), tiny_dataset(),
                            "uniform")
        assert np.mean(rep.losses[-20:]) < np.mean(rep.losses[:20])

    def test_adaptive_mode_runs_and_snapshots(self):
        cfg = tiny_config(total_steps=60, warmup=10, snapshot_every=20)
        params, rep = train(cfg, tiny_dataset(), "aln")
        assert rep.steps == list(range(1, 61))
        assert [s for s, _ in rep.sampler_snapshots] == [20, 40, 60]
        assert [s for s, _ in rep.weight_snapshots] == [20, 40, 60]
        assert rep.final_sampler_probs.shape == (cfg.T,)
        assert rep.final_sampler_probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert rep.final_traj_weights.shape == (4,)
        assert rep.final_traj_weights.mean() == pytest.approx(1.0, abs=1e-9)

    def test_uniform_mode_reports_the_uniform_draw_distribution(self):
        """Uniform mode draws every step with probability 1/T, and its
        snapshots and final distribution say so."""
        cfg = tiny_config(total_steps=40, snapshot_every=20)
        _, rep = train(cfg, tiny_dataset(), "uniform")
        uniform = np.full(cfg.T, 1.0 / cfg.T)
        assert [s for s, _ in rep.sampler_snapshots] == [20, 40]
        for _, p in rep.sampler_snapshots:
            np.testing.assert_array_equal(p, uniform)
        np.testing.assert_array_equal(rep.final_sampler_probs, uniform)

    def test_aln_warmup_reports_the_uniform_draw_distribution(self):
        """aln draws are uniform until the warmup ends, and the snapshots
        and entropies taken then say so; afterwards they follow the net."""
        cfg = tiny_config(total_steps=60, warmup=40, snapshot_every=20)
        _, rep = train(cfg, tiny_dataset(), "aln")
        uniform = np.full(cfg.T, 1.0 / cfg.T)
        assert [s for s, _ in rep.sampler_snapshots] == [20, 40, 60]
        for _, p in rep.sampler_snapshots[:2]:
            np.testing.assert_array_equal(p, uniform)
        assert rep.entropies[:40] == [float(np.log(cfg.T))] * 40
        assert not np.array_equal(rep.sampler_snapshots[2][1], uniform)
        assert rep.entropies[40] != rep.entropies[39]

    def test_one_sampler_forward_per_adaptive_step(self, monkeypatch):
        """The sampler update reuses the forward pass that gave the draw
        distribution: one sampler mlp_forward per weight state, the
        initial weights and each of the adaptive steps' updates (two per
        adaptive step when the update ran its own)."""
        calls = []
        forward = diffpol.training.mlp_forward

        def counting(p, x):
            calls.append(x.shape)
            return forward(p, x)

        monkeypatch.setattr(diffpol.training, "mlp_forward", counting)
        cfg = tiny_config(total_steps=30, warmup=10)
        _, rep = train(cfg, tiny_dataset(), "aln")
        assert len(calls) == 1 + cfg.total_steps - cfg.warmup
        assert set(calls) == {(cfg.T, cfg.embed_dim)}
        monkeypatch.undo()
        _, again = train(cfg, tiny_dataset(), "aln")
        assert rep.losses == again.losses

    def test_float32_run_returns_float64_params(self, tmp_path):
        """The default float32 run hands back float64 parameters holding
        float32 values, which a checkpoint stores and loads unchanged."""
        cfg = tiny_config(total_steps=20, warmup=5)
        assert cfg.dtype == "float32"
        params, _ = train(cfg, tiny_dataset(), "aln")
        assert params.net.flat.dtype == np.float64
        np.testing.assert_array_equal(
            params.net.flat, params.net.flat.astype(np.float32))
        path = str(tmp_path / "checkpoint.bin")
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.net.flat.dtype == np.float64
        np.testing.assert_array_equal(loaded.net.flat, params.net.flat)

    def test_eval_fn_gets_a_float64_copy(self):
        seen = []

        def record(p):
            seen.append(p.net.flat.dtype)
            p.net.flat[:] = 0.0  # must not reach the run
            return 0.0

        cfg = tiny_config(total_steps=20, warmup=5, eval_every=10)
        _, a = train(cfg, tiny_dataset(), "uniform", eval_fn=record)
        _, b = train(cfg, tiny_dataset(), "uniform")
        assert seen == [np.float64, np.float64]
        assert a.losses == b.losses

    @pytest.mark.parametrize("mode", ["uniform", "aln"])
    def test_float32_losses_track_float64(self, mode):
        """Both dtypes draw the same batches, so their loss curves differ
        only by rounding: within 1e-5 relative at every one of 200 steps
        (about 1.6e-7 seen, against float32's 1.2e-7 epsilon)."""
        _, f32 = train(tiny_config(total_steps=200), tiny_dataset(), mode)
        _, f64 = train(tiny_config(total_steps=200, dtype="float64"),
                       tiny_dataset(), mode)
        np.testing.assert_allclose(f32.losses, f64.losses, rtol=1e-5, atol=0)
        np.testing.assert_allclose(f32.final_sampler_probs,
                                   f64.final_sampler_probs, rtol=1e-5)

    def test_params_record_the_training_noise_schedule(self):
        cfg = tiny_config(total_steps=3, warmup=0, beta_start=1e-3,
                          beta_end=0.05)
        params, _ = train(cfg, tiny_dataset(), "uniform")
        assert (params.beta_start, params.beta_end) == (1e-3, 0.05)
        np.testing.assert_array_equal(params.noise_schedule().beta,
                                      np.linspace(1e-3, 0.05, cfg.T))

    def test_uniform_mode_logs_uniform_entropy(self):
        cfg = tiny_config(total_steps=5, warmup=0, snapshot_every=0)
        _, rep = train(cfg, tiny_dataset(), "uniform")
        assert rep.entropies == [pytest.approx(np.log(cfg.T))] * 5

    def test_eval_hook_cadence(self):
        calls = []

        def fake_eval(params):
            calls.append(1)
            return 0.5 * len(calls)

        cfg = tiny_config(total_steps=30, warmup=5, eval_every=10)
        _, rep = train(cfg, tiny_dataset(), "uniform", eval_fn=fake_eval)
        assert rep.eval_steps == [10, 20, 30]
        assert rep.eval_success == [0.5, 1.0, 1.5]

    def test_deterministic_given_seed(self):
        cfg = tiny_config(total_steps=40, warmup=5)
        _, a = train(cfg, tiny_dataset(), "aln")
        _, b = train(cfg, tiny_dataset(), "aln")
        assert a.losses == b.losses
        np.testing.assert_array_equal(a.final_sampler_probs,
                                      b.final_sampler_probs)

    def test_non_finite_loss_stops_with_the_step(self):
        ds = tiny_dataset()
        ds.actions[ds.step0[2] + 4 + 7, 1] = np.nan  # window 4, action 7
        with pytest.raises(ValueError, match=r"non-finite.*at step \d+"):
            train(tiny_config(), ds, "uniform")

    def test_rejects_bad_mode_and_config(self):
        with pytest.raises(ValueError):
            train(tiny_config(), tiny_dataset(), "adaptive")
        with pytest.raises(ValueError):
            TrainConfig(total_steps=-1)
        with pytest.raises(ValueError, match="warmup"):
            train(tiny_config(total_steps=10, warmup=10), tiny_dataset(),
                  "aln")
        with pytest.raises(ValueError):
            TrainConfig(total_steps=10, batch_size=0)
        for bad in ("float16", "f4", np.float32):
            with pytest.raises(ValueError, match="dtype"):
                TrainConfig(total_steps=10, warmup=0, dtype=bad)

    @pytest.mark.parametrize("bad", [
        {"lr": -1e-3}, {"lr": 0.0}, {"lr": -0.0}, {"lr": float("nan")},
        {"lr": float("inf")}, {"eval_every": -5}, {"snapshot_every": -1},
    ], ids=["lr-negative", "lr-zero", "lr-negative-zero", "lr-nan", "lr-inf",
            "eval-every", "snapshot-every"])
    def test_rejects_bad_lr_and_periods(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrainConfig(total_steps=10, **bad)
        TrainConfig(total_steps=10, lr=1e-9, eval_every=0, snapshot_every=0)

    @pytest.mark.parametrize("T", [0, -1, 10_001, 2 ** 40])
    def test_rejects_T_outside_its_range(self, T):
        """A schedule of 2**40 steps would ask for terabytes in train()."""
        with pytest.raises(ValueError, match=r"T must be in \[1, 10000\]"):
            TrainConfig(total_steps=10, T=T)
        TrainConfig(total_steps=10, T=10_000)

    def test_uniform_run_shorter_than_warmup(self):
        """Only the aln sampler reads the warmup, so uniform mode runs
        however short the run is next to it."""
        _, rep = train(tiny_config(total_steps=3, warmup=10), tiny_dataset(),
                       "uniform")
        assert rep.steps == [1, 2, 3]

    def test_csv_round_trip(self, tmp_path):
        cfg = tiny_config(total_steps=20, warmup=5, eval_every=10)
        _, rep = train(cfg, tiny_dataset(), "uniform",
                       eval_fn=lambda p: 0.25)
        path = tmp_path / "report.csv"
        rep.to_csv(str(path))
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["step", "loss", "eval_success", "sampler_entropy"]
        assert len(rows) == 21
        assert rows[1][2] == ""          # off-cadence rows leave eval blank
        assert rows[10][2] != ""
        assert float(rows[1][1]) == rep.losses[0]

    def test_snapshot_csv(self, tmp_path):
        cfg = tiny_config(total_steps=20, warmup=5, snapshot_every=10)
        _, rep = train(cfg, tiny_dataset(), "aln")
        path = tmp_path / "snaps.csv"
        rep.snapshots_to_csv(str(path))
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["step"] + [f"p{k}" for k in range(1, 21)]
        assert len(rows) == 3
        p = np.array([float(x) for x in rows[1][1:]])
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        rep.weights_to_csv(str(path))
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        n = tiny_dataset().n_traj
        assert rows[0] == ["step"] + [f"w{i}" for i in range(n)]
        for row, (step, w) in zip(rows[1:], rep.weight_snapshots, strict=True):
            assert int(row[0]) == step
            np.testing.assert_array_equal([float(x) for x in row[1:]], w)


class InjectedError(RuntimeError):
    pass


class TestSamplerThread:
    """aln's sampler side runs on one worker thread per train() call,
    beside the denoiser's backward pass and Adam; uniform mode has none."""

    def threads_seen_by_optimizer(self, monkeypatch):
        """Patch optimizer_step to record, on each main-thread call (the
        denoiser's Adam, which overlaps the sampler side), the threads
        alive; returns the list it fills."""
        seen = []
        step = diffpol.training.optimizer_step

        def recording(*args):
            if threading.current_thread() is threading.main_thread():
                seen.append(frozenset(threading.enumerate()))
            return step(*args)

        monkeypatch.setattr(diffpol.training, "optimizer_step", recording)
        return seen

    def test_uniform_mode_starts_no_thread(self, monkeypatch):
        before = frozenset(threading.enumerate())
        seen = self.threads_seen_by_optimizer(monkeypatch)
        train(tiny_config(total_steps=20), tiny_dataset(), "uniform")
        assert len(seen) == 20 and set(seen) == {before}

    def test_aln_worker_ends_with_the_call(self, monkeypatch):
        before = frozenset(threading.enumerate())
        seen = self.threads_seen_by_optimizer(monkeypatch)
        cfg = tiny_config(total_steps=20, warmup=5)
        _, rep = train(cfg, tiny_dataset(), "aln")
        # no worker during the warmup, one beside every adaptive step
        assert set(seen[:cfg.warmup]) == {before}
        assert all(len(s - before) == 1 for s in seen[cfg.warmup:])
        assert frozenset(threading.enumerate()) == before
        monkeypatch.undo()
        _, again = train(cfg, tiny_dataset(), "aln")
        assert rep.losses == again.losses
        assert rep.entropies == again.entropies

    def test_sampler_side_runs_off_the_main_thread(self, monkeypatch):
        threads = []
        update = diffpol.training.sampler_update_batch

        def recording(*args):
            threads.append(threading.current_thread())
            return update(*args)

        monkeypatch.setattr(diffpol.training, "sampler_update_batch",
                            recording)
        train(tiny_config(total_steps=10, warmup=5), tiny_dataset(), "aln")
        assert len(threads) == 5
        assert threading.main_thread() not in threads

    def test_sampler_side_keeps_the_callers_numpy_error_state(
            self, monkeypatch):
        states = []
        update = diffpol.training.sampler_update_batch

        def recording(*args):
            states.append(np.geterr())
            return update(*args)

        monkeypatch.setattr(diffpol.training, "sampler_update_batch",
                            recording)
        with np.errstate(all="raise"):
            train(tiny_config(total_steps=8, warmup=5), tiny_dataset(),
                  "aln")
        assert len(states) == 3
        assert all(set(s.values()) == {"raise"} for s in states)

    def test_sampler_side_error_reaches_the_caller(self, monkeypatch):
        before = frozenset(threading.enumerate())
        calls = []
        update = diffpol.training.sampler_update_batch

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise InjectedError("sampler update 3 failed")
            return update(*args)

        monkeypatch.setattr(diffpol.training, "sampler_update_batch", failing)
        with pytest.raises(InjectedError,
                           match="^sampler update 3 failed$"):
            train(tiny_config(total_steps=20, warmup=5), tiny_dataset(),
                  "aln")
        assert len(calls) == 3
        assert frozenset(threading.enumerate()) == before

    def test_main_side_error_waits_for_the_worker(self, monkeypatch):
        """An error on the main thread while the sampler side runs still
        ends the worker before train() raises."""
        before = frozenset(threading.enumerate())
        calls = []
        step = diffpol.training.optimizer_step

        def failing(*args):
            if threading.current_thread() is threading.main_thread():
                calls.append(1)
                if len(calls) == 8:
                    raise InjectedError("denoiser step 8 failed")
            return step(*args)

        monkeypatch.setattr(diffpol.training, "optimizer_step", failing)
        with pytest.raises(InjectedError, match="denoiser step 8 failed"):
            train(tiny_config(total_steps=20, warmup=5), tiny_dataset(),
                  "aln")
        assert frozenset(threading.enumerate()) == before

    def test_non_finite_loss_stops_before_that_steps_sampler_work(
            self, monkeypatch):
        """The loss is checked between the forward and the backward pass,
        before the step's sampler side starts: with the loss of step 9
        non-finite and warmup 5, only steps 6, 7 and 8 update the
        sampler."""
        before = frozenset(threading.enumerate())
        updates, noised = [], []
        update = diffpol.training.sampler_update_batch
        noise = diffpol.training.forward_noise

        def counting(*args):
            updates.append(1)
            return update(*args)

        def poisoned(*args):
            noised.append(1)
            ak = noise(*args)
            return ak * np.nan if len(noised) == 9 else ak

        monkeypatch.setattr(diffpol.training, "sampler_update_batch",
                            counting)
        monkeypatch.setattr(diffpol.training, "forward_noise", poisoned)
        with pytest.raises(ValueError, match=r"non-finite.*at step 9$"):
            train(tiny_config(total_steps=20, warmup=5), tiny_dataset(),
                  "aln")
        assert len(updates) == 3
        assert frozenset(threading.enumerate()) == before

    def test_concurrent_runs_at_a_short_switch_interval_keep_the_bits(self):
        """Three aln runs at once (six threads on the machine's cores),
        switching threads every microsecond: a read of the sampler or
        the weights while the worker writes them would move the bits."""
        cfg = tiny_config(total_steps=40, warmup=5)
        want_params, want = train(cfg, tiny_dataset(), "aln")
        results = [None] * 3

        def run(i):
            results[i] = train(cfg, tiny_dataset(), "aln")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for params, rep in results:
            assert rep.losses == want.losses
            assert rep.entropies == want.entropies
            np.testing.assert_array_equal(rep.final_sampler_probs,
                                          want.final_sampler_probs)
            np.testing.assert_array_equal(rep.final_traj_weights,
                                          want.final_traj_weights)
            np.testing.assert_array_equal(params.net.flat,
                                          want_params.net.flat)
