"""Denoiser network: embeddings, exact gradients, Adam, checkpoints."""

import hashlib
import json
import os
import pathlib
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from diffpol.env import generate_demos
from diffpol.nets import (
    ADAM_BLOCK,
    AdamState,
    MlpParams,
    denoiser_batch_grads,
    denoiser_forward,
    denoiser_obs_part,
    denoiser_step_part,
    init_mlp,
    init_params,
    load_checkpoint,
    mlp_forward,
    optimizer_step,
    save_checkpoint,
    _embed_table,
)
from diffpol.training import TrainConfig, make_timestep_sampler, train

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def context(p, obs, ks):
    """The first layer's step-invariant rows for one observation and
    steps ks, as a rollout adds them once per window."""
    return denoiser_step_part(p, ks) + denoiser_obs_part(p, obs)


def one_sample_grads(p, obs, ak, k, eps):
    """Loss and gradients of one sample: a batch of one."""
    losses, grads = denoiser_batch_grads(p, obs[None], ak[None],
                                         np.array([k]), eps[None])
    return float(losses[0]), grads


def traced_peak(fn):
    """fn's result and the peak bytes allocated while it ran, numpy's
    array buffers included."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def central_diff(f, arr, idx, eps=1e-6):
    old = arr[idx]
    arr[idx] = old + eps
    lp = f()
    arr[idx] = old - eps
    lm = f()
    arr[idx] = old
    return (lp - lm) / (2.0 * eps)


class TestSinusoidalEmbed:
    """The step embedding: row k - 1 of ``_embed_table(dim, T)``."""

    def test_range_and_shape(self):
        t = _embed_table(128, 100)
        assert t.shape == (100, 128)
        assert np.all(np.abs(t) <= 1.0)

    def test_distinct_rows(self):
        rows = _embed_table(16, 100)
        d = np.abs(rows[:, None, :] - rows[None, :, :]).max(axis=2)
        d[np.diag_indices(100)] = 1.0
        assert d.min() > 1e-4

    def test_values(self):
        """Pairs (sin, cos) of k * T**(-i / (dim/2 - 1)), i = 0..dim/2-1."""
        t = _embed_table(6, 50)
        for k in (1, 17, 50):
            want = [f(k * 50.0 ** (-i / 2)) for i in range(3)
                    for f in (np.sin, np.cos)]
            np.testing.assert_allclose(t[k - 1], want, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(_embed_table(2, 10)[:, 0],
                                      np.sin(np.arange(1, 11)))

    def test_rejects_odd_dim(self):
        """An odd or sub-2 width fails where the nets are built, not at
        the first forward."""
        for dim in (7, 1, 0, -2):
            with pytest.raises(ValueError, match="embedding dim"):
                init_params(0, d_o=2, T_p=4, d_a=2, hidden=8, embed_dim=dim)
            with pytest.raises(ValueError, match="embedding dim"):
                make_timestep_sampler(0, T=10, hidden=8, embed_dim=dim)


class TestInit:
    def test_seeded_reproducible(self):
        a = init_params(9, d_o=6, T_p=16, d_a=2)
        b = init_params(9, d_o=6, T_p=16, d_a=2)
        for wa, wb in zip(a.net.weights, b.net.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_output_scale_on_unit_inputs(self):
        p = init_params(0, d_o=6, T_p=16, d_a=2)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((256, p.d_in))
        y, _ = mlp_forward(p.net, x)
        assert 0.1 <= y.std() <= 10.0

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            init_params(0, d_o=0, T_p=16, d_a=2)

    @pytest.mark.parametrize("seed, sizes", [
        (0, [1, 1]),
        (3, [7, 1, 9]),
        (5, [3, 5, 2]),
        (11, [13, 17, 1, 19, 3]),
        # the test_07 denoiser, 376,352 parameters: d_in = 17 + 16*2 + 128
        (0, [177, 384, 384, 384, 32]),
    ])
    def test_init_mlp_matches_per_layer_uniform_draws(self, seed, sizes):
        """Each array's bits are a per-layer rng.uniform draw's, in
        W0 b0 W1 b1 ... order, and the generator ends where those draws
        leave it."""
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        p = init_mlp(rng, sizes)
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            limit = np.sqrt(3.0 / fan_in)
            w = ref.uniform(-limit, limit, size=(fan_in, fan_out))
            b = ref.uniform(-limit, limit, size=fan_out)
            assert p.weights[i].shape == w.shape
            assert p.weights[i].tobytes() == w.tobytes()
            assert p.biases[i].shape == b.shape
            assert p.biases[i].tobytes() == b.tobytes()
        assert p.flat.dtype == np.float64
        assert rng.random() == ref.random()

    def test_init_params_allocates_about_one_flat_vector(self):
        """The init draws straight into the flat vector: no per-layer
        arrays and no second copy."""
        p, peak = traced_peak(lambda: init_params(
            0, d_o=17, T_p=16, d_a=2, hidden=384, embed_dim=128))
        assert peak < 1.25 * p.net.flat.nbytes

    def test_init_mlp_rejects_empty_layers(self):
        # a zero fan-in used to divide by zero in the init scale
        rng = np.random.default_rng(0)
        for sizes in ([4, 0, 0, 0, 1], [0, 8, 1], [4, 8, -2]):
            with pytest.raises(ValueError, match="layer sizes must be >= 1"):
                init_mlp(rng, sizes)
        with pytest.raises(ValueError, match="layer sizes must be >= 1"):
            make_timestep_sampler(0, T=10, hidden=0, embed_dim=4)


class TestGradients:
    def probe_all(self, width, seed, n_probes=40):
        """Analytic vs central-difference gradients on every array."""
        rng = np.random.default_rng(seed)
        p = init_params(seed, d_o=3, T_p=4, d_a=2, hidden=width, embed_dim=8,
                        T=10)
        obs = rng.normal(size=3)
        ak = rng.normal(size=(4, 2))
        eps = rng.normal(size=(4, 2))
        k = int(rng.integers(1, 11))
        _, grads = one_sample_grads(p, obs, ak, k, eps)
        worst = 0.0
        arrays = list(zip(p.net.weights, grads.weights))
        arrays += list(zip(p.net.biases, grads.biases))
        for _ in range(n_probes):
            arr, g = arrays[rng.integers(len(arrays))]
            idx = tuple(rng.integers(s) for s in arr.shape)
            num = central_diff(
                lambda: one_sample_grads(p, obs, ak, k, eps)[0], arr, idx)
            worst = max(worst, rel_err(num, g[idx]))
        return worst

    def test_exact_against_finite_differences(self):
        assert self.probe_all(width=8, seed=2) < 1e-6
        assert self.probe_all(width=16, seed=3) < 1e-6

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(4)
        p = init_params(4, d_o=3, T_p=4, d_a=2, hidden=8, embed_dim=8, T=10)
        B = 5
        obs_b = rng.normal(size=(B, 3))
        ak_b = rng.normal(size=(B, 4, 2))
        eps_b = rng.normal(size=(B, 4, 2))
        ks = rng.integers(1, 11, size=B)
        losses, grads = denoiser_batch_grads(p, obs_b, ak_b, ks, eps_b)
        acc = None
        for i in range(B):
            loss_i, g_i = one_sample_grads(p, obs_b[i], ak_b[i], int(ks[i]),
                                           eps_b[i])
            assert rel_err(loss_i, losses[i]) < 1e-12
            if acc is None:
                acc = g_i
            else:
                acc = mlp(
                    [a + b for a, b in zip(acc.weights, g_i.weights)],
                    [a + b for a, b in zip(acc.biases, g_i.biases)])
        for a, b in zip(acc.weights, grads.weights):
            np.testing.assert_allclose(a / B, b, atol=1e-12)

    def test_layer_hook_fires_once_each_layer_is_done(self):
        """on_layer(i) comes for i = L-1 .. 1, once layer i's gradient is
        final and its weights are read no more: overwriting them there
        changes no gradient.  The gradient goes into the given vector."""
        rng = np.random.default_rng(12)
        p = init_params(12, d_o=3, T_p=4, d_a=2, hidden=8, embed_dim=8, T=10)
        args = (rng.normal(size=(5, 3)), rng.normal(size=(5, 4, 2)),
                rng.integers(1, 11, size=5), rng.normal(size=(5, 4, 2)))
        want_losses, want = denoiser_batch_grads(p, *args)
        out = MlpParams(np.full_like(p.net.flat, np.nan), p.net.shapes)
        seen = []

        def clobber(i):
            seen.append(i)
            np.testing.assert_array_equal(out.layer(i).flat,
                                          want.layer(i).flat)
            p.net.layer(i).flat[:] = np.nan

        losses, grads = denoiser_batch_grads(p, *args, grads=out,
                                             on_layer=clobber)
        assert seen == [3, 2, 1] and grads is out
        np.testing.assert_array_equal(losses, want_losses)
        np.testing.assert_array_equal(out.flat, want.flat)

    def test_batch_grads_reject_bad_inputs(self):
        p = init_params(0, d_o=3, T_p=4, d_a=2, hidden=8, embed_dim=8, T=10)
        rng = np.random.default_rng(5)
        obs_b = rng.normal(size=(2, 3))
        win = rng.normal(size=(2, 4, 2))
        ks = np.array([1, 10])
        denoiser_batch_grads(p, obs_b, win, ks, win)  # the valid baseline
        for bad_ks in ([0, 3], [3, 11], [3], [[3, 3]], [3.0, 3.0]):
            with pytest.raises(ValueError):
                denoiser_batch_grads(p, obs_b, win, np.array(bad_ks), win)
        with pytest.raises(ValueError):
            denoiser_batch_grads(p, obs_b, win, ks, win[:, :3])
        with pytest.raises(ValueError):
            denoiser_batch_grads(p, obs_b, win[:1], ks, win)
        with pytest.raises(ValueError):
            denoiser_batch_grads(p, obs_b[:, :2], win, ks, win)

    def test_float32_batch_grads_match_float64(self):
        """At the acceptance config's shapes (B=64, 177 -> 384 x 3 -> 32)
        a float32 net gives float32 losses and gradients within 1e-4 of
        the float64 net it was rounded from."""
        p = init_params(0, d_o=17, T_p=16, d_a=2, hidden=384, embed_dim=128,
                        T=100)
        p32 = replace(p, net=p.net.astype(np.float32))
        rng = np.random.default_rng(12)
        B = 64
        obs_b = rng.uniform(-1.0, 1.0, (B, 17))
        ak_b = rng.standard_normal((B, 16, 2))
        eps_b = rng.standard_normal((B, 16, 2))
        ks = rng.integers(1, 101, size=B)
        l64, g64 = denoiser_batch_grads(p, obs_b, ak_b, ks, eps_b)
        l32, g32 = denoiser_batch_grads(p32, obs_b, ak_b, ks, eps_b)
        assert l32.dtype == g32.flat.dtype == np.float32
        np.testing.assert_allclose(l32, l64, rtol=1e-4)
        for a, b in zip(in_layer_order(g32), in_layer_order(g64)):
            np.testing.assert_allclose(a, b, rtol=1e-4,
                                       atol=1e-4 * np.abs(b).max())

    def test_forward_shape_and_validation(self):
        p = init_params(0, d_o=6, T_p=16, d_a=2)
        rng = np.random.default_rng(0)
        out = denoiser_forward(p, rng.normal(size=6), rng.normal(size=(16, 2)), 5)
        assert out.shape == (16, 2)
        with pytest.raises(ValueError):
            denoiser_forward(p, rng.normal(size=5), rng.normal(size=(16, 2)), 5)
        with pytest.raises(ValueError):
            denoiser_forward(p, rng.normal(size=6), rng.normal(size=(2, 16)), 5)

    def test_forward_rejects_steps_outside_the_chain(self):
        # k = 0 used to run on an embedding training never sees
        p = init_params(0, d_o=3, T_p=4, d_a=2, hidden=8, embed_dim=8, T=10)
        rng = np.random.default_rng(6)
        obs, ak = rng.normal(size=3), rng.normal(size=(4, 2))
        row = context(p, obs, [5])[0]
        for bad_k in (0, -1, 11, 5.0, np.float64(5), True, None):
            with pytest.raises(ValueError):
                denoiser_forward(p, obs, ak, bad_k)
            with pytest.raises(ValueError):
                denoiser_forward(p, obs, ak, bad_k, row)
        for bad_ks in ([0, 3], [3, 11], [3.0], [[3]], [True]):
            with pytest.raises(ValueError):
                denoiser_step_part(p, bad_ks)
        with pytest.raises(ValueError):
            denoiser_obs_part(p, obs[:2])
        with pytest.raises(ValueError):
            denoiser_forward(p, obs[:2], ak, 3)
        for k in (1, np.int64(10)):  # the valid edges
            denoiser_forward(p, obs, ak, k)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_context_is_step_part_plus_obs_part(self, dtype):
        """A forward without a context row builds the sum of the two
        parts itself and matches one given that row bit for bit, so a
        rollout may build the step part once and add each window's
        observation part to it."""
        p = init_params(0, d_o=3, T_p=4, d_a=2, hidden=8, embed_dim=8, T=10)
        p = replace(p, net=p.net.astype(dtype))
        rng = np.random.default_rng(11)
        obs, ak = rng.normal(size=3), rng.normal(size=(4, 2))
        ks = np.array([7, 2, 10])
        step, obs_part = denoiser_step_part(p, ks), denoiser_obs_part(p, obs)
        assert step.dtype == obs_part.dtype == dtype
        assert step.shape == (3, 8) and obs_part.shape == (8,)
        for k in ks:
            row = denoiser_step_part(p, [k])[0] + obs_part
            assert denoiser_forward(p, obs, ak, int(k)).tobytes() \
                == denoiser_forward(p, obs, ak, int(k), row).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("dims", [
        dict(d_o=3, T_p=4, d_a=2, hidden=8, embed_dim=8, T=10),
        dict(d_o=17, T_p=16, d_a=2, hidden=384, embed_dim=128, T=100),
    ], ids=["tiny", "bench"])
    def test_forward_without_context_agrees_with_window_rows_to_ulps(
            self, dims, dtype):
        """A forward without a context row builds a one-row step part (a
        gemv); a rollout passes a row of its whole chain's (a gemm).  The
        two noise estimates agree to within a few ulp of their largest
        magnitude, not bit for bit: with OpenBLAS 0.3.31 the float64 tiny
        net's differ in bytes at k = 2 and 10, and the bench net's at all
        three steps in both dtypes, by at most 4 such ulp here (under 9
        over other seeds and steps)."""
        p = init_params(0, **dims)
        p = replace(p, net=p.net.astype(dtype))
        rng = np.random.default_rng(11)
        obs = rng.normal(size=dims["d_o"])
        ak = rng.normal(size=(dims["T_p"], dims["d_a"]))
        ks = [7, 2, 10]
        ctx = context(p, obs, ks)
        for i, k in enumerate(ks):
            alone = denoiser_forward(p, obs, ak, k)
            in_window = denoiser_forward(p, obs, ak, k, ctx[i])
            ulp = np.finfo(dtype).eps * np.abs(in_window).max()
            np.testing.assert_allclose(alone, in_window, rtol=0,
                                       atol=16 * ulp)

    @pytest.mark.parametrize("dims", [
        dict(d_o=3, T_p=4, d_a=2, hidden=8, embed_dim=8, T=10),
        dict(d_o=17, T_p=16, d_a=2, hidden=384, embed_dim=128, T=100),
    ], ids=["tiny", "bench"])
    def test_context_split_matches_concatenated_forward(self, dims):
        """Every step, split first layer against mlp_forward on the
        concatenated (obs, window, embedding) input of the training path."""
        p = init_params(7, **dims)
        rng = np.random.default_rng(8)
        T = dims["T"]
        obs = rng.normal(size=dims["d_o"])
        ak_b = rng.normal(size=(T, dims["T_p"], dims["d_a"]))
        ks = np.arange(1, T + 1)
        x = np.concatenate([np.tile(obs, (T, 1)), ak_b.reshape(T, -1),
                            _embed_table(dims["embed_dim"], T)], axis=1)
        want, _ = mlp_forward(p.net, x)
        ctx = context(p, obs, ks[::-1])[::-1]  # any step order
        for k in ks:
            ref = want[k - 1].reshape(ak_b.shape[1:])
            np.testing.assert_allclose(
                denoiser_forward(p, obs, ak_b[k - 1], int(k), ctx[k - 1]),
                ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                denoiser_forward(p, obs, ak_b[k - 1], int(k)), ref,
                rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dims", [
        dict(d_o=3, T_p=4, d_a=2, hidden=8, embed_dim=8, T=10),
        dict(d_o=17, T_p=16, d_a=2, hidden=384, embed_dim=128, T=100),
    ], ids=["tiny", "bench"])
    def test_float32_forward_matches_float64(self, dims):
        """A float32 net's context rows and noise estimates are float32
        and within float32 rounding of the float64 net it came from."""
        p = init_params(7, **dims)
        p32 = replace(p, net=p.net.astype(np.float32))
        rng = np.random.default_rng(9)
        T = dims["T"]
        obs = rng.uniform(-1.0, 1.0, dims["d_o"])
        ak_b = rng.standard_normal((T, dims["T_p"], dims["d_a"]))
        ks = np.arange(1, T + 1)
        ctx = context(p, obs, ks)
        ctx32 = context(p32, obs, ks)
        assert ctx32.dtype == np.float32
        np.testing.assert_allclose(ctx32, ctx, rtol=1e-4,
                                   atol=1e-4 * np.abs(ctx).max())
        for k in ks:
            want = denoiser_forward(p, obs, ak_b[k - 1], int(k), ctx[k - 1])
            for got in (denoiser_forward(p32, obs, ak_b[k - 1], int(k),
                                         ctx32[k - 1]),
                        denoiser_forward(p32, obs, ak_b[k - 1], int(k))):
                assert got.dtype == np.float32
                np.testing.assert_allclose(got, want, rtol=1e-4,
                                           atol=1e-4 * np.abs(want).max())

    def test_float32_forward_copies_no_weight(self):
        """At bench dims a float32 net's calls, fed float64 inputs or a
        float64 context row, allocate less than a float64 copy of the
        smallest weight block they read (W0's observation rows) takes:
        mixed-dtype matmuls would upcast the weights on every call."""
        p = init_params(7, d_o=17, T_p=16, d_a=2, hidden=384, embed_dim=128,
                        T=100)
        p32 = replace(p, net=p.net.astype(np.float32))
        limit = p.d_o * p.hidden * 8
        rng = np.random.default_rng(10)
        obs, ak = rng.uniform(-1.0, 1.0, 17), rng.standard_normal((16, 2))
        row64 = context(p, obs, [50])[0]
        row32 = context(p32, obs, [50])[0]
        calls = [lambda: denoiser_step_part(p32, [50]),
                 lambda: denoiser_obs_part(p32, obs),
                 lambda: denoiser_forward(p32, obs, ak, 50),
                 lambda: denoiser_forward(p32, obs, ak, 50, row64),
                 lambda: denoiser_forward(p32, obs, ak, 50, row32)]
        for call in calls:
            out, peak = traced_peak(call)
            assert out.dtype == np.float32
            assert peak < limit


def reference_adam(p, grads, st):
    """Per-tensor functional Adam, the reference for the blocked in-place
    update: returns new params and state and leaves its inputs alone."""
    t = st["t"] + 1
    new_p, new_m, new_v = [], [], []
    for theta, g, m_i, v_i in zip(p, grads, st["m"], st["v"]):
        m_n = 0.9 * m_i + (1 - 0.9) * g
        v_n = 0.999 * v_i + (1 - 0.999) * g * g
        m_hat = m_n / (1 - 0.9 ** t)
        v_hat = v_n / (1 - 0.999 ** t)
        new_p.append(theta - st["lr"] * m_hat / (np.sqrt(v_hat) + 1e-8))
        new_m.append(m_n)
        new_v.append(v_n)
    return new_p, {"lr": st["lr"], "t": t, "m": new_m, "v": new_v}


def in_layer_order(p):
    """W0 b0 W1 b1 ..., the order of the flat vector."""
    return [a for pair in zip(p.weights, p.biases) for a in pair]


def mlp(weights, biases):
    """A float64 net holding copies of the given layer arrays."""
    flat = np.concatenate([np.ravel(a) for pair in zip(weights, biases)
                           for a in pair], dtype=np.float64)
    return MlpParams(flat, [(np.shape(w), np.shape(b))
                            for w, b in zip(weights, biases)])


class TestAdam:
    def test_zero_grad_noop(self):
        rng = np.random.default_rng(5)
        p = init_mlp(rng, [3, 4, 2])
        before = p.astype(np.float64)
        zero = mlp([np.zeros_like(w) for w in p.weights],
                   [np.zeros_like(b) for b in p.biases])
        st = AdamState()
        assert optimizer_step(p, zero, st) is None
        assert st.t == 1
        for a, b in zip(in_layer_order(before), in_layer_order(p)):
            np.testing.assert_array_equal(a, b)

    def test_first_step_magnitude(self):
        # bias correction makes step one move by ~lr * sign(g)
        p = mlp([np.array([[1.0]])], [np.array([0.0])])
        g = mlp([np.array([[3.0]])], [np.array([0.0])])
        optimizer_step(p, g, AdamState(lr=0.1))
        expected = 1.0 - 0.1 * 3.0 / (3.0 + 1e-8)
        assert abs(p.weights[0][0, 0] - expected) < 1e-9

    def test_params_change_in_place_grads_untouched(self):
        rng = np.random.default_rng(6)
        p = init_mlp(rng, [2, 3, 1])
        views, flat, before = in_layer_order(p), p.flat, p.astype(np.float64)
        g = mlp([np.ones_like(w) for w in p.weights],
                [np.ones_like(b) for b in p.biases])
        g_before = g.flat.copy()
        st = AdamState()
        optimizer_step(p, g, st)
        assert p.flat is flat
        assert all(a is b for a, b in zip(views, in_layer_order(p)))
        assert np.all(p.flat != before.flat)
        for a, b in zip(in_layer_order(before), views):
            assert np.all(a != b)  # every view moved with the vector
        np.testing.assert_array_equal(g.flat, g_before)
        assert st.m.shape == st.v.shape == p.flat.shape

    def test_blocked_update_matches_functional_reference(self):
        rng = np.random.default_rng(7)
        p = init_mlp(rng, [100, 300, 200, 7])
        n = p.flat.size
        assert n > 2 * ADAM_BLOCK and n % ADAM_BLOCK != 0
        ref_p = [a.copy() for a in in_layer_order(p)]
        ref_st = {"lr": 3e-3, "t": 0, "m": [np.zeros_like(a) for a in ref_p],
                  "v": [np.zeros_like(a) for a in ref_p]}
        st = AdamState(lr=3e-3)
        for _ in range(4):
            g = init_mlp(rng, [100, 300, 200, 7])
            g.flat *= rng.lognormal(0.0, 2.0, size=n)  # spread magnitudes
            optimizer_step(p, g, st)
            ref_p, ref_st = reference_adam(ref_p, in_layer_order(g), ref_st)
        assert st.t == ref_st["t"] == 4
        for got, want in ((p.flat, ref_p), (st.m, ref_st["m"]),
                          (st.v, ref_st["v"])):
            np.testing.assert_array_equal(
                got, np.concatenate([x.ravel() for x in want]))

    def test_float32_blocked_update_matches_float32_reference(self):
        """A float32 block holds ADAM_BLOCK float64s' bytes: 2 * ADAM_BLOCK
        elements.  The blocked update over 1.4 such blocks equals the
        per-tensor reference run in float32, bit for bit, and every
        vector stays float32."""
        rng = np.random.default_rng(13)
        p = init_mlp(rng, [100, 300, 200, 7]).astype(np.float32)
        n, block = p.flat.size, 2 * ADAM_BLOCK
        assert block < n < 2 * block
        ref_p = [a.copy() for a in in_layer_order(p)]
        ref_st = {"lr": 3e-3, "t": 0, "m": [np.zeros_like(a) for a in ref_p],
                  "v": [np.zeros_like(a) for a in ref_p]}
        st = AdamState(lr=3e-3)
        for _ in range(4):
            g = init_mlp(rng, [100, 300, 200, 7])
            g.flat *= rng.lognormal(0.0, 2.0, size=n)
            g = g.astype(np.float32)
            optimizer_step(p, g, st)
            ref_p, ref_st = reference_adam(ref_p, in_layer_order(g), ref_st)
        assert p.flat.dtype == st.m.dtype == st.v.dtype == np.float32
        for got, want in ((p.flat, ref_p), (st.m, ref_st["m"]),
                          (st.v, ref_st["v"])):
            want = np.concatenate([x.ravel() for x in want])
            assert want.dtype == np.float32
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_per_layer_updates_match_the_whole_vector(self, dtype):
        """Adam on each layer with its own moments gives, bit for bit,
        the whole-vector update: the split training's Adam relies on."""
        rng = np.random.default_rng(15)
        sizes = [100, 300, 200, 7]
        whole = init_mlp(rng, sizes).astype(dtype)
        split = whole.astype(dtype)
        st, states = AdamState(lr=3e-3), [AdamState(lr=3e-3)
                                          for _ in whole.shapes]
        for _ in range(3):
            g = init_mlp(rng, sizes)
            g.flat *= rng.lognormal(0.0, 2.0, size=g.flat.size)
            g = g.astype(dtype)
            optimizer_step(whole, g, st)
            for i, s in reversed(list(enumerate(states))):
                optimizer_step(split.layer(i), g.layer(i), s)
        np.testing.assert_array_equal(split.flat, whole.flat)
        np.testing.assert_array_equal(
            np.concatenate([s.m for s in states]), st.m)
        np.testing.assert_array_equal(
            np.concatenate([s.v for s in states]), st.v)

    def test_rejects_mismatched_gradient(self):
        p = init_mlp(np.random.default_rng(0), [2, 3, 1])
        g = init_mlp(np.random.default_rng(0), [2, 4, 1])
        with pytest.raises(ValueError):
            optimizer_step(p, g, AdamState())

    def test_descends_quadratic(self):
        p = mlp([np.array([[4.0]])], [np.array([0.0])])
        st = AdamState(lr=0.05)
        for _ in range(300):
            g = mlp([2.0 * p.weights[0]], [np.zeros(1)])
            optimizer_step(p, g, st)
        assert abs(p.weights[0][0, 0]) < 0.1


class TestFlatLayout:
    """Every MlpParams array is a view into its one flat vector."""

    @staticmethod
    def assert_views_of_flat(p):
        assert p.flat.ndim == 1 and p.flat.flags.c_contiguous
        off = 0
        for a in in_layer_order(p):
            assert np.shares_memory(a, p.flat)
            np.testing.assert_array_equal(a.ravel(), p.flat[off:off + a.size])
            off += a.size
        assert off == p.flat.size

    def test_results_are_views(self, tmp_path):
        rng = np.random.default_rng(8)
        self.assert_views_of_flat(init_mlp(rng, [3, 5, 2]))
        params = init_params(8, d_o=3, T_p=4, d_a=2, hidden=8, embed_dim=8,
                             T=10)
        self.assert_views_of_flat(params.net)
        path = str(tmp_path / "c.bin")
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        self.assert_views_of_flat(loaded.net)
        assert loaded.net.flat.flags.writeable
        _, grads = one_sample_grads(params, rng.normal(size=3),
                                    rng.normal(size=(4, 2)), 3,
                                    rng.normal(size=(4, 2)))
        self.assert_views_of_flat(grads)
        assert not np.shares_memory(grads.flat, params.net.flat)

    def test_writes_through_views_reach_flat(self):
        p = init_mlp(np.random.default_rng(9), [3, 5, 2])
        p.weights[1][4, 1] = 123.0
        p.biases[0][2] = -7.0
        assert p.flat[3 * 5 + 2] == -7.0
        assert p.flat[3 * 5 + 5 + 4 * 2 + 1] == 123.0

    def test_layers_are_views_that_tile_flat(self):
        p = init_mlp(np.random.default_rng(17), [3, 5, 4, 2])
        layers = [p.layer(i) for i in range(len(p.shapes))]
        for i, q in enumerate(layers):
            self.assert_views_of_flat(q)
            assert q.shapes == (p.shapes[i],)
            assert np.shares_memory(q.flat, p.flat)
            np.testing.assert_array_equal(q.weights[0], p.weights[i])
            np.testing.assert_array_equal(q.biases[0], p.biases[i])
        np.testing.assert_array_equal(
            np.concatenate([q.flat for q in layers]), p.flat)

    def test_astype_copies_into_a_new_vector(self):
        p = init_mlp(np.random.default_rng(14), [3, 5, 2])
        q = p.astype(np.float32)
        self.assert_views_of_flat(q)
        assert q.flat.dtype == np.float32 and q.shapes == p.shapes
        assert not np.shares_memory(q.flat, p.flat)
        np.testing.assert_array_equal(q.flat, p.flat.astype(np.float32))
        r = q.astype(np.float64)
        assert r.flat.dtype == np.float64
        np.testing.assert_array_equal(r.flat, q.flat)
        same = p.astype(p.flat.dtype)  # the same dtype copies too
        assert not np.shares_memory(same.flat, p.flat)
        np.testing.assert_array_equal(same.flat, p.flat)


def final_sha256(params) -> str:
    """sha256 of the returned float64 weight vector's bytes."""
    assert params.net.flat.dtype == np.float64
    return hashlib.sha256(params.net.flat.tobytes()).hexdigest()


class TestGoldenLosses:
    def test_tiny_runs_reproduce_recorded_losses(self):
        doc = json.loads((FIXTURES / "golden_losses.json").read_text())
        demos = generate_demos(doc["demos"]["n"], seed=doc["demos"]["seed"])
        cfg = TrainConfig(**doc["config"], dtype="float64")
        assert set(doc["final_sha256"]) == set(doc["losses"])
        for mode, want in doc["losses"].items():
            params, report = train(cfg, demos, mode)
            assert [x.hex() for x in report.losses] == want, mode
            assert final_sha256(params) == doc["final_sha256"][mode], mode


class TestGoldenLossesFloat32:
    def test_default_dtype_reproduces_recorded_losses(self):
        """The same tiny runs in the default float32 arithmetic, recorded
        before aln's sampler side moved to a worker thread."""
        doc = json.loads((FIXTURES / "golden_losses.json").read_text())
        demos = generate_demos(doc["demos"]["n"], seed=doc["demos"]["seed"])
        cfg = TrainConfig(**doc["config"])
        assert cfg.dtype == "float32"
        assert set(doc["losses_float32"]) == {"uniform", "aln"}
        assert set(doc["final_sha256_float32"]) == {"uniform", "aln"}
        for mode, want in doc["losses_float32"].items():
            params, report = train(cfg, demos, mode)
            assert [x.hex() for x in report.losses] == want, mode
            assert final_sha256(params) == \
                doc["final_sha256_float32"][mode], mode

    @pytest.mark.parametrize("cores, blas_threads", [(1, "1"), (2, "2")])
    def test_without_a_free_core_the_bits_hold_with_no_worker(
            self, monkeypatch, cores, blas_threads):
        """With one CPU, or with BLAS on two threads, no Adam worker is
        forked: the calling thread updates every layer, bit for bit
        alike."""
        def no_fork():
            raise AssertionError("forked an Adam worker")

        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cores)))
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
        monkeypatch.setattr(os, "fork", no_fork)
        doc = json.loads((FIXTURES / "golden_losses.json").read_text())
        demos = generate_demos(doc["demos"]["n"], seed=doc["demos"]["seed"])
        for mode, want in doc["losses_float32"].items():
            params, report = train(TrainConfig(**doc["config"]), demos, mode)
            assert [x.hex() for x in report.losses] == want, mode
            assert final_sha256(params) == \
                doc["final_sha256_float32"][mode], mode


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        p = replace(init_params(11, d_o=6, T_p=16, d_a=2, hidden=32,
                                embed_dim=16, T=50),
                    beta_start=1e-3, beta_end=0.05)
        path = str(tmp_path / "checkpoint.bin")
        save_checkpoint(path, p)
        q = load_checkpoint(path)
        assert (q.d_o, q.T_p, q.d_a, q.embed_dim, q.hidden, q.T) == \
               (6, 16, 2, 16, 32, 50)
        assert (q.beta_start, q.beta_end) == (1e-3, 0.05)
        for a, b in zip(p.net.weights + p.net.biases,
                        q.net.weights + q.net.biases):
            np.testing.assert_array_equal(a, b)
        save_checkpoint(str(tmp_path / "again.bin"), q)
        assert (tmp_path / "checkpoint.bin").read_bytes() == \
               (tmp_path / "again.bin").read_bytes()

    def test_rejects_corrupt_files(self, tmp_path):
        p = init_params(0, d_o=2, T_p=4, d_a=2, hidden=8, embed_dim=8, T=10)
        path = str(tmp_path / "c.bin")
        save_checkpoint(path, p)
        blob = open(path, "rb").read()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"WRONGMAG" + blob[8:])
        with pytest.raises(ValueError):
            load_checkpoint(str(bad))
        short = tmp_path / "short.bin"
        short.write_bytes(blob[:-16])
        with pytest.raises(ValueError):
            load_checkpoint(str(short))

    def test_rejects_bad_headers(self, tmp_path):
        p = init_params(0, d_o=2, T_p=4, d_a=2, hidden=8, embed_dim=8, T=10)
        path = tmp_path / "c.bin"
        save_checkpoint(str(path), p)
        blob = path.read_bytes()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob[:20])
        with pytest.raises(ValueError, match="header"):
            load_checkpoint(str(bad))
        bad.write_bytes(blob[:8] + struct.pack("<7q", 2, 4, 2, 8, -8, 2, 10)
                        + blob[64:])
        with pytest.raises(ValueError, match="dims"):
            load_checkpoint(str(bad))
        # embed_dim 7, the payload one first-layer row (8 weights) shorter
        bad.write_bytes(blob[:32] + struct.pack("<q", 7) + blob[40:-64])
        with pytest.raises(ValueError, match="bad.bin: embedding dim"):
            load_checkpoint(str(bad))
        # refused by arithmetic, before any per-layer list is built
        bad.write_bytes(blob[:48] + struct.pack("<q", 2 ** 40) + blob[56:])
        with pytest.raises(ValueError, match="bad.bin: payload size"):
            load_checkpoint(str(bad))

    def test_rejects_header_T_above_the_bound(self, tmp_path):
        """T sizes the noise schedule's tables, not the payload, so the
        size check cannot catch a huge one; MAX_T bounds it instead."""
        p = init_params(0, d_o=2, T_p=4, d_a=2, hidden=8, embed_dim=8, T=10)
        path = tmp_path / "c.bin"
        save_checkpoint(str(path), p)
        blob = path.read_bytes()
        bad = tmp_path / "bad.bin"
        for T in (10_001, 2 ** 40):
            bad.write_bytes(blob[:56] + struct.pack("<q", T) + blob[64:])
            with pytest.raises(ValueError,
                               match=f"bad.bin: header T {T} exceeds 10000"):
                load_checkpoint(str(bad))
        bad.write_bytes(blob[:56] + struct.pack("<q", 10_000) + blob[64:])
        assert load_checkpoint(str(bad)).T == 10_000

    def test_rejects_v1_files(self, tmp_path):
        """A file from before the schedule header has no betas to read;
        it is refused with its path, never loaded under a default."""
        p = init_params(0, d_o=2, T_p=4, d_a=2, hidden=8, embed_dim=8, T=10)
        v1 = tmp_path / "v1.bin"
        v1.write_bytes(b"DIFFPOL1" + struct.pack("<7q", 2, 4, 2, 8, 8, 3, 10)
                       + p.net.flat.astype("<f8").tobytes())
        with pytest.raises(ValueError, match="v1.bin.*predates"):
            load_checkpoint(str(v1))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, tmp_path, value):
        p = init_params(0, d_o=2, T_p=4, d_a=2, hidden=8, embed_dim=8, T=10)
        p.net.flat[37] = value
        path = tmp_path / "c.bin"
        save_checkpoint(str(path), p)
        with pytest.raises(ValueError, match=f"{path}: non-finite weight"):
            load_checkpoint(str(path))

    def test_rejects_bad_schedule_headers(self, tmp_path):
        p = init_params(0, d_o=2, T_p=4, d_a=2, hidden=8, embed_dim=8, T=10)
        path = tmp_path / "c.bin"
        save_checkpoint(str(path), p)
        blob = path.read_bytes()
        bad = tmp_path / "bad.bin"
        for betas in ((0.0, 0.02), (-1e-4, 0.02), (0.03, 0.02), (1e-4, 1.0),
                      (float("nan"), 0.02), (1e-4, float("nan"))):
            bad.write_bytes(blob[:64] + struct.pack("<2d", *betas)
                            + blob[80:])
            with pytest.raises(ValueError, match="noise schedule"):
                load_checkpoint(str(bad))

    def test_bytes_match_independent_layout(self, tmp_path):
        p = replace(init_params(12, d_o=3, T_p=4, d_a=2, hidden=8,
                                embed_dim=8, T=10),
                    beta_start=2e-4, beta_end=0.03)
        path = tmp_path / "c.bin"
        save_checkpoint(str(path), p)
        want = b"DIFFPOL2" + struct.pack("<7q", 3, 4, 2, 8, 8, 3, 10) \
            + struct.pack("<2d", 2e-4, 0.03)
        for w, b in zip(p.net.weights, p.net.biases):
            want += np.ravel(w).astype("<f8").tobytes()
            want += np.ravel(b).astype("<f8").tobytes()
        assert path.read_bytes() == want
