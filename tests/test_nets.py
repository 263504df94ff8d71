"""Denoiser network: embeddings, exact gradients, Adam, checkpoints."""

import json
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
    denoiser_context,
    denoiser_forward,
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
                acc = MlpParams(
                    [a + b for a, b in zip(acc.weights, g_i.weights)],
                    [a + b for a, b in zip(acc.biases, g_i.biases)])
        for a, b in zip(acc.weights, grads.weights):
            np.testing.assert_allclose(a / B, b, atol=1e-12)

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
        row = denoiser_context(p, obs, [5])[0]
        for bad_k in (0, -1, 11, 5.0, np.float64(5), True, None):
            with pytest.raises(ValueError):
                denoiser_forward(p, obs, ak, bad_k)
            with pytest.raises(ValueError):
                denoiser_forward(p, obs, ak, bad_k, row)
        for bad_ks in ([0, 3], [3, 11], [3.0], [[3]], [True]):
            with pytest.raises(ValueError):
                denoiser_context(p, obs, bad_ks)
        with pytest.raises(ValueError):
            denoiser_context(p, obs[:2], [3])
        for k in (1, np.int64(10)):  # the valid edges
            denoiser_forward(p, obs, ak, k)

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
        ctx = denoiser_context(p, obs, ks[::-1])[::-1]  # any step order
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
        ctx = denoiser_context(p, obs, ks)
        ctx32 = denoiser_context(p32, obs, ks)
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
        row64 = denoiser_context(p, obs, [50])[0]
        row32 = denoiser_context(p32, obs, [50])[0]
        calls = [lambda: denoiser_context(p32, obs, [50]),
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


class TestAdam:
    def test_zero_grad_noop(self):
        rng = np.random.default_rng(5)
        p = init_mlp(rng, [3, 4, 2])
        before = p.copy()
        zero = MlpParams([np.zeros_like(w) for w in p.weights],
                         [np.zeros_like(b) for b in p.biases])
        st = AdamState()
        assert optimizer_step(p, zero, st) is None
        assert st.t == 1
        for a, b in zip(in_layer_order(before), in_layer_order(p)):
            np.testing.assert_array_equal(a, b)

    def test_first_step_magnitude(self):
        # bias correction makes step one move by ~lr * sign(g)
        p = MlpParams([np.array([[1.0]])], [np.array([0.0])])
        g = MlpParams([np.array([[3.0]])], [np.array([0.0])])
        optimizer_step(p, g, AdamState(lr=0.1))
        expected = 1.0 - 0.1 * 3.0 / (3.0 + 1e-8)
        assert abs(p.weights[0][0, 0] - expected) < 1e-9

    def test_params_change_in_place_grads_untouched(self):
        rng = np.random.default_rng(6)
        p = init_mlp(rng, [2, 3, 1])
        views, flat, before = in_layer_order(p), p.flat, p.copy()
        g = MlpParams([np.ones_like(w) for w in p.weights],
                      [np.ones_like(b) for b in p.biases])
        g_before = g.copy()
        st = AdamState()
        optimizer_step(p, g, st)
        assert p.flat is flat
        assert all(a is b for a, b in zip(views, in_layer_order(p)))
        assert np.all(p.flat != before.flat)
        for a, b in zip(in_layer_order(before), views):
            assert np.all(a != b)  # every view moved with the vector
        np.testing.assert_array_equal(g.flat, g_before.flat)
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

    def test_rejects_mismatched_gradient(self):
        p = init_mlp(np.random.default_rng(0), [2, 3, 1])
        g = init_mlp(np.random.default_rng(0), [2, 4, 1])
        with pytest.raises(ValueError):
            optimizer_step(p, g, AdamState())

    def test_descends_quadratic(self):
        p = MlpParams([np.array([[4.0]])], [np.array([0.0])])
        st = AdamState(lr=0.05)
        for _ in range(300):
            g = MlpParams([2.0 * p.weights[0]], [np.zeros(1)])
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

    def test_copy_shares_no_memory(self):
        p = init_mlp(np.random.default_rng(10), [3, 5, 2])
        q = p.copy()
        self.assert_views_of_flat(q)
        np.testing.assert_array_equal(p.flat, q.flat)
        for a in [q.flat] + in_layer_order(q):
            for b in [p.flat] + in_layer_order(p):
                assert not np.shares_memory(a, b)


class TestGoldenLosses:
    def test_tiny_runs_reproduce_recorded_losses(self):
        doc = json.loads((FIXTURES / "golden_losses.json").read_text())
        demos = generate_demos(doc["demos"]["n"], seed=doc["demos"]["seed"])
        cfg = TrainConfig(**doc["config"], dtype="float64")
        for mode, want in doc["losses"].items():
            _, report = train(cfg, demos, mode)
            assert [x.hex() for x in report.losses] == want, mode


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
