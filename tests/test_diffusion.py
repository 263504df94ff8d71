"""Schedule tables, forward/reverse steps, and loss weighting."""

import numpy as np
import pytest

from diffpol.diffusion import (
    ddim_reverse_step,
    ddpm_reverse_step,
    forward_noise,
    make_noise_schedule,
    respaced_schedule,
    schedule_from_betas,
    theoretical_weights,
)


def two_step():
    return schedule_from_betas(np.array([0.1, 0.2]))


def uncached_respacing(s, n):
    """The respacing arithmetic, computed afresh on every call."""
    if n == 1:
        idx = np.array([s.T], dtype=np.int64)
    else:
        idx = np.round(np.linspace(1, s.T, n)).astype(np.int64)
    ab = s.alpha_bar[idx - 1]
    prev = np.concatenate(([1.0], ab[:-1]))
    return schedule_from_betas(1.0 - ab / prev), idx


def numpy_scalar_ddpm(s, eps_hat, ak, k, z):
    """ddpm_reverse_step with numpy-scalar coefficients."""
    i = k - 1
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    coef = (1.0 - s.alpha[i]) / np.sqrt(1.0 - s.alpha_bar[i])
    mean = (ak - coef * eps_hat) / np.sqrt(s.alpha[i])
    return mean + s.sigma[i] * z


def numpy_scalar_ddim(s, eps_hat, ak, k, k_prev):
    """ddim_reverse_step with numpy-scalar coefficients."""
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    ab = s.alpha_bar[k - 1]
    ab_prev = 1.0 if k_prev == 0 else s.alpha_bar[k_prev - 1]
    a0_hat = (ak - np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(ab)
    return np.sqrt(ab_prev) * a0_hat + np.sqrt(1.0 - ab_prev) * eps_hat


def oracle_eps_hat(s, a0, ak, k):
    # exact noise for a point-mass clean sequence: invert the forward map
    ab = s.alpha_bar[k - 1]
    return (ak - np.sqrt(ab) * a0) / np.sqrt(1.0 - ab)


class TestScheduleTables:
    def test_hand_products(self):
        s = two_step()
        np.testing.assert_allclose(s.alpha, [0.9, 0.8])
        np.testing.assert_allclose(s.alpha_bar, [0.9, 0.72])
        np.testing.assert_allclose(s.sigma, np.sqrt([0.1, 0.2]))

    def test_single_step(self):
        s = make_noise_schedule(1, 0.5, 0.5)
        np.testing.assert_allclose(s.beta, [0.5])
        np.testing.assert_allclose(s.alpha_bar, [0.5])
        np.testing.assert_allclose(s.sigma, [np.sqrt(0.5)])

    def test_default_schedule_frozen_values(self):
        # independent cumulative product, frozen
        s = make_noise_schedule(100)
        assert s.beta[0] == 1e-4
        assert s.beta[-1] == 0.02
        assert abs(s.beta[49] - 0.00994949494949495) < 1e-15
        assert abs(s.alpha_bar[-1] - 0.3635632480554922) < 1e-12

    def test_monotonic_tables(self):
        s = make_noise_schedule(100)
        assert np.all(np.diff(s.alpha_bar) < 0)
        assert np.all((s.alpha_bar > 0) & (s.alpha_bar < 1))
        assert np.all((s.beta > 0) & (s.beta < 1))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_noise_schedule(0)
        with pytest.raises(ValueError):
            make_noise_schedule(10, 0.0, 0.02)
        with pytest.raises(ValueError):
            make_noise_schedule(10, 0.5, 0.2)
        with pytest.raises(ValueError):
            schedule_from_betas(np.array([0.1, 1.0]))


class TestForwardNoise:
    def test_hand_value(self):
        s = two_step()
        a0 = np.array([1.0])
        eps = np.array([0.5])
        out = forward_noise(s, a0, 2, eps)
        np.testing.assert_allclose(out, [1.1131032685303162], rtol=0, atol=1e-15)

    def test_no_noise_limit(self):
        # alpha_bar indistinguishable from 1 passes the input through
        s = schedule_from_betas(np.array([1e-18]))
        a0 = np.arange(6, dtype=np.float64).reshape(3, 2)
        out = forward_noise(s, a0, 1, np.ones_like(a0))
        np.testing.assert_array_equal(out, a0)

    def test_moments(self):
        # Monte-Carlo check of the conditional mean and variance
        s = make_noise_schedule(100)
        rng = np.random.default_rng(7)
        a0 = rng.normal(size=(16, 2))
        k = 60
        draws = np.stack([
            forward_noise(s, a0, k, rng.standard_normal(a0.shape))
            for _ in range(20000)
        ])
        ab = s.alpha_bar[k - 1]
        np.testing.assert_allclose(draws.mean(axis=0), np.sqrt(ab) * a0, atol=0.02)
        np.testing.assert_allclose(draws.var(axis=0), (1 - ab) * np.ones_like(a0),
                                   atol=0.02)

    def test_shape_mismatch(self):
        s = two_step()
        with pytest.raises(ValueError):
            forward_noise(s, np.zeros((2, 2)), 1, np.zeros(3))
        with pytest.raises(ValueError):
            forward_noise(s, np.zeros(2), 3, np.zeros(2))

    def test_step_array_matches_per_row_calls(self):
        s = make_noise_schedule(10)
        rng = np.random.default_rng(3)
        a0 = rng.normal(size=(6, 4, 2))
        eps = rng.normal(size=a0.shape)
        ks = np.array([1, 10, 4, 4, 7, 2])
        out = forward_noise(s, a0, ks, eps)
        rows = [forward_noise(s, a0[e], int(k), eps[e])
                for e, k in enumerate(ks)]
        np.testing.assert_array_equal(out, np.stack(rows))

    def test_step_array_rejects_bad_steps(self):
        s = make_noise_schedule(10)
        a0 = np.zeros((3, 2))
        for ks in ([1, 0, 2], [1, 11, 2], [1, 2], [1.0, 2.0, 3.0],
                   [[1, 2, 3]]):
            with pytest.raises(ValueError, match=r"in \[1, 10\]"):
                forward_noise(s, a0, np.array(ks), a0)


class TestDdpmReverseStep:
    def test_hand_values(self):
        s = two_step()
        one = np.ones(1)
        out2 = ddpm_reverse_step(s, one, one, 2, np.zeros(1))
        np.testing.assert_allclose(out2, [0.6954568613856366], atol=1e-15)
        out1 = ddpm_reverse_step(s, one, one, 1, np.zeros(1))
        np.testing.assert_allclose(out1, [0.7207592200561264], atol=1e-15)

    def test_final_step_must_be_noise_free(self):
        s = two_step()
        one = np.ones(1)
        with pytest.raises(ValueError):
            ddpm_reverse_step(s, one, one, 1, np.ones(1))

    def test_full_chain_round_trip(self):
        # exact-noise denoiser walks the chain back to the clean sequence
        s = make_noise_schedule(100)
        rng = np.random.default_rng(3)
        a0 = rng.uniform(-1, 1, size=(16, 2))
        ak = forward_noise(s, a0, s.T, rng.standard_normal(a0.shape))
        for k in range(s.T, 0, -1):
            eh = oracle_eps_hat(s, a0, ak, k)
            ak = ddpm_reverse_step(s, eh, ak, k, np.zeros_like(ak))
        np.testing.assert_allclose(ak, a0, atol=1e-6)


class TestScalarCoefficients:
    """The reverse steps take their coefficients as Python floats; the
    outputs are the numpy-scalar forms' bit for bit, and a float32
    eps_hat still computes in float64."""

    @pytest.mark.parametrize("eps_dtype", [np.float64, np.float32])
    def test_ddpm_matches_numpy_scalars(self, eps_dtype):
        s = respaced_schedule(make_noise_schedule(100), 40)[0]
        rng = np.random.default_rng(11)
        for k in range(1, s.T + 1):
            ak = rng.standard_normal((16, 2))
            eh = rng.standard_normal((16, 2)).astype(eps_dtype)
            z = rng.standard_normal((16, 2)) if k > 1 else np.zeros((16, 2))
            got = ddpm_reverse_step(s, eh, ak, k, z)
            assert got.dtype == np.float64
            assert got.tobytes() == numpy_scalar_ddpm(s, eh, ak, k, z).tobytes()

    @pytest.mark.parametrize("eps_dtype", [np.float64, np.float32])
    def test_ddim_matches_numpy_scalars(self, eps_dtype):
        s = make_noise_schedule(100)
        rng = np.random.default_rng(12)
        for k in range(1, s.T + 1):
            for k_prev in {0, k // 2, k - 1}:
                ak = rng.standard_normal((16, 2))
                eh = rng.standard_normal((16, 2)).astype(eps_dtype)
                got = ddim_reverse_step(s, eh, ak, k, k_prev)
                want = numpy_scalar_ddim(s, eh, ak, k, k_prev)
                assert got.dtype == np.float64
                assert got.tobytes() == want.tobytes()


class TestDdimReverseStep:
    def test_point_mass_chain_recovers_exactly(self):
        s = make_noise_schedule(50)
        rng = np.random.default_rng(5)
        a0 = rng.uniform(-1, 1, size=(4, 2))
        ak = forward_noise(s, a0, s.T, rng.standard_normal(a0.shape))
        steps = list(range(s.T, 0, -2))  # stride-2 subsequence
        for j, k in enumerate(steps):
            k_prev = steps[j + 1] if j + 1 < len(steps) else 0
            eh = oracle_eps_hat(s, a0, ak, k)
            ak = ddim_reverse_step(s, eh, ak, k, k_prev)
        np.testing.assert_allclose(ak, a0, atol=1e-9)

    def test_rejects_bad_levels(self):
        s = two_step()
        one = np.ones(1)
        with pytest.raises(ValueError):
            ddim_reverse_step(s, one, one, 2, 2)


class TestLosses:
    def test_theoretical_weights_frozen(self):
        w, q = theoretical_weights(two_step())
        np.testing.assert_allclose(w, [0.05555555555555558, 0.08928571428571429],
                                   atol=1e-15)
        np.testing.assert_allclose(q, [0.38356164383561653, 0.6164383561643834],
                                   atol=1e-15)
        assert abs(q.sum() - 1.0) < 1e-12

    def test_weights_single_step(self):
        w, q = theoretical_weights(make_noise_schedule(1, 0.5, 0.5))
        np.testing.assert_allclose(w, [0.5])
        np.testing.assert_allclose(q, [1.0])

    def test_weights_positive_and_normalized(self):
        for T in (2, 10, 100):
            w, q = theoretical_weights(make_noise_schedule(T))
            assert np.all(w > 0)
            assert abs(q.sum() - 1.0) < 1e-12

    def test_importance_identity_exact(self):
        # expectation under q of the vanilla loss equals expectation under
        # uniform of the weighted loss, up to the constant sum(w) / T
        rng = np.random.default_rng(17)
        s = make_noise_schedule(10)
        w, q = theoretical_weights(s)
        for _ in range(3):
            per_step_mse = rng.uniform(0.1, 5.0, size=s.T)
            lhs = float(np.dot(q, per_step_mse))
            rhs = float(np.mean(w * per_step_mse))
            np.testing.assert_allclose(lhs / rhs, s.T / w.sum(), rtol=1e-12)


class TestRespacedSchedule:
    def test_identity_when_full(self):
        s = make_noise_schedule(100)
        sub, idx = respaced_schedule(s, 100)
        np.testing.assert_allclose(sub.beta, s.beta, atol=1e-12)
        np.testing.assert_array_equal(idx, np.arange(1, 101))

    def test_marginals_preserved(self):
        s = make_noise_schedule(100)
        for n in (1, 7, 20, 99):
            sub, idx = respaced_schedule(s, n)
            assert idx[-1] == s.T
            assert np.all(np.diff(idx) > 0)
            np.testing.assert_allclose(sub.alpha_bar, s.alpha_bar[idx - 1],
                                       atol=1e-12)

    def test_short_chain_round_trip(self):
        s = make_noise_schedule(100)
        sub, _ = respaced_schedule(s, 10)
        rng = np.random.default_rng(23)
        a0 = rng.uniform(-1, 1, size=(16, 2))
        ak = forward_noise(sub, a0, sub.T, rng.standard_normal(a0.shape))
        for k in range(sub.T, 0, -1):
            eh = oracle_eps_hat(sub, a0, ak, k)
            ak = ddpm_reverse_step(sub, eh, ak, k, np.zeros_like(ak))
        np.testing.assert_allclose(ak, a0, atol=1e-6)

    def test_memoised_result_matches_uncached_for_every_n(self):
        s = make_noise_schedule(100)
        for n in range(1, s.T + 1):
            sub, idx = respaced_schedule(s, n)
            want, want_idx = uncached_respacing(s, n)
            assert sub.T == want.T == n
            for name in ("beta", "alpha", "alpha_bar", "sigma"):
                assert getattr(sub, name).tobytes() \
                    == getattr(want, name).tobytes(), (n, name)
            assert idx.dtype == want_idx.dtype
            assert idx.tobytes() == want_idx.tobytes()

    def test_equal_schedules_share_one_result(self):
        a = respaced_schedule(make_noise_schedule(100), 7)
        b = respaced_schedule(make_noise_schedule(100), 7)
        assert a[0] is b[0] and a[1] is b[1]

    def test_idx_is_read_only(self):
        _, idx = respaced_schedule(make_noise_schedule(100), 10)
        with pytest.raises(ValueError):
            idx[0] = 5
        assert respaced_schedule(make_noise_schedule(100), 10)[1][0] == 1

    def test_same_length_different_betas_differ(self):
        s1 = make_noise_schedule(50)
        s2 = make_noise_schedule(50, 1e-3, 0.05)
        for n in (1, 10, 50):
            sub1, _ = respaced_schedule(s1, n)
            sub2, _ = respaced_schedule(s2, n)
            assert not np.array_equal(sub1.beta, sub2.beta)
            assert sub2.beta.tobytes() \
                == uncached_respacing(s2, n)[0].beta.tobytes()

    def test_rejects_out_of_range(self):
        s = make_noise_schedule(10)
        with pytest.raises(ValueError):
            respaced_schedule(s, 0)
        with pytest.raises(ValueError):
            respaced_schedule(s, 11)
