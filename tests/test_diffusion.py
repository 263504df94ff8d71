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

    def test_rejects_out_of_range(self):
        s = make_noise_schedule(10)
        with pytest.raises(ValueError):
            respaced_schedule(s, 0)
        with pytest.raises(ValueError):
            respaced_schedule(s, 11)
