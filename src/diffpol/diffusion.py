"""Denoising-diffusion primitives for action sequences.

Variance schedule tables, the forward noising map, single reverse steps
(stochastic and deterministic variants), and the per-timestep loss
weighting used by the adaptive trainer.  Schedules and step arithmetic
are float64 numpy: the reverse steps take ``eps_hat`` in any float dtype
(a float32 denoiser's output, say) and compute in float64, with their
scalar coefficients as Python floats.  Step indices
are 1-based: ``k`` runs over ``1..T`` and ``alpha_bar[0]`` belongs to
``k = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step variance tables.

    beta[i] is the noise variance added at step ``k = i + 1``;
    alpha = 1 - beta; alpha_bar is the cumulative product of alpha;
    sigma = sqrt(beta) is the reverse-step noise scale.
    """

    T: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    sigma: np.ndarray


def schedule_from_betas(beta: np.ndarray) -> NoiseSchedule:
    """Build the derived tables from an explicit beta sequence."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.ndim != 1 or beta.size == 0:
        raise ValueError("beta must be a non-empty 1-d array")
    if np.any(beta <= 0.0) or np.any(beta >= 1.0):
        raise ValueError("every beta must lie in (0, 1)")
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    sigma = np.sqrt(beta)
    for arr in (beta, alpha, alpha_bar, sigma):
        arr.setflags(write=False)
    return NoiseSchedule(T=beta.size, beta=beta, alpha=alpha,
                         alpha_bar=alpha_bar, sigma=sigma)


# Linear schedule of Ho et al., "Denoising Diffusion Probabilistic Models"
BETA_START = 1e-4
BETA_END = 0.02
# the longest schedule a training config or checkpoint header may name;
# T sizes every per-step table, and a header's T is not in its payload
MAX_T = 10_000


def make_noise_schedule(T: int, beta_start: float = BETA_START,
                        beta_end: float = BETA_END) -> NoiseSchedule:
    """Linear variance schedule with ``T`` steps.

    Raises ValueError on T < 1 or betas outside (0, 1).
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError("need 0 < beta_start <= beta_end < 1")
    return schedule_from_betas(np.linspace(beta_start, beta_end, T))


def respaced_schedule(s: NoiseSchedule, n_steps: int) -> tuple[NoiseSchedule, np.ndarray]:
    """Evenly spaced ``n_steps``-step subsequence of a T-step schedule.

    Returns the derived schedule plus the selected original step indices
    (1-based, strictly increasing, ending at T, read-only).  The derived
    chain keeps the original alpha_bar at the selected steps and
    re-derives beta so that running the short chain matches the
    marginals of the long one.  With ``n_steps == T`` the original
    tables are reproduced.  Results are memoised on the schedule's
    values and ``n_steps``, so repeated calls share one result.
    """
    if not (1 <= n_steps <= s.T):
        raise ValueError(f"n_steps must be in [1, {s.T}], got {n_steps}")
    return _respaced(np.asarray(s.alpha_bar, dtype=np.float64).tobytes(),
                     n_steps)


@lru_cache(maxsize=64)
def _respaced(alpha_bar: bytes,
              n_steps: int) -> tuple[NoiseSchedule, np.ndarray]:
    alpha_bar = np.frombuffer(alpha_bar, dtype=np.float64)
    T = alpha_bar.size
    if n_steps == 1:
        idx = np.array([T], dtype=np.int64)
    else:
        idx = np.round(np.linspace(1, T, n_steps)).astype(np.int64)
    # spacing >= 1 guarantees strictly increasing rounded indices
    ab = alpha_bar[idx - 1]
    prev = np.concatenate(([1.0], ab[:-1]))
    beta = 1.0 - ab / prev
    idx.setflags(write=False)
    return schedule_from_betas(beta), idx


def _check_step(s: NoiseSchedule, k: int) -> int:
    if not (1 <= k <= s.T):
        raise ValueError(f"step index k must be in [1, {s.T}], got {k}")
    return k - 1


def _check_like(name: str, x: np.ndarray, ref: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != ref.shape:
        raise ValueError(f"{name} shape {x.shape} does not match {ref.shape}")
    return x


def forward_noise(s: NoiseSchedule, a0: np.ndarray, k: int | np.ndarray,
                  eps: np.ndarray) -> np.ndarray:
    """Noise a clean sequence to level k:

        a_k = sqrt(alpha_bar_k) * a0 + sqrt(1 - alpha_bar_k) * eps

    k is an int, or an int array of shape (B,) giving the level of each
    entry along a0's leading axis of length B.
    """
    a0 = np.asarray(a0, dtype=np.float64)
    eps = _check_like("eps", eps, a0)
    ks = np.asarray(k)
    if ks.shape not in ((), a0.shape[:1]) \
            or not np.issubdtype(ks.dtype, np.integer) \
            or np.any((ks < 1) | (ks > s.T)):
        raise ValueError(f"k must be an int or {a0.shape[:1]} ints in "
                         f"[1, {s.T}], got {k!r}")
    ab = s.alpha_bar[ks - 1].reshape(ks.shape + (1,) * (a0.ndim - ks.ndim))
    return np.sqrt(ab) * a0 + np.sqrt(1.0 - ab) * eps


def ddpm_reverse_step(s: NoiseSchedule, eps_hat: np.ndarray, ak: np.ndarray,
                      k: int, z: np.ndarray) -> np.ndarray:
    """One stochastic reverse step from level k to k - 1:

        a_{k-1} = (a_k - beta_k / sqrt(1 - alpha_bar_k) * eps_hat)
                  / sqrt(alpha_k)  +  sigma_k * z

    ``z`` is a standard-normal draw; at k = 1 it must be zero so the
    final output is noise-free.
    """
    ak = np.asarray(ak, dtype=np.float64)
    eps_hat = _check_like("eps_hat", eps_hat, ak)
    z = _check_like("z", z, ak)
    i = _check_step(s, k)
    if k == 1 and np.any(z != 0.0):
        raise ValueError("z must be zero at the final reverse step (k = 1)")
    alpha = s.alpha.item(i)
    coef = (1.0 - alpha) / math.sqrt(1.0 - s.alpha_bar.item(i))
    mean = (ak - coef * eps_hat) / math.sqrt(alpha)
    return mean + s.sigma.item(i) * z


def ddim_reverse_step(s: NoiseSchedule, eps_hat: np.ndarray, ak: np.ndarray,
                      k: int, k_prev: int) -> np.ndarray:
    """Deterministic reverse step from level k to level k_prev.

    Reconstructs the clean-sequence estimate and re-noises it to level
    k_prev along the predicted noise (k_prev = 0 means fully denoised,
    alpha_bar = 1):

        a0_hat  = (a_k - sqrt(1 - ab_k) * eps_hat) / sqrt(ab_k)
        a_prev  = sqrt(ab_prev) * a0_hat + sqrt(1 - ab_prev) * eps_hat
    """
    ak = np.asarray(ak, dtype=np.float64)
    eps_hat = _check_like("eps_hat", eps_hat, ak)
    i = _check_step(s, k)
    if not (0 <= k_prev < k):
        raise ValueError(f"k_prev must satisfy 0 <= k_prev < k, got {k_prev}")
    ab = s.alpha_bar.item(i)
    ab_prev = 1.0 if k_prev == 0 else s.alpha_bar.item(k_prev - 1)
    a0_hat = (ak - math.sqrt(1.0 - ab) * eps_hat) / math.sqrt(ab)
    return math.sqrt(ab_prev) * a0_hat + math.sqrt(1.0 - ab_prev) * eps_hat


def theoretical_weights(s: NoiseSchedule) -> tuple[np.ndarray, np.ndarray]:
    """Per-step importance weights and the induced distribution.

        w_k = beta_k^2 / (2 * alpha_k * (1 - alpha_bar_k))
        q_k = w_k / sum_j w_j

    Steps where the squared noise increment is large relative to the
    remaining signal get more weight; q sums to one.
    """
    w = s.beta ** 2 / (2.0 * s.alpha * (1.0 - s.alpha_bar))
    q = w / np.sum(w)
    return w, q

