"""Shared test utilities: oracle denoisers built from the scripted
expert and the one way to install them in the rollout, a rollout under
a fixed budget, the sampler's per-sample objective for gradient checks
and its gradient's per-draw loop, and the push task's stages as
protocol templates."""

import numpy as np

import diffpol.rollout
from diffpol.env import D_A, STAGES, T_P, EnvState, env_step, \
    expert_actions
from diffpol.diffusion import NoiseSchedule
from diffpol.rollout import fixed_schedule_table, rollout
from diffpol.scheduling import SchedulerState
from diffpol.stages import StageTemplate
from diffpol.training import TimestepSampler, sampler_distribution

_STAGE_DESCRIPTIONS = {
    "approach": "Action features: The agent moves across open space toward "
                "the block, closing most of the separation distance.",
    "align": "Action features: The agent circles to the far side of the "
             "block so that block and target line up ahead of it.",
    "push": "Action features: The agent presses against the block and "
            "drives it along the line toward the target zone.",
    "reach": "Action features: The block is close to the target and short "
             "careful pushes finish the placement.",
    "complete": "Action features: The block rests inside the target zone "
                "and the agent holds position.",
}


def push_stage_templates() -> list[StageTemplate]:
    """The five stages of the push task as protocol templates."""
    return [StageTemplate(name=n, description=_STAGE_DESCRIPTIONS[n])
            for n in STAGES]


def sampler_objective(ts: TimestepSampler, k: int, r: float) -> float:
    """The per-sample objective -r * log pi(k) - entropy_coef * H(pi),
    whose gradient ``training._policy_entropy_grad`` gives."""
    p = sampler_distribution(ts)
    logp = np.log(np.maximum(p, 1e-300))
    H = float(-np.sum(p * logp))
    return float(-r * logp[k - 1] - ts.entropy_coef * H)


def policy_entropy_grad_loop(ts: TimestepSampler, ks: np.ndarray,
                             rs: np.ndarray) -> np.ndarray:
    """``training._policy_entropy_grad`` as one update per draw: the
    reference its (2B, T) form must equal bit for bit."""
    p = sampler_distribution(ts)
    dz = np.zeros(ts.T)
    for k, r in zip(ks, rs):
        dz += r * p
        dz[k - 1] -= r
    dz /= len(ks)
    logp = np.log(np.maximum(p, 1e-300))
    H = float(-np.sum(p * logp))
    dz += ts.entropy_coef * p * (logp + H)
    return dz


def fixed_rollout(params, sched: NoiseSchedule, env_seed: int, pair,
                  *args, **kwargs):
    """rollout() under a fixed ``(N_a, N_d)`` budget: the scheduler over
    fixed_schedule_table's one pair for every stage, as evaluate()
    builds it for a pair."""
    na, nd = pair
    return rollout(params, sched, env_seed,
                   SchedulerState(fixed_schedule_table(na, nd)),
                   *args, **kwargs)


def expert_action(st: EnvState) -> np.ndarray:
    """The expert's action for one state: expert_actions on its row."""
    return expert_actions(st.agent[None], st.block[None], st.target[None])[0]


def expert_window(obs: np.ndarray) -> np.ndarray:
    """The next T_P expert actions from the state encoded in obs."""
    st = EnvState(agent=obs[0:2].copy(), block=obs[2:4].copy(),
                  target=obs[4:6].copy())
    acts = np.empty((T_P, D_A))
    for i in range(T_P):
        a = expert_action(st)
        acts[i] = a
        st, _ = env_step(st, a)
    return acts


def expert_forward_fn(sched: NoiseSchedule):
    """A denoiser that always points the chain at the expert's window.

    Returns eps_hat such that the clean-sample reconstruction at any
    step equals the expert action window for the current observation, so
    a deterministic sampler reproduces the expert exactly.  Like every
    fake here it has denoiser_forward's signature and ignores context.
    """

    def forward(params, obs, ak, k, context=None):
        target = expert_window(obs)
        ab = sched.alpha_bar[k - 1]
        return (ak - np.sqrt(ab) * target) / np.sqrt(1.0 - ab)

    return forward


def zero_forward_fn(sched: NoiseSchedule):
    """A denoiser whose clean-sample reconstruction is always zero."""

    def forward(params, obs, ak, k, context=None):
        return ak / np.sqrt(1.0 - sched.alpha_bar[k - 1])

    return forward


def install_denoiser(monkeypatch, fake) -> None:
    """Make the rollout call ``fake``, which has denoiser_forward's
    signature, in place of the denoiser until ``monkeypatch`` undoes it."""
    monkeypatch.setattr(diffpol.rollout, "denoiser_forward", fake)
