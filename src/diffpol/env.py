"""Toy planar push task, scripted expert, and demonstration datasets.

A point agent pushes a block to a target inside the unit square.  The
episode advances through five named stages -- approach, align, push,
reach, complete -- each a deterministic function of the geometry, so an
oracle can label the stage at any time without a classifier.  All
dynamics are deterministic given the action sequence; randomness enters
only through the seeded initial placement and optional action noise.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

# geometry and episode limits
CONTACT_RADIUS = 0.05   # agent-block distance at which pushing engages
TARGET_TOL = 0.03       # block-target distance that counts as success
REACH_RADIUS = 0.10     # block-target distance that starts fine control
APPROACH_RADIUS = 0.15  # agent-block distance separating approach from align
ALIGN_COS = 0.85        # alignment of push direction with target direction
STEP_SIZE = 0.02        # agent displacement per unit action per step
MAX_STEPS = 200
D_O = 6                 # observation: agent, block, target positions
D_A = 2                 # action: planar agent velocity in [-1, 1]
T_P = 16                # action window length used everywhere downstream

STAGES = ("approach", "align", "push", "reach", "complete")
DEMO_MAGIC = b"DIFFDEM1"

TASK_DESCRIPTION = "Push the block across the plane into the target zone."


@dataclass(frozen=True)
class EnvState:
    agent: np.ndarray
    block: np.ndarray
    target: np.ndarray
    t: int = 0


def _norm(v: np.ndarray) -> float:
    """Length of a 1-d float64 vector: ``np.linalg.norm``'s own 1-d path
    (sqrt of the dot product), bit for bit, without its dispatch."""
    return math.sqrt(v.dot(v))


def _clip(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``np.clip`` bit for bit, signed zeros and NaN included, at about
    half its call overhead on the small vectors here.  The bound comes
    first so that a tie returns the bound, as ``np.clip`` does."""
    return np.minimum(hi, np.maximum(lo, v))


def reset_env(seed: int) -> EnvState:
    """Seeded initial placement: block between agent and a far target,
    with enough separation that every stage is exercised."""
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        target = rng.uniform(0.55, 0.92, size=2)
        block = rng.uniform(0.15, 0.55, size=2)
        agent = rng.uniform(0.05, 0.95, size=2)
        d_bt = _norm(block - target)
        d_ab = _norm(agent - block)
        d_at = _norm(agent - target)
        if 0.25 <= d_bt <= 0.8 and d_ab >= APPROACH_RADIUS + 0.03 \
                and d_at >= 0.1:
            return EnvState(agent=agent, block=block, target=target)
    raise RuntimeError(f"no valid initial placement for seed {seed}")


def observe(st: EnvState) -> np.ndarray:
    return np.concatenate([st.agent, st.block, st.target])


def policy_features(obs: np.ndarray) -> np.ndarray:
    """Observation lifted with relative geometry: what learned policies
    condition on.

    The raw layout (agent, block, target) stays untouched at the front;
    appended are the block-agent and target-block offsets, their
    lengths, the matching unit vectors, and the cosine between them.
    Everything is computed from the observation alone.  The lift puts
    the quantities a pushing controller switches on (separations and
    alignment) on explicit axes instead of leaving the regressor to
    rebuild them from absolute positions.  Accepts a single observation
    or a batch.
    """
    obs = np.asarray(obs)
    ab = obs[..., 2:4] - obs[..., 0:2]
    bt = obs[..., 4:6] - obs[..., 2:4]
    d_ab = np.linalg.norm(ab, axis=-1, keepdims=True)
    d_bt = np.linalg.norm(bt, axis=-1, keepdims=True)
    u_ab = ab / np.maximum(d_ab, 1e-9)
    u_bt = bt / np.maximum(d_bt, 1e-9)
    cos = np.sum(u_ab * u_bt, axis=-1, keepdims=True)
    return np.concatenate([obs, ab, bt, d_ab, d_bt, u_ab, u_bt, cos],
                          axis=-1)


def stage_index(st: EnvState) -> int:
    """Stage as a pure function of the geometry (first match wins):
    complete / reach by block-target distance, push by contact plus
    alignment, align by agent-block distance, approach otherwise."""
    d_bt = _norm(st.block - st.target)
    if d_bt <= TARGET_TOL:
        return 4
    if d_bt <= REACH_RADIUS:
        return 3
    d_ab = _norm(st.agent - st.block)
    if d_ab <= CONTACT_RADIUS + 0.02:
        to_block = st.block - st.agent
        to_target = st.target - st.block
        nb, nt = _norm(to_block), _norm(to_target)
        if nb > 1e-12 and nt > 1e-12 \
                and float(to_block @ to_target) / (nb * nt) >= ALIGN_COS:
            return 2
    if d_ab <= APPROACH_RADIUS:
        return 1
    return 0


def env_step(st: EnvState, action: np.ndarray) -> tuple[EnvState, np.ndarray, bool]:
    """Advance one control step.

    The agent moves by STEP_SIZE * clip(action); if it ends up inside
    the contact radius the block is displaced outward along the
    agent-block line until the separation is exactly the contact radius
    (a rigid frictionless push).  Returns (state', observation, done);
    done is success (block at target) or the step limit.
    """
    action = np.asarray(action, dtype=np.float64)
    if action.shape != (D_A,):
        raise ValueError(f"action shape {action.shape} != ({D_A},)")
    a = _clip(action, -1.0, 1.0)
    agent = _clip(st.agent + STEP_SIZE * a, 0.0, 1.0)
    block = st.block
    d = _norm(block - agent)
    if d < CONTACT_RADIUS:
        if d < 1e-9:
            direction = np.array([1.0, 0.0])  # degenerate overlap
        else:
            direction = (block - agent) / d
        block = _clip(agent + CONTACT_RADIUS * direction, 0.0, 1.0)
    nxt = EnvState(agent=agent, block=block, target=st.target, t=st.t + 1)
    d_bt = _norm(block - st.target)
    done = d_bt <= TARGET_TOL or nxt.t >= MAX_STEPS
    return nxt, observe(nxt), done


def is_success(st: EnvState) -> bool:
    return _norm(st.block - st.target) <= TARGET_TOL


# -- scripted expert ---------------------------------------------------------


def _toward(agent: np.ndarray, point: np.ndarray, gain: float = 1.0) -> np.ndarray:
    """Saturating proportional step toward a waypoint."""
    return _clip(gain * (point - agent) / STEP_SIZE, -1.0, 1.0)


def scripted_expert(st: EnvState) -> np.ndarray:
    """Deterministic proportional controller, a pure function of state.

    Far from the block it walks to a staging point behind the block
    (detouring sideways rather than bumping the block off line); once
    roughly behind it chases a waypoint just inside the contact radius,
    which both pushes the block toward the target and continuously
    steers the agent back onto the push line, slowing inside the reach
    radius for the final placement.
    """
    if stage_index(st) == 4:
        return np.zeros(D_A)
    to_target = st.target - st.block
    d_bt = _norm(to_target)
    u = to_target / max(d_bt, 1e-12)
    chase = st.block - 0.035 * u   # pushing waypoint, inside contact
    behind = st.block - 0.09 * u   # staging waypoint, outside contact
    to_block = st.block - st.agent
    d_ab = _norm(to_block)
    cos = float((to_block / d_ab) @ u) if d_ab > 1e-12 else 1.0

    if d_ab <= 0.12 and cos >= 0.75:
        gain = 0.5 if d_bt <= REACH_RADIUS else 1.0
        return _toward(st.agent, chase, gain)
    # navigate to the staging point; when close on the wrong side,
    # slide around the block instead of bumping it off line
    if d_ab < 0.085:
        to_stage = behind - st.agent
        tangent = np.array([-to_block[1], to_block[0]]) / max(d_ab, 1e-12)
        # pick the orbit direction that progresses toward the staging
        # point; near the symmetric (antipodal) case keep a fixed
        # chirality so the choice cannot alternate between steps
        score = float(tangent @ to_stage) / max(_norm(to_stage), 1e-12)
        if score < -0.3:
            tangent = -tangent
        outward = -to_block / max(d_ab, 1e-12)
        direction = tangent + 0.25 * outward  # tangent dominates: progress
        return direction / _norm(direction)
    return _toward(st.agent, behind)


# -- demonstrations ----------------------------------------------------------


@dataclass
class DemoTrajectory:
    """Overlapping windows of one successful episode."""

    env_seed: int
    length: int
    obs: np.ndarray      # (n_windows, D_O) observation at each window start
    actions: np.ndarray  # (n_windows, T_P, D_A) executed action windows

    @property
    def n_windows(self) -> int:
        return self.obs.shape[0]


@dataclass
class DemoDataset:
    trajectories: list[DemoTrajectory]

    @property
    def n_traj(self) -> int:
        return len(self.trajectories)

    @property
    def d_o(self) -> int:
        return D_O

    @property
    def d_a(self) -> int:
        return D_A

    @property
    def T_p(self) -> int:
        return T_P


def run_expert_episode(env_seed: int, noise_level: float,
                       rng: np.random.Generator
                       ) -> tuple[list[np.ndarray], list[np.ndarray], bool, int]:
    """Roll the scripted expert with optional action noise; returns the
    observation sequence, executed actions, success flag, and length."""
    st = reset_env(env_seed)
    obs_seq = [observe(st)]
    act_seq: list[np.ndarray] = []
    done = False
    while not done:
        a = scripted_expert(st)
        if noise_level > 0.0:
            a = _clip(a + noise_level * rng.standard_normal(D_A), -1.0, 1.0)
        st, obs, done = env_step(st, a)
        act_seq.append(a)
        obs_seq.append(obs)
    return obs_seq, act_seq, is_success(st), st.t


def generate_demos(n: int, seed: int, noise_level: float = 0.0) -> DemoDataset:
    """Collect n successful expert episodes as overlapping windows.

    Episodes that fail, or end before one full window fits, are redrawn
    (bounded retries).  Each episode of length L yields L - T_P + 1
    windows pairing the observation at step t with actions t..t+T_P-1.
    """
    if n < 1:
        raise ValueError("need at least one demonstration")
    if noise_level < 0.0:
        raise ValueError("noise_level must be >= 0")
    rng = np.random.default_rng(seed)
    trajectories: list[DemoTrajectory] = []
    attempts = 0
    next_seed = seed
    while len(trajectories) < n:
        attempts += 1
        if attempts > 20 * n:
            raise RuntimeError("expert failed too often; check noise_level")
        env_seed = next_seed
        next_seed += 1
        obs_seq, act_seq, ok, length = run_expert_episode(
            env_seed, noise_level, rng)
        if not ok or length < T_P:
            continue
        n_w = length - T_P + 1
        obs = np.stack(obs_seq[:n_w])
        acts = np.stack([np.stack(act_seq[t:t + T_P]) for t in range(n_w)])
        trajectories.append(DemoTrajectory(env_seed=env_seed, length=length,
                                           obs=obs, actions=acts))
    return DemoDataset(trajectories)


def save_demos(path: str, ds: DemoDataset) -> None:
    """Magic, little-endian int64 counts (n_traj, d_o, d_a, T_p), then per
    trajectory int64 (env_seed, length, n_windows) and the float64
    observation and action payloads, row-major."""
    with open(path, "wb") as f:
        f.write(DEMO_MAGIC)
        f.write(struct.pack("<4q", ds.n_traj, D_O, D_A, T_P))
        for tr in ds.trajectories:
            f.write(struct.pack("<3q", tr.env_seed, tr.length, tr.n_windows))
            f.write(np.ascontiguousarray(tr.obs, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(tr.actions, dtype="<f8").tobytes())


def load_demos(path: str) -> DemoDataset:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != DEMO_MAGIC:
        raise ValueError(f"{path}: not a demo dataset (bad magic)")
    n_traj, d_o, d_a, t_p = struct.unpack_from("<4q", blob, 8)
    if (d_o, d_a, t_p) != (D_O, D_A, T_P):
        raise ValueError(f"{path}: dims {(d_o, d_a, t_p)} do not match "
                         f"{(D_O, D_A, T_P)}")
    off = 8 + 4 * 8
    trajectories = []
    for _ in range(n_traj):
        env_seed, length, n_w = struct.unpack_from("<3q", blob, off)
        off += 3 * 8
        obs = np.frombuffer(blob, dtype="<f8", count=n_w * d_o, offset=off)
        off += n_w * d_o * 8
        acts = np.frombuffer(blob, dtype="<f8", count=n_w * t_p * d_a,
                             offset=off)
        off += n_w * t_p * d_a * 8
        trajectories.append(DemoTrajectory(
            env_seed=env_seed, length=length,
            obs=obs.reshape(n_w, d_o).astype(np.float64),
            actions=acts.reshape(n_w, t_p, d_a).astype(np.float64)))
    if off != len(blob):
        raise ValueError(f"{path}: payload size mismatch")
    return DemoDataset(trajectories)
