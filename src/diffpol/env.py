"""Toy planar push task, scripted expert, and demonstration datasets.

A point agent pushes a block to a target inside the unit square.  The
episode advances through five named stages -- approach, align, push,
reach, complete -- each a deterministic function of the geometry, so an
oracle can label the stage at any time without a classifier.  All
dynamics are deterministic given the action sequence; randomness enters
only through the seeded initial placement and optional action noise.

``env_step`` (one state) and ``step_batch`` (rows) are one transition:
each returns the next state and whether the block is at its target, and
the episode loops count steps against MAX_STEPS.  Noise-free demos are
collected in lockstep through the batched expert and transition; noisy
ones one episode at a time, so the shared generator draws their noise in
episode order.  The bytes equal the episode-by-episode collector's.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
LOCKSTEP_BATCH = 256    # episodes per collection round (~3 MB of buffers)

STAGES = ("approach", "align", "push", "reach", "complete")
DEMO_MAGIC = b"DIFFDEM1"

TASK_DESCRIPTION = "Push the block across the plane into the target zone."


@dataclass(frozen=True)
class EnvState:
    agent: np.ndarray
    block: np.ndarray
    target: np.ndarray


def _norm(v: np.ndarray) -> float:
    """Length of a 1-d float64 vector: ``np.linalg.norm``'s own 1-d path
    (sqrt of the dot product), bit for bit, without its dispatch."""
    return math.sqrt(v.dot(v))


def _clip(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``np.clip`` bit for bit, signed zeros and NaN included, at about
    half its call overhead on the small vectors here.  The bound comes
    first so that a tie returns the bound, as ``np.clip`` does."""
    return np.minimum(hi, np.maximum(lo, v))


_QUARTER_TURN = np.array([-1.0, 1.0])  # (x, y)[::-1] * this = (-y, x)
_OVERLAP_PUSH = np.array([1.0, 0.0])   # push direction at full overlap


def _norms(v: np.ndarray) -> np.ndarray:
    """Row lengths of an (n, 2) array, each equal to ``_norm`` of the row
    bit for bit (``vecdot`` takes the same dot product per row)."""
    return np.sqrt(np.vecdot(v, v))


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


def env_step(st: EnvState, action: np.ndarray) -> tuple[EnvState, bool]:
    """Advance one control step.

    The agent moves by STEP_SIZE * clip(action); if it ends up inside
    the contact radius the block is displaced outward along the
    agent-block line until the separation is exactly the contact radius
    (a rigid frictionless push).  Returns (state', reached): whether the
    block is at its target, as ``step_batch`` returns it per row.
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
    reached = _norm(block - st.target) <= TARGET_TOL
    return EnvState(agent=agent, block=block, target=st.target), reached


def step_batch(agent: np.ndarray, block: np.ndarray, target: np.ndarray,
               actions: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``env_step`` for (n, 2) rows: the next agent and block positions
    and whether each block is at its target.  Tests pin the two forms
    bit for bit; the rollout keeps the scalar one, since a batch of one
    would cost twice as much per control step."""
    a = _clip(actions, -1.0, 1.0)
    agent = _clip(agent + STEP_SIZE * a, 0.0, 1.0)
    d = _norms(block - agent)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        direction = np.where(d < 1e-9, _OVERLAP_PUSH, (block - agent) / d)
    pushed = _clip(agent + CONTACT_RADIUS * direction, 0.0, 1.0)
    block = np.where(d < CONTACT_RADIUS, pushed, block)
    return agent, block, _norms(block - target) <= TARGET_TOL


# -- scripted expert ---------------------------------------------------------


def expert_actions(agent: np.ndarray, block: np.ndarray,
                   target: np.ndarray) -> np.ndarray:
    """Deterministic proportional controller for (n, 2) rows of states;
    row i is a pure function of (agent[i], block[i], target[i]).

    Far from the block it walks to a staging point behind the block
    (detouring sideways rather than bumping the block off line); once
    roughly behind it chases a waypoint just inside the contact radius,
    which both pushes the block toward the target and continuously
    steers the agent back onto the push line, slowing inside the reach
    radius for the final placement.  A block at its target gets the
    zero action.  Every branch is evaluated for every row and the
    row's own branch is selected.
    """
    to_target = target - block
    d_bt = _norms(to_target)[:, None]
    u = to_target / np.maximum(d_bt, 1e-12)
    to_block = block - agent
    d_ab = _norms(to_block)[:, None]
    v = to_block / np.maximum(d_ab, 1e-12)
    # roughly behind the block (or on it): chase the pushing waypoint,
    # inside contact; otherwise head for the staging waypoint, outside
    pushing = (d_ab <= 0.12) \
        & ((d_ab <= 1e-12) | (np.vecdot(v, u)[:, None] >= 0.75))
    behind = block - 0.09 * u
    waypoint = np.where(pushing, block - 0.035 * u, behind)
    gain = np.where(pushing & (d_bt <= REACH_RADIUS), 0.5, 1.0)
    toward = _clip(gain * (waypoint - agent) / STEP_SIZE, -1.0, 1.0)

    # close on the wrong side: slide around the block instead of bumping
    # it off line, in the orbit direction that progresses toward the
    # staging point; near the symmetric (antipodal) case keep a fixed
    # chirality so the choice cannot alternate between steps
    to_stage = behind - agent
    tangent = v[:, ::-1] * _QUARTER_TURN
    score = np.vecdot(tangent, to_stage)[:, None] \
        / np.maximum(_norms(to_stage)[:, None], 1e-12)
    tangent = np.where(score < -0.3, -tangent, tangent)
    direction = tangent - 0.25 * v  # tangent dominates: progress
    with np.errstate(invalid="ignore"):  # 0/0 only on rows not orbiting
        orbit = direction / _norms(direction)[:, None]

    act = np.where(~pushing & (d_ab < 0.085), orbit, toward)
    return np.where(d_bt <= TARGET_TOL, 0.0, act)


def scripted_expert(st: EnvState) -> np.ndarray:
    """The expert's action for one state: a batch of one."""
    return expert_actions(st.agent[None], st.block[None], st.target[None])[0]


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


def collect_episodes(seeds: range, noise_level: float,
                     rng: np.random.Generator
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Roll the scripted expert from every seeded start in lockstep; an
    episode leaves the batch when it ends.  Returns lengths (k,), success
    flags (k,), observations (k, MAX_STEPS + 1, D_O) and actions
    (k, MAX_STEPS, D_A); rows past an episode's length are unwritten.
    With noise, the episodes' draws interleave step by step.
    """
    k = len(seeds)
    obs = np.empty((k, MAX_STEPS + 1, D_O))
    acts = np.empty((k, MAX_STEPS, D_A))
    obs[:, 0] = [observe(reset_env(s)) for s in seeds]
    agent, block, target = obs[:, 0, 0:2], obs[:, 0, 2:4], obs[:, 0, 4:6]
    lengths = np.zeros(k, dtype=np.int64)
    success = np.zeros(k, dtype=bool)
    rows = np.arange(k)
    for t in range(1, MAX_STEPS + 1):
        a = expert_actions(agent, block, target)
        if noise_level > 0.0:
            a = _clip(a + noise_level * rng.standard_normal(a.shape),
                      -1.0, 1.0)
        agent, block, reached = step_batch(agent, block, target, a)
        acts[rows, t - 1] = a
        obs[rows, t] = np.concatenate([agent, block, target], axis=1)
        done = reached | (t >= MAX_STEPS)
        if done.any():
            lengths[rows[done]] = t
            success[rows[done]] = reached[done]
            live = ~done
            rows, agent, block, target = \
                rows[live], agent[live], block[live], target[live]
            if not rows.size:
                break
    return lengths, success, obs, acts


def generate_demos(n: int, seed: int, noise_level: float = 0.0) -> DemoDataset:
    """Collect n successful expert episodes as overlapping windows.

    Seeds seed, seed + 1, ... are tried in rounds of at most
    LOCKSTEP_BATCH episodes (one episode per round with action noise,
    which keeps the generator's draw order); episodes that fail, or end
    before one full window fits, are skipped, so the result is the first
    n successes in seed order, within 20 n attempts.  Each episode of
    length L yields L - T_P + 1 windows pairing the observation at step
    t with actions t..t+T_P-1.
    """
    if n < 1:
        raise ValueError("need at least one demonstration")
    if noise_level < 0.0:
        raise ValueError("noise_level must be >= 0")
    rng = np.random.default_rng(seed)
    batch = 1 if noise_level > 0.0 else LOCKSTEP_BATCH
    trajectories: list[DemoTrajectory] = []
    next_seed, attempts_left = seed, 20 * n
    while len(trajectories) < n:
        k = min(n - len(trajectories), batch, attempts_left)
        if k == 0:
            raise RuntimeError("expert failed too often; check noise_level")
        seeds = range(next_seed, next_seed + k)
        next_seed += k
        attempts_left -= k
        lengths, success, obs, acts = collect_episodes(seeds, noise_level, rng)
        for i, env_seed in enumerate(seeds):
            length = int(lengths[i])
            if not success[i] or length < T_P:
                continue
            windows = sliding_window_view(acts[i, :length], (T_P, D_A))
            trajectories.append(DemoTrajectory(
                env_seed=env_seed, length=length,
                obs=obs[i, :length - T_P + 1].copy(),
                actions=windows[:, 0].copy()))
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
    """Read a ``save_demos`` file.  A malformed header or size, or a
    non-finite value, is a ``ValueError`` naming the path."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != DEMO_MAGIC:
        raise ValueError(f"{path}: not a demo dataset (bad magic)")
    off = 8 + 4 * 8
    if len(blob) < off:
        raise ValueError(f"{path}: truncated header")
    n_traj, d_o, d_a, t_p = struct.unpack_from("<4q", blob, 8)
    if (d_o, d_a, t_p) != (D_O, D_A, T_P):
        raise ValueError(f"{path}: dims {(d_o, d_a, t_p)} do not match "
                         f"{(D_O, D_A, T_P)}")
    if n_traj < 1:
        raise ValueError(f"{path}: {n_traj} trajectories")
    trajectories = []
    for i in range(n_traj):
        if len(blob) < off + 3 * 8:
            raise ValueError(f"{path}: trajectory {i}: truncated header")
        env_seed, length, n_w = struct.unpack_from("<3q", blob, off)
        off += 3 * 8
        if n_w < 1 or n_w != length - t_p + 1:
            raise ValueError(f"{path}: trajectory {i}: {n_w} windows for "
                             f"length {length} (need length - {t_p} + 1 "
                             f">= 1)")
        if len(blob) < off + n_w * (d_o + t_p * d_a) * 8:
            raise ValueError(f"{path}: trajectory {i}: truncated payload")
        obs = np.frombuffer(blob, dtype="<f8", count=n_w * d_o, offset=off)
        off += n_w * d_o * 8
        acts = np.frombuffer(blob, dtype="<f8", count=n_w * t_p * d_a,
                             offset=off)
        off += n_w * t_p * d_a * 8
        for what, a in (("observation", obs), ("action", acts)):
            if not np.isfinite(a).all():
                raise ValueError(f"{path}: trajectory {i}: non-finite {what}")
        trajectories.append(DemoTrajectory(
            env_seed=env_seed, length=length,
            obs=obs.reshape(n_w, d_o).astype(np.float64),
            actions=acts.reshape(n_w, t_p, d_a).astype(np.float64)))
    if off != len(blob):
        raise ValueError(f"{path}: payload size mismatch")
    return DemoDataset(trajectories)
