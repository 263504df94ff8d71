"""Toy planar push task, scripted expert, and demonstration datasets.

A point agent pushes a block to a target inside the unit square.  The
episode advances through five named stages -- approach, align, push,
reach, complete -- each a deterministic function of the geometry, so an
oracle can label the stage at any time without a classifier.  All
dynamics are deterministic given the action sequence; randomness enters
only through the seeded initial placement and optional action noise.

``env_step`` (one state) and ``step_batch`` (rows) are one transition:
each returns the next state and whether the block is at its target, and
the episode loops count steps against MAX_STEPS.  Demos are collected
in lockstep through the batched expert and transition, and each episode
draws its action noise from its own generator, so the bytes equal the
episode-by-episode collector's.
A dataset stores each executed action once and cuts its overlapping
windows by index, and its file holds the same arrays.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterable, Sequence
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
LOCKSTEP_BATCH = 256    # episodes per collection round (3-4 MB of buffers)
_HORIZON = np.arange(T_P)

STAGES = ("approach", "align", "push", "reach", "complete")
DEMO_MAGIC = b"DIFFDEM2"

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


# Placement ranges, in the order one attempt draws them: target, block,
# agent.  ``lo + span * u`` is numpy's ``uniform(lo, hi)`` bit for bit.
_PLACE_LO = np.array([0.55, 0.55, 0.15, 0.15, 0.05, 0.05])
_PLACE_SPAN = np.array([0.92, 0.92, 0.55, 0.55, 0.95, 0.95]) - _PLACE_LO
_PLACE_BLOCK = 8        # attempts per draw; 1.3 are needed on average
_PLACE_ATTEMPTS = 1000  # per seed, before giving up
_DRAWN_TO_OBS = np.array([4, 5, 2, 3, 0, 1])  # (target, block, agent) -> obs
# a valid attempt's block-target, agent-block and agent-target distances
_GAP_HEADS = np.array([2, 3, 4, 5, 4, 5])
_GAP_TAILS = np.array([0, 1, 2, 3, 0, 1])
_GAP_MIN = np.array([0.25, APPROACH_RADIUS + 0.03, 0.1])
_GAP_MAX = np.array([0.8, np.inf, np.inf])


def initial_observations(seeds: Iterable[int]) -> np.ndarray:
    """Seeded initial placements as (len(seeds), D_O) observations: block
    between agent and a far target, with enough separation that every
    stage is exercised.

    Each seed's own generator draws its attempts a block at a time, each
    attempt uniform target, block and agent positions, and the first
    valid attempt wins; a seed with no valid attempt among the first
    1000 is a RuntimeError.
    """
    seeds = list(seeds)
    rngs = [np.random.default_rng(s) for s in seeds]
    obs = np.empty((len(seeds), D_O))
    u = np.empty((len(seeds), _PLACE_BLOCK, 6))
    rows = np.arange(len(seeds))
    for _ in range(_PLACE_ATTEMPTS // _PLACE_BLOCK):
        for i in rows:
            rngs[i].random(out=u[i])
        x = _PLACE_LO + _PLACE_SPAN * u[rows]
        gaps = x[..., _GAP_HEADS] - x[..., _GAP_TAILS]
        d = _norms(gaps.reshape(rows.size, _PLACE_BLOCK, 3, 2))
        valid = ((_GAP_MIN <= d) & (d <= _GAP_MAX)).all(axis=-1)
        hit = valid.any(axis=1)
        obs[rows[hit]] = x[hit, valid[hit].argmax(axis=1)][:, _DRAWN_TO_OBS]
        rows = rows[~hit]
        if not rows.size:
            return obs
    raise RuntimeError(f"no valid initial placement for seed {seeds[rows[0]]}")


def reset_env(seed: int) -> EnvState:
    """The seeded initial placement of one episode: a batch of one."""
    o = initial_observations((seed,))[0]
    return EnvState(agent=o[0:2], block=o[2:4], target=o[4:6])


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


# -- demonstrations ----------------------------------------------------------


@dataclass(frozen=True)
class DemoTrajectory:
    """Read-only view of one demonstration's overlapping windows."""

    env_seed: int
    length: int
    obs: np.ndarray      # (n_windows, D_O) observation at each window start
    actions: np.ndarray  # (n_windows, T_P, D_A) executed action windows

    @property
    def n_windows(self) -> int:
        return self.obs.shape[0]


class DemoDataset:
    """Successful expert episodes, each executed action stored once.

    Trajectory i is the episode from env seed ``env_seeds[i]``.  Its
    ``lengths[i]`` actions are the rows of ``actions`` (sum of lengths,
    D_A) from ``step0[i]``, and the observations at its
    ``n_windows[i] = lengths[i] - T_P + 1`` window starts the rows of
    ``obs`` (sum of n_windows, D_O) from ``win0[i]``.  Window w pairs
    ``obs[win0[i] + w]`` with ``actions[step0[i] + w:][:T_P]``.
    """

    def __init__(self, env_seeds: Sequence[int], obs: Sequence[np.ndarray],
                 actions: Sequence[np.ndarray]):
        """Pack per-trajectory arrays: ``obs[i]`` (n, D_O) and
        ``actions[i]`` (n + T_P - 1, D_A) of the episode from env seed
        ``env_seeds[i]``.  ValueError, naming the trajectory and its env
        seed, unless each has n >= 1 windows and these shapes."""
        if not len(env_seeds) == len(obs) == len(actions):
            raise ValueError("need one obs and one actions array per env seed")
        if not len(env_seeds):
            raise ValueError("dataset has no trajectories")
        for i, (seed, o, a) in enumerate(zip(env_seeds, obs, actions)):
            so, sa = np.shape(o), np.shape(a)
            n = so[0] if so else 0
            if n < 1 or so != (n, D_O) or sa != (n + T_P - 1, D_A):
                raise ValueError(
                    f"trajectory {i} (env seed {seed}): obs {so} and actions "
                    f"{sa} must be (n, {D_O}) and (n + {T_P - 1}, {D_A}) "
                    f"with n >= 1 windows")
        self.env_seeds = np.array(env_seeds, dtype=np.int64)
        self.lengths = np.array([len(a) for a in actions], dtype=np.int64)
        self.n_windows = self.lengths - (T_P - 1)
        self.step0 = np.cumsum(self.lengths) - self.lengths
        self.win0 = np.cumsum(self.n_windows) - self.n_windows
        self.obs = np.concatenate(obs, dtype=np.float64)
        self.actions = np.concatenate(actions, dtype=np.float64)

    @property
    def n_traj(self) -> int:
        return self.env_seeds.size

    def window_rows(self, idxs: np.ndarray,
                    wis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where window wis[e] of trajectory idxs[e] lies, for every e:
        its (B, T_P) rows of ``actions`` and (B,) rows of ``obs``."""
        start = self.step0[idxs] + wis
        return start[:, None] + _HORIZON, self.win0[idxs] + wis

    @property
    def trajectories(self) -> tuple[DemoTrajectory, ...]:
        """Every trajectory's windows as read-only views of the packed
        arrays, built anew on each access."""
        obs = self.obs.view()
        obs.flags.writeable = False
        windows = sliding_window_view(self.actions, (T_P, D_A))[:, 0]
        return tuple(
            DemoTrajectory(env_seed=int(seed), length=int(length),
                           obs=obs[w0:w0 + n], actions=windows[s0:s0 + n])
            for seed, length, n, w0, s0 in zip(
                self.env_seeds, self.lengths, self.n_windows, self.win0,
                self.step0))


def collect_episodes(seeds: range, noise_level: float
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Roll the scripted expert from every seeded start in lockstep; an
    episode leaves the batch when it ends.  Returns lengths (k,), success
    flags (k,), observations (k, MAX_STEPS + 1, D_O) and actions
    (k, MAX_STEPS, D_A); rows past an episode's length are unwritten.

    With noise, step t's action is clip(expert + noise_level * z_t), where
    z_1, z_2, ... are standard normal pairs from the episode's own
    generator, keyed by its env seed under spawn key (1,) so that it
    shares no stream with the placement's ``default_rng(env_seed)``.  An
    episode thus depends only on its env seed and the noise level.
    """
    k = len(seeds)
    obs = np.empty((k, MAX_STEPS + 1, D_O))
    acts = np.empty((k, MAX_STEPS, D_A))
    if noise_level > 0.0:
        noise = np.empty((k, MAX_STEPS, D_A))
        for i, s in enumerate(seeds):
            stream = np.random.SeedSequence(s, spawn_key=(1,))
            np.random.default_rng(stream).standard_normal(out=noise[i])
        with np.errstate(over="ignore"):  # an infinite term clips to +-1
            noise *= noise_level
    obs[:, 0] = initial_observations(seeds)
    agent, block, target = obs[:, 0, 0:2], obs[:, 0, 2:4], obs[:, 0, 4:6]
    lengths = np.zeros(k, dtype=np.int64)
    success = np.zeros(k, dtype=bool)
    rows = np.arange(k)
    for t in range(1, MAX_STEPS + 1):
        a = expert_actions(agent, block, target)
        if noise_level > 0.0:
            a = _clip(a + noise[rows, t - 1], -1.0, 1.0)
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
    """Collect n successful expert episodes.

    Seeds seed, seed + 1, ... are tried in rounds of at most
    LOCKSTEP_BATCH episodes; episodes that fail, or end before one full
    window fits, are skipped, so the result is the first n successes in
    seed order, within 20 n attempts.  An episode of length L has
    L - T_P + 1 windows, pairing the observation at step t with actions
    t..t+T_P-1.
    """
    if n < 1:
        raise ValueError("need at least one demonstration")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not (math.isfinite(noise_level) and noise_level >= 0.0):
        raise ValueError(f"noise_level must be finite and >= 0, "
                         f"got {noise_level!r}")
    env_seeds: list[int] = []
    obs: list[np.ndarray] = []
    actions: list[np.ndarray] = []
    next_seed, attempts_left = seed, 20 * n
    while len(env_seeds) < n:
        k = min(n - len(env_seeds), LOCKSTEP_BATCH, attempts_left)
        if k == 0:
            raise RuntimeError("expert failed too often; check noise_level")
        seeds = range(next_seed, next_seed + k)
        if seeds[-1] >= 2 ** 63:  # datasets and files hold int64 seeds
            raise ValueError(f"env seed {seeds[-1]} is outside int64")
        next_seed += k
        attempts_left -= k
        lengths, success, ob, acts = collect_episodes(seeds, noise_level)
        for i in np.flatnonzero(success & (lengths >= T_P)):
            env_seeds.append(seeds[i])
            obs.append(ob[i, :lengths[i] - T_P + 1])
            actions.append(acts[i, :lengths[i]])
    return DemoDataset(env_seeds, obs, actions)


def save_demos(path: str, ds: DemoDataset) -> None:
    """Magic, little-endian int64 (n_traj, D_O, D_A, T_P), the n_traj
    int64 env seeds, the n_traj int64 lengths, then the dataset's float64
    ``obs`` and ``actions``, row-major."""
    with open(path, "wb") as f:
        f.write(DEMO_MAGIC + struct.pack("<4q", ds.n_traj, D_O, D_A, T_P))
        f.write(np.stack([ds.env_seeds, ds.lengths]).astype("<i8").tobytes())
        for a in (ds.obs, ds.actions):
            f.write(a.astype("<f8").tobytes())


def load_demos(path: str) -> DemoDataset:
    """Read a ``save_demos`` file.  A malformed header or size, a length
    below one window, a non-finite value, or a file in the older
    ``DIFFDEM1`` format is a ``ValueError`` naming the path."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] == b"DIFFDEM1":
        raise ValueError(f"{path}: DIFFDEM1 demo file predates the packed "
                         "layout; write it again with gen-data")
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
    if len(blob) < off + 2 * 8 * n_traj:
        raise ValueError(f"{path}: truncated header")
    env_seeds, lengths = np.frombuffer(blob, "<i8", 2 * n_traj, off) \
        .reshape(2, n_traj)
    off += 2 * 8 * n_traj
    short = np.flatnonzero(lengths < T_P)
    if short.size:
        i = short[0]
        raise ValueError(f"{path}: trajectory {i}: length {lengths[i]} is "
                         f"below one window of {T_P} steps")
    n_steps = sum(lengths.tolist())  # Python ints cannot overflow
    n_win = n_steps - n_traj * (T_P - 1)
    if len(blob) != off + 8 * (D_O * n_win + D_A * n_steps):
        raise ValueError(f"{path}: payload size mismatch")
    obs = np.frombuffer(blob, "<f8", D_O * n_win, off).reshape(n_win, D_O)
    actions = np.frombuffer(blob, "<f8", offset=off + obs.nbytes) \
        .reshape(n_steps, D_A)
    win_end, step_end = np.cumsum(lengths - (T_P - 1)), np.cumsum(lengths)
    for what, a, ends in (("observation", obs, win_end),
                          ("action", actions, step_end)):
        bad = np.flatnonzero(~np.isfinite(a).all(axis=1))
        if bad.size:
            i = np.searchsorted(ends, bad[0], side="right")
            raise ValueError(f"{path}: trajectory {i}: non-finite {what}")
    return DemoDataset(env_seeds, np.split(obs, win_end[:-1]),
                       np.split(actions, step_end[:-1]))
