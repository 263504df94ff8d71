"""Push world dynamics, stage labels, scripted expert, demo datasets."""

import hashlib
import struct

import numpy as np
import pytest

from diffpol import env
from diffpol.env import (
    APPROACH_RADIUS,
    CONTACT_RADIUS,
    D_A,
    D_O,
    MAX_STEPS,
    REACH_RADIUS,
    STAGES,
    STEP_SIZE,
    T_P,
    TARGET_TOL,
    DemoDataset,
    DemoTrajectory,
    _clip,
    _norm,
    EnvState,
    collect_episodes,
    env_step,
    expert_actions,
    generate_demos,
    load_demos,
    observe,
    reset_env,
    save_demos,
    stage_index,
    step_batch,
)

from helpers import expert_action


# sha256 of save_demos(generate_demos(20, seed=0, noise_level=0.1)).
# Every golden here holds the arrays first pinned in the window-per-row
# DIFFDEM1 format: the noise-free ones recorded with the episode-by-
# episode scalar collector that the lockstep one replaced, the noisy ones
# from reference_demos, which steps one episode at a time with each
# episode's own noise stream.  Each DIFFDEM1 file was loaded and its
# arrays packed into the DIFFDEM2 layout by hand to give these hashes.
DEMO_GOLDEN = "e9bdf42ee65147f8ce1cbf85e5c048834fc6580791a084a7a31d43aa72ee2858"

# sha256 of save_demos(generate_demos(*args)), derived as above;
# (250, 0, 0.0) is the dataset test_07 and the benchmark train on
DEMO_GOLDENS = {
    (250, 0, 0.0): "b6020802c4a4012ced6cae58e8276a0a53fe5d4a6b3b12880a859b6697dee330",
    (250, 1, 0.0): "bc32d71256d50f155e82f26019607bcc5e45d15f87c33dd9af6f3e4fb230107e",
    (250, 7, 0.0): "b4f63b754f9daab13fe6bc7f74222348fb3b1c1f0e706b9636c7b19979489591",
    (3, 2, 0.0): "62321e61a2bb4ed6d0b6cc21f402937e00caaabfacff01b2648996d27eaa08df",
    (2, 3, 0.05): "04fcefe8ee94d37cb5411055c4c635fb39daabefb3a717d0f6fe7e9211e63688",
    (50, 9, 0.02): "3d7fb715fe75e500a34ac3fcc0d68f37451cf23f6064b5af69bba3127b1186fb",
}


def replay_episode(env_seed, actions):
    """Open-loop replay of recorded actions from the seeded start:
    whether the block reaches the target within the step limit."""
    st = reset_env(env_seed)
    for a in actions[:env.MAX_STEPS]:
        st, reached = env_step(st, a)
        if reached:
            return True
    return False


def reference_reset(seed):
    """The seeded placement as three uniform draws per attempt, one
    attempt at a time: the reference the batched rule must equal bit
    for bit."""
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        target = rng.uniform(0.55, 0.92, size=2)
        block = rng.uniform(0.15, 0.55, size=2)
        agent = rng.uniform(0.05, 0.95, size=2)
        if 0.25 <= _norm(block - target) <= 0.8 \
                and _norm(agent - block) >= APPROACH_RADIUS + 0.03 \
                and _norm(agent - target) >= 0.1:
            return EnvState(agent=agent, block=block, target=target)
    raise AssertionError(f"no placement for seed {seed}")


def make_state(agent, block, target):
    return EnvState(agent=np.array(agent, dtype=float),
                    block=np.array(block, dtype=float),
                    target=np.array(target, dtype=float))


class TestEnvBasics:
    def test_reset_deterministic(self):
        a, b = reset_env(42), reset_env(42)
        np.testing.assert_array_equal(a.agent, b.agent)
        np.testing.assert_array_equal(a.block, b.block)
        np.testing.assert_array_equal(a.target, b.target)

    def test_reset_separations(self):
        for seed in range(50):
            st = reset_env(seed)
            assert np.linalg.norm(st.agent - st.block) >= APPROACH_RADIUS
            assert np.linalg.norm(st.block - st.target) >= 0.25
            assert STAGES[stage_index(st)] == "approach"

    @pytest.mark.parametrize("block", [1, 2, 8])
    def test_placement_matches_three_uniform_draws(self, monkeypatch, block):
        """Each attempt's positions equal numpy's uniform draws of target,
        block and agent, the first valid attempt wins, and blocks of
        attempts continue one generator's stream."""
        monkeypatch.setattr(env, "_PLACE_BLOCK", block)
        seeds = range(300)
        want = np.array([observe(reference_reset(s)) for s in seeds])
        assert env.initial_observations(seeds).tobytes() == want.tobytes()
        for s in (0, 17, 299):
            assert observe(reset_env(s)).tobytes() == want[s].tobytes()

    def test_placement_gives_up_after_a_thousand_attempts(self, monkeypatch):
        monkeypatch.setattr(env, "_GAP_MIN", np.full(3, 2.0))  # unreachable
        with pytest.raises(RuntimeError,
                           match="no valid initial placement for seed 5"):
            env.initial_observations([5, 6])

    def test_observation_layout(self):
        st = make_state([0.1, 0.2], [0.3, 0.4], [0.5, 0.6])
        np.testing.assert_array_equal(observe(st),
                                      [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        assert observe(st).shape == (D_O,)

    def test_step_moves_agent(self):
        st = make_state([0.5, 0.5], [0.9, 0.9], [0.2, 0.2])
        nxt, reached = env_step(st, np.array([1.0, -0.5]))
        np.testing.assert_allclose(nxt.agent,
                                   [0.5 + STEP_SIZE, 0.5 - 0.5 * STEP_SIZE])
        np.testing.assert_array_equal(nxt.block, st.block)
        assert reached is False

    def test_action_clipped(self):
        st = make_state([0.5, 0.5], [0.9, 0.9], [0.2, 0.2])
        big, _ = env_step(st, np.array([10.0, 0.0]))
        one, _ = env_step(st, np.array([1.0, 0.0]))
        np.testing.assert_array_equal(big.agent, one.agent)

    def test_push_resolution(self):
        # agent stepping into the block shoves it out to exact contact
        st = make_state([0.456, 0.5], [0.5, 0.5], [0.9, 0.5])
        nxt, _ = env_step(st, np.array([1.0, 0.0]))
        d = np.linalg.norm(nxt.block - nxt.agent)
        assert abs(d - CONTACT_RADIUS) < 1e-12
        assert nxt.block[0] > 0.5  # pushed along the contact line

    def test_no_pull(self):
        st = make_state([0.44, 0.5], [0.5, 0.5], [0.9, 0.5])
        nxt, _ = env_step(st, np.array([-1.0, 0.0]))
        np.testing.assert_array_equal(nxt.block, st.block)

    def test_reached_only_at_the_target(self):
        # the step limit belongs to the episode loops (see test_rollout)
        st = make_state([0.1, 0.1], [0.5, 0.5], [0.5, 0.52])
        assert env_step(st, np.zeros(2))[1] is True  # within tolerance
        st2 = make_state([0.1, 0.1], [0.5, 0.5], [0.9, 0.9])
        for _ in range(MAX_STEPS + 1):
            st2, reached = env_step(st2, np.zeros(2))
            assert reached is False

    def test_rejects_bad_action_shape(self):
        st = reset_env(0)
        with pytest.raises(ValueError):
            env_step(st, np.zeros(3))


def random_vectors(seed, n=10_000):
    """2-vectors over magnitudes from subnormal to overflowing squares,
    with signed zeros, infinities and NaN among them."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 2)) * 10.0 ** rng.uniform(-320, 300, (n, 1))
    v[:8] = [[0.0, -0.0], [-0.0, -0.0], [1.0, -1.0], [np.nan, 0.5],
             [np.inf, -np.inf], [5e-324, -5e-324], [1e154, 1e154],
             [-1e-160, 1e-160]]
    return v


class TestVectorHelpers:
    def test_norm_matches_numpy_bit_for_bit(self):
        with np.errstate(over="ignore", invalid="ignore"):
            for v in random_vectors(0):
                want = np.linalg.norm(v)
                assert np.float64(_norm(v)).tobytes() == want.tobytes(), v

    @pytest.mark.parametrize("lo,hi", [(-1.0, 1.0), (0.0, 1.0)])
    def test_clip_matches_numpy_bit_for_bit(self, lo, hi):
        vs = random_vectors(1)
        vs[8:4000] = np.round(vs[8:4000], 1)  # many ties with the bounds
        for v in vs:
            assert _clip(v, lo, hi).tobytes() == np.clip(v, lo, hi).tobytes()


class TestStages:
    def test_all_five_reachable(self):
        target = [0.9, 0.5]
        cases = {
            "approach": make_state([0.1, 0.5], [0.5, 0.5], target),
            "align": make_state([0.5, 0.6], [0.5, 0.5], target),
            "push": make_state([0.44, 0.5], [0.5, 0.5], target),
            "reach": make_state([0.1, 0.1], [0.82, 0.5], target),
            "complete": make_state([0.1, 0.1], [0.88, 0.5], target),
        }
        for name, st in cases.items():
            assert STAGES[stage_index(st)] == name

    def test_precedence_block_position_wins(self):
        # agent in perfect pushing position but block already at target
        st = make_state([0.84, 0.5], [0.88, 0.5], [0.9, 0.5])
        assert STAGES[stage_index(st)] == "complete"

    def test_stage_names(self):
        assert STAGES == ("approach", "align", "push", "reach", "complete")


class TestScriptedExpert:
    def test_pure_function(self):
        st = reset_env(7)
        np.testing.assert_array_equal(expert_action(st), expert_action(st))

    def test_bounded_actions(self):
        lengths, _, _, acts = collect_episodes(range(20), 0.0)
        for length, a in zip(lengths, acts):
            assert np.all(np.abs(a[:length]) <= 1.0 + 1e-12)

    def test_full_success_within_budget(self):
        lengths, ok, _, _ = collect_episodes(range(100), 0.0)
        for seed in range(100):
            assert ok[seed], f"expert failed on seed {seed}"
            assert lengths[seed] < MAX_STEPS

    def test_visits_every_stage(self):
        rng = np.random.default_rng(0)
        hit = set()
        for seed in range(30):
            st = reset_env(seed)
            hit.add(stage_index(st))
            for _ in range(MAX_STEPS):
                st, reached = env_step(st, expert_action(st))
                hit.add(stage_index(st))
                if reached:
                    break
        assert hit == {0, 1, 2, 3, 4}

    def test_zero_action_when_complete(self):
        st = make_state([0.1, 0.1], [0.88, 0.5], [0.9, 0.5])
        np.testing.assert_array_equal(expert_action(st), np.zeros(2))


class TestBatchedForms:
    """The lockstep collector's batched expert and transition against
    the per-state forms the rollout uses."""

    @staticmethod
    def assert_steps_match(agent, block, target, actions):
        nxt_agent, nxt_block, reached = step_batch(agent, block, target,
                                                   actions)
        for i in range(len(agent)):
            st = EnvState(agent=agent[i], block=block[i], target=target[i])
            nxt, one_reached = env_step(st, actions[i])
            assert nxt_agent[i].tobytes() == nxt.agent.tobytes(), i
            assert nxt_block[i].tobytes() == nxt.block.tobytes(), i
            assert reached[i] == one_reached, i

    def test_transition_matches_env_step_on_random_states(self):
        rng = np.random.default_rng(0)
        n = 4000
        agent = rng.uniform(0.0, 1.0, (n, 2))
        # half the blocks within reach of one step, so most of those push
        near = rng.standard_normal((n, 2)) * 0.04
        block = np.where(np.arange(n)[:, None] % 2 == 0, agent + near,
                         rng.uniform(0.0, 1.0, (n, 2)))
        block = np.clip(block, 0.0, 1.0)
        target = np.where(np.arange(n)[:, None] % 3 == 0,
                          block + rng.standard_normal((n, 2)) * 0.03,
                          rng.uniform(0.0, 1.0, (n, 2)))
        actions = rng.uniform(-1.5, 1.5, (n, 2))
        self.assert_steps_match(agent, block, target, actions)

    def test_transition_matches_env_step_on_boundaries(self):
        tol_up = np.nextafter(TARGET_TOL, 1.0)
        cases = [  # agent, block, target, action
            ([0.5, 0.5], [0.5, 0.5], [0.9, 0.9], [0.0, 0.0]),  # overlap
            ([0.5, 0.5], [0.5 + 1e-10, 0.5], [0.9, 0.9], [0.0, 0.0]),
            ([0.48, 0.5], [0.5, 0.5 - 3e-10], [0.9, 0.9], [1.0, 0.0]),
            ([0.0, 0.5], [CONTACT_RADIUS, 0.5], [0.9, 0.9], [0.0, 0.0]),
            ([0.02, 0.5], [CONTACT_RADIUS, 0.5], [0.9, 0.9], [-1.0, 0.0]),
            ([0.99, 0.99], [0.2, 0.2], [0.5, 0.5], [1.0, 1.0]),  # walls
            ([0.01, 0.01], [0.8, 0.8], [0.5, 0.5], [-3.0, -1.0]),
            ([0.96, 0.5], [0.99, 0.5], [0.5, 0.5], [1.0, 0.0]),
            ([0.5, 0.04], [0.5, 0.01], [0.5, 0.5], [0.0, -1.0]),
            ([0.5, 0.5], [0.0, 0.5], [TARGET_TOL, 0.5], [0.0, 0.0]),
            ([0.5, 0.5], [0.0, 0.5], [tol_up, 0.5], [0.0, 0.0]),
        ]
        agent, block, target, actions = (np.array(c, dtype=float)
                                         for c in zip(*cases))
        assert _norm(block[3] - agent[3]) == CONTACT_RADIUS
        assert _norm(block[4] - (agent[4] - [STEP_SIZE, 0.0])) \
            == CONTACT_RADIUS
        assert _norm(block[9] - target[9]) == TARGET_TOL
        nxt_agent, nxt_block, reached = step_batch(agent, block, target,
                                                   actions)
        assert nxt_block[0].tolist() == [0.5 + CONTACT_RADIUS, 0.5]
        assert (nxt_block[3] == block[3]).all()  # contact: no push
        assert nxt_agent[5].tolist() == [1.0, 1.0]
        assert nxt_block[7][0] == 1.0
        assert nxt_block[8][1] == 0.0
        assert reached[9] and not reached[10]
        self.assert_steps_match(agent, block, target, actions)

    def test_expert_rows_match_the_per_state_rules(self):
        lengths, _, obs, _ = collect_episodes(range(100), 0.0)
        states = np.concatenate([o[:length + 1]
                                 for o, length in zip(obs, lengths)])
        # agent on the block, exactly and within 1e-12
        on_block = states[::50].copy()
        on_block[:, 0:2] = on_block[:, 2:4]
        on_block[1::2, 0] += 1e-13
        states = np.concatenate([states, on_block])
        acts = expert_actions(states[:, 0:2], states[:, 2:4], states[:, 4:6])
        branches = set()
        for s, a in zip(states, acts):
            st = EnvState(agent=s[0:2], block=s[2:4], target=s[4:6])
            branch, want = reference_expert(st)
            assert a.tobytes() == want.tobytes(), (branch, s)
            assert a.tobytes() == expert_action(st).tobytes(), s
            branches.add(branch)
        assert branches == {"complete", "on block", "push", "orbit",
                            "orbit flipped", "stage"}

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_an_episode_depends_only_on_its_seed(self, noise, monkeypatch):
        """Each episode's rows are the same collected among 30, alone,
        or in generate_demos' rounds of 7."""
        lengths, ok, obs, acts = collect_episodes(range(0, 30), noise)
        for s in range(30):
            one = collect_episodes(range(s, s + 1), noise)
            assert (one[0][0], one[1][0]) == (lengths[s], ok[s])
            assert one[2][0, :lengths[s] + 1].tobytes() == \
                obs[s, :lengths[s] + 1].tobytes()
            assert one[3][0, :lengths[s]].tobytes() == \
                acts[s, :lengths[s]].tobytes()
        kept = np.flatnonzero(ok & (lengths >= T_P))
        monkeypatch.setattr(env, "LOCKSTEP_BATCH", 7)
        ds = generate_demos(kept.size, seed=0, noise_level=noise)
        assert ds.env_seeds.tolist() == kept.tolist()
        for i, s in enumerate(kept):
            n = ds.n_windows[i]
            assert ds.obs[ds.win0[i]:][:n].tobytes() == obs[s, :n].tobytes()
            assert ds.actions[ds.step0[i]:][:lengths[s]].tobytes() == \
                acts[s, :lengths[s]].tobytes()

    def test_collector_matches_stepping_one_state_at_a_time(self):
        for noise, seeds in [(0.0, range(30)), (0.1, range(30)),
                             (0.05, range(100, 130))]:
            lengths, ok, obs, acts = collect_episodes(seeds, noise)
            for i, seed in enumerate(seeds):
                reached, want_obs, want_acts = step_expert(seed, noise)
                length = len(want_acts)
                assert (lengths[i], ok[i]) == (length, reached)
                assert obs[i, :length + 1].tobytes() == want_obs.tobytes()
                assert acts[i, :length].tobytes() == want_acts.tobytes()


def step_expert(seed, noise=0.0):
    """One expert episode through the per-state expert and env_step, to
    the target or the step limit: whether it reached the target, the
    observations and the executed actions.  With noise, each step adds
    noise times a standard normal pair drawn from the episode's own
    generator, keyed by its seed under spawn key (1,)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    st = reset_env(seed)
    obs, acts, reached = [observe(st)], [], False
    while not reached and len(acts) < env.MAX_STEPS:
        a = expert_action(st)
        if noise:
            a = _clip(a + noise * rng.standard_normal(D_A), -1.0, 1.0)
        st, reached = env_step(st, a)
        obs.append(observe(st))
        acts.append(a)
    return reached, np.array(obs), np.array(acts)


def reference_demos(n, seed, noise):
    """generate_demos one episode at a time through step_expert: the
    first n successes of at least one window, in seed order, within
    20 n attempts."""
    env_seeds, obs, actions = [], [], []
    for s in range(seed, seed + 20 * n):
        reached, ob, acts = step_expert(s, noise)
        if reached and len(acts) >= T_P:
            env_seeds.append(s)
            obs.append(ob[:len(acts) - T_P + 1])
            actions.append(acts)
            if len(env_seeds) == n:
                return DemoDataset(env_seeds, obs, actions)
    raise AssertionError(f"fewer than {n} successes")


def reference_expert(st):
    """The expert's rules for one state in scalar arithmetic, as the
    per-state expert computed them before the batched form replaced
    it: returns (branch name, action)."""
    if stage_index(st) == 4:
        return "complete", np.zeros(D_A)
    to_target = st.target - st.block
    d_bt = _norm(to_target)
    u = to_target / max(d_bt, 1e-12)
    to_block = st.block - st.agent
    d_ab = _norm(to_block)
    if d_ab <= 1e-12 or (d_ab <= 0.12
                         and float((to_block / d_ab) @ u) >= 0.75):
        gain = 0.5 if d_bt <= REACH_RADIUS else 1.0
        chase = st.block - 0.035 * u
        return ("on block" if d_ab <= 1e-12 else "push",
                _clip(gain * (chase - st.agent) / STEP_SIZE, -1.0, 1.0))
    behind = st.block - 0.09 * u
    if d_ab >= 0.085:
        return "stage", _clip((behind - st.agent) / STEP_SIZE, -1.0, 1.0)
    to_stage = behind - st.agent
    tangent = np.array([-to_block[1], to_block[0]]) / d_ab
    flipped = float(tangent @ to_stage) / max(_norm(to_stage), 1e-12) < -0.3
    if flipped:
        tangent = -tangent
    direction = tangent + 0.25 * (-to_block / d_ab)
    return ("orbit flipped" if flipped else "orbit",
            direction / _norm(direction))


class TestDemos:
    def test_counts_and_shapes(self):
        ds = generate_demos(3, seed=0)
        assert ds.n_traj == 3
        assert ds.actions.shape == (ds.lengths.sum(), D_A)
        assert ds.obs.shape == (ds.n_windows.sum(), D_O)
        for tr in ds.trajectories:
            assert tr.n_windows == tr.length - T_P + 1
            assert tr.obs.shape == (tr.n_windows, D_O)
            assert tr.actions.shape == (tr.n_windows, T_P, D_A)
            # views of the packed arrays, which windows overlap in
            assert not tr.obs.flags.writeable
            assert not tr.actions.flags.writeable

    def test_noise_free_windows_replay_to_success(self):
        ds = generate_demos(3, seed=2, noise_level=0.0)
        for tr in ds.trajectories:
            full = np.concatenate([tr.actions[0], tr.actions[1:, -1, :]])
            assert full.shape == (tr.length, D_A)
            assert replay_episode(tr.env_seed, full)

    def test_deterministic(self):
        a = generate_demos(2, seed=3, noise_level=0.05)
        b = generate_demos(2, seed=3, noise_level=0.05)
        for ta, tb in zip(a.trajectories, b.trajectories):
            np.testing.assert_array_equal(ta.actions, tb.actions)

    def test_bytes_match_golden(self, tmp_path):
        """Pins the expert, the dynamics and the action-noise draws."""
        p = tmp_path / "demos.bin"
        save_demos(str(p), generate_demos(20, seed=0, noise_level=0.1))
        assert hashlib.sha256(p.read_bytes()).hexdigest() == DEMO_GOLDEN

    @pytest.mark.parametrize("args", list(DEMO_GOLDENS))
    def test_bytes_match_scalar_collector(self, args, tmp_path):
        p = tmp_path / "demos.bin"
        save_demos(str(p), generate_demos(*args))
        assert hashlib.sha256(p.read_bytes()).hexdigest() == \
            DEMO_GOLDENS[args]

    @pytest.mark.parametrize("args", [(20, 0, 0.1), (2, 3, 0.05),
                                      (50, 9, 0.02)])
    def test_noisy_goldens_are_the_one_episode_collectors(self, args,
                                                          tmp_path):
        p = tmp_path / "demos.bin"
        save_demos(str(p), reference_demos(*args))
        want = DEMO_GOLDEN if args == (20, 0, 0.1) else DEMO_GOLDENS[args]
        assert hashlib.sha256(p.read_bytes()).hexdigest() == want

    def test_rounds_keep_the_first_successes_in_seed_order(self,
                                                           monkeypatch):
        # a short step limit fails about half the episodes, so the
        # collector needs several rounds of retries
        monkeypatch.setattr(env, "MAX_STEPS", 64)
        succeeded = [s for s in range(200) if step_expert(s)[0]]
        whole = generate_demos(30, seed=0)
        assert [t.env_seed for t in whole.trajectories] == succeeded[:30]
        monkeypatch.setattr(env, "LOCKSTEP_BATCH", 7)
        rounds = generate_demos(30, seed=0)
        assert [t.env_seed for t in rounds.trajectories] == succeeded[:30]
        for a, b in zip(whole.trajectories, rounds.trajectories):
            assert a.obs.tobytes() == b.obs.tobytes()
            assert a.actions.tobytes() == b.actions.tobytes()

    def test_gives_up_after_twenty_attempts_per_demo(self, monkeypatch):
        seeds = []
        real_place = env.initial_observations

        def counting_place(batch):
            seeds.extend(batch)
            return real_place(batch)

        monkeypatch.setattr(env, "initial_observations", counting_place)
        with pytest.raises(RuntimeError, match="failed too often"):
            generate_demos(2, seed=3, noise_level=50.0)
        assert seeds == list(range(3, 3 + 40))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generate_demos(0, seed=0)
        with pytest.raises(ValueError):
            generate_demos(1, seed=0, noise_level=-0.1)

    def test_env_seeds_past_int64_are_refused(self):
        with pytest.raises(ValueError, match=f"env seed {2 ** 63} is outside"):
            generate_demos(2, seed=2 ** 63 - 1)
        assert generate_demos(1, seed=2 ** 63 - 1).env_seeds.tolist() == \
            [2 ** 63 - 1]

    def test_bytes_match_independent_layout(self, tmp_path):
        ds = DemoDataset([3, 11], [np.full((1, D_O), 0.5),
                                   np.arange(2.0 * D_O).reshape(2, D_O)],
                         [np.linspace(-1, 1, T_P * D_A).reshape(T_P, D_A),
                          np.random.default_rng(0).normal(
                              size=(T_P + 1, D_A))])
        p = tmp_path / "d.bin"
        save_demos(str(p), ds)
        want = b"DIFFDEM2" + struct.pack("<4q", 2, D_O, D_A, T_P) \
            + struct.pack("<4q", 3, 11, T_P, T_P + 1)
        for a in (ds.obs, ds.actions):
            want += a.astype("<f8").tobytes()
        assert p.read_bytes() == want
        assert len(want) == 40 + 16 * 2 + 8 * (D_O * 3 + D_A * (2 * T_P + 1))

    def test_save_load_round_trip(self, tmp_path):
        ds = generate_demos(2, seed=4, noise_level=0.02)
        p = str(tmp_path / "demos.bin")
        save_demos(p, ds)
        back = load_demos(p)
        for name in ("env_seeds", "lengths", "step0", "win0", "obs",
                     "actions"):
            a, b = getattr(ds, name), getattr(back, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        save_demos(str(tmp_path / "again.bin"), back)
        assert (tmp_path / "demos.bin").read_bytes() == \
               (tmp_path / "again.bin").read_bytes()

    def test_load_rejects_corrupt(self, tmp_path):
        ds = generate_demos(1, seed=5)
        p = tmp_path / "d.bin"
        save_demos(str(p), ds)
        blob = p.read_bytes()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOTMAGIC" + blob[8:])
        with pytest.raises(ValueError):
            load_demos(str(bad))
        trunc = tmp_path / "trunc.bin"
        trunc.write_bytes(blob[:-8])
        with pytest.raises(ValueError):
            load_demos(str(trunc))

    @staticmethod
    def one_trajectory(length, payload_steps):
        """A one-trajectory file whose table records ``length`` and whose
        payload holds ``payload_steps`` steps' rows."""
        n_w = max(payload_steps - T_P + 1, 0)
        return b"DIFFDEM2" + struct.pack("<4q", 1, D_O, D_A, T_P) \
            + struct.pack("<2q", 0, length) \
            + bytes(8 * (D_O * n_w + D_A * payload_steps))

    @pytest.mark.parametrize("length", [5, T_P - 1, T_P - 2, -1])
    def test_load_rejects_a_length_below_one_window(self, tmp_path, length):
        p = tmp_path / "d.bin"
        p.write_bytes(self.one_trajectory(length, T_P))
        with pytest.raises(ValueError, match=f"{p}: trajectory 0: length "
                           f"{length} is below one window"):
            load_demos(str(p))

    @pytest.mark.parametrize("length,payload_steps", [
        (T_P + 3, T_P + 24),  # the payload of 25 windows, the length's 4
        (T_P + 3, T_P + 2),
        (2 ** 62, T_P),       # a size no int64 sum could hold
    ])
    def test_load_rejects_a_payload_size_mismatch(self, tmp_path, length,
                                                  payload_steps):
        p = tmp_path / "d.bin"
        p.write_bytes(self.one_trajectory(length, payload_steps))
        with pytest.raises(ValueError, match=f"{p}: payload size mismatch"):
            load_demos(str(p))

    def test_load_refuses_the_window_per_row_format(self, tmp_path):
        p = tmp_path / "d.bin"
        p.write_bytes(b"DIFFDEM1" + struct.pack("<4q", 1, D_O, D_A, T_P)
                      + struct.pack("<3q", 0, T_P, 1)
                      + bytes((D_O + T_P * D_A) * 8))
        with pytest.raises(ValueError, match=f"{p}: DIFFDEM1 .*gen-data"):
            load_demos(str(p))

    @pytest.mark.parametrize("keep", [13, 39, 40 + 23])
    def test_load_rejects_truncated_headers(self, tmp_path, keep):
        # 40 + 23 cuts the second of two lengths in the seed/length table
        p = tmp_path / "d.bin"
        save_demos(str(p), generate_demos(2, seed=5))
        p.write_bytes(p.read_bytes()[:keep])
        with pytest.raises(ValueError, match=f"{p}: truncated header"):
            load_demos(str(p))

    @pytest.mark.parametrize("what", ["observation", "action"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_load_rejects_non_finite_values(self, tmp_path, what, value):
        ds = generate_demos(2, seed=5)
        # window 3 of trajectory 1: its observation, or its first action
        if what == "observation":
            ds.obs[ds.win0[1] + 3, 1] = value
        else:
            ds.actions[ds.step0[1] + 3, 1] = value
        p = tmp_path / "d.bin"
        save_demos(str(p), ds)
        with pytest.raises(ValueError,
                           match=f"{p}: trajectory 1: non-finite {what}"):
            load_demos(str(p))

    def test_load_rejects_an_empty_dataset(self, tmp_path):
        p = tmp_path / "d.bin"
        p.write_bytes(b"DIFFDEM2" + struct.pack("<4q", 0, D_O, D_A, T_P))
        with pytest.raises(ValueError, match=f"{p}: 0 trajectories"):
            load_demos(str(p))
