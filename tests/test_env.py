"""Push world dynamics, stage labels, scripted expert, demo datasets."""

import numpy as np
import pytest

from diffpol.env import (
    APPROACH_RADIUS,
    CONTACT_RADIUS,
    D_A,
    D_O,
    MAX_STEPS,
    STAGES,
    STEP_SIZE,
    T_P,
    TARGET_TOL,
    DemoTrajectory,
    EnvState,
    env_step,
    generate_demos,
    is_success,
    load_demos,
    observe,
    reset_env,
    run_expert_episode,
    save_demos,
    scripted_expert,
    stage_index,
)


def replay_episode(env_seed, actions):
    """Open-loop replay of recorded actions from the seeded start."""
    st = reset_env(env_seed)
    for a in actions:
        st, _, done = env_step(st, a)
        if done:
            break
    return is_success(st)


def make_state(agent, block, target, t=0):
    return EnvState(agent=np.array(agent, dtype=float),
                    block=np.array(block, dtype=float),
                    target=np.array(target, dtype=float), t=t)


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

    def test_observation_layout(self):
        st = make_state([0.1, 0.2], [0.3, 0.4], [0.5, 0.6])
        np.testing.assert_array_equal(observe(st),
                                      [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        assert observe(st).shape == (D_O,)

    def test_step_moves_agent(self):
        st = make_state([0.5, 0.5], [0.9, 0.9], [0.2, 0.2])
        nxt, obs, done = env_step(st, np.array([1.0, -0.5]))
        np.testing.assert_allclose(nxt.agent,
                                   [0.5 + STEP_SIZE, 0.5 - 0.5 * STEP_SIZE])
        np.testing.assert_array_equal(nxt.block, st.block)
        assert not done and nxt.t == 1

    def test_action_clipped(self):
        st = make_state([0.5, 0.5], [0.9, 0.9], [0.2, 0.2])
        big, _, _ = env_step(st, np.array([10.0, 0.0]))
        one, _, _ = env_step(st, np.array([1.0, 0.0]))
        np.testing.assert_array_equal(big.agent, one.agent)

    def test_push_resolution(self):
        # agent stepping into the block shoves it out to exact contact
        st = make_state([0.456, 0.5], [0.5, 0.5], [0.9, 0.5])
        nxt, _, _ = env_step(st, np.array([1.0, 0.0]))
        d = np.linalg.norm(nxt.block - nxt.agent)
        assert abs(d - CONTACT_RADIUS) < 1e-12
        assert nxt.block[0] > 0.5  # pushed along the contact line

    def test_no_pull(self):
        st = make_state([0.44, 0.5], [0.5, 0.5], [0.9, 0.5])
        nxt, _, _ = env_step(st, np.array([-1.0, 0.0]))
        np.testing.assert_array_equal(nxt.block, st.block)

    def test_done_on_success_and_timeout(self):
        st = make_state([0.1, 0.1], [0.5, 0.5], [0.5, 0.52])
        _, _, done = env_step(st, np.zeros(2))
        assert done  # block already within tolerance
        st2 = make_state([0.1, 0.1], [0.5, 0.5], [0.9, 0.9], t=MAX_STEPS - 1)
        _, _, done2 = env_step(st2, np.zeros(2))
        assert done2

    def test_rejects_bad_action_shape(self):
        st = reset_env(0)
        with pytest.raises(ValueError):
            env_step(st, np.zeros(3))


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
        np.testing.assert_array_equal(scripted_expert(st), scripted_expert(st))

    def test_bounded_actions(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            _, acts, _, _ = run_expert_episode(seed, 0.0, rng)
            for a in acts:
                assert np.all(np.abs(a) <= 1.0 + 1e-12)

    def test_full_success_within_budget(self):
        rng = np.random.default_rng(0)
        for seed in range(100):
            _, _, ok, length = run_expert_episode(seed, 0.0, rng)
            assert ok, f"expert failed on seed {seed}"
            assert length < MAX_STEPS

    def test_visits_every_stage(self):
        rng = np.random.default_rng(0)
        hit = set()
        for seed in range(30):
            st = reset_env(seed)
            hit.add(stage_index(st))
            done = False
            while not done:
                st, _, done = env_step(st, scripted_expert(st))
                hit.add(stage_index(st))
        assert hit == {0, 1, 2, 3, 4}

    def test_zero_action_when_complete(self):
        st = make_state([0.1, 0.1], [0.88, 0.5], [0.9, 0.5])
        np.testing.assert_array_equal(scripted_expert(st), np.zeros(2))


class TestDemos:
    def test_counts_and_shapes(self):
        ds = generate_demos(3, seed=0)
        assert ds.n_traj == 3
        for tr in ds.trajectories:
            assert tr.n_windows == tr.length - T_P + 1
            assert tr.obs.shape == (tr.n_windows, D_O)
            assert tr.actions.shape == (tr.n_windows, T_P, D_A)

    def test_windows_overlap_consistently(self):
        ds = generate_demos(2, seed=1)
        tr = ds.trajectories[0]
        np.testing.assert_array_equal(tr.actions[0][1:], tr.actions[1][:-1])

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

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generate_demos(0, seed=0)
        with pytest.raises(ValueError):
            generate_demos(1, seed=0, noise_level=-0.1)

    def test_save_load_round_trip(self, tmp_path):
        ds = generate_demos(2, seed=4, noise_level=0.02)
        p = str(tmp_path / "demos.bin")
        save_demos(p, ds)
        back = load_demos(p)
        assert back.n_traj == ds.n_traj
        for ta, tb in zip(ds.trajectories, back.trajectories):
            assert (ta.env_seed, ta.length) == (tb.env_seed, tb.length)
            np.testing.assert_array_equal(ta.obs, tb.obs)
            np.testing.assert_array_equal(ta.actions, tb.actions)
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
