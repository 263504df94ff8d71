"""The oracle classifier, the per-replan scheduler tick, and the
chat-completion client."""

import http.client
import json
import socket
import urllib.error

import numpy as np
import pytest
from helpers import zero_forward_fn

import diffpol.rollout
from diffpol.diffusion import make_noise_schedule
from diffpol.env import STAGES, T_P, policy_features, reset_env, stage_index
from diffpol.nets import init_params
from diffpol.rollout import hvts_schedule_table, rollout
from diffpol.scheduling import (
    ClassifierError,
    OracleStageClassifier,
    RemoteTimeout,
    RemoteTransportError,
    ResponseParseError,
    SchedulerState,
    complete_text,
    scheduler_tick,
)
from diffpol.stages import ScheduleEntry, ScheduleRanges, ScheduleTable, \
    StageBelief

SCHED = make_noise_schedule(100)


def push_table(pairs=None):
    if pairs is None:
        pairs = {"reach": (8, 40)}
    entries = tuple(
        ScheduleEntry(name=n, n_action_steps=pairs.get(n, (16, 20))[0],
                      num_inference_steps=pairs.get(n, (16, 20))[1])
        for n in STAGES)
    return ScheduleTable(entries=entries)


def horizon_table(na):
    """Every stage at horizon na; reach carries the (na, 40) precision
    budget, the rest (na, 20)."""
    entries = tuple(ScheduleEntry(n, na, 40 if n == "reach" else 20)
                    for n in STAGES)
    return ScheduleTable(entries=entries,
                         ranges=ScheduleRanges(na, na, 20, 40))


class CountingOracle:
    def __init__(self):
        self.calls = 0
        self.inner = OracleStageClassifier()

    def classify(self, state):
        self.calls += 1
        return self.inner.classify(state)


class ScriptedClassifier:
    """Replays a fixed sequence of one-hot beliefs."""

    def __init__(self, stage_sequence):
        self.seq = list(stage_sequence)
        self.calls = 0

    def classify(self, state):
        i = min(self.calls, len(self.seq) - 1)
        self.calls += 1
        item = self.seq[i]
        if isinstance(item, BaseException):
            raise item
        return StageBelief(((item, 1.0),))


def scheduled_rollout(st: SchedulerState, env_seed=0):
    """One cheap episode under st; every replan is counted."""
    d_feat = policy_features(np.zeros(6)).size
    params = init_params(0, d_o=d_feat, T_p=T_P, d_a=2, hidden=8,
                         embed_dim=4, T=SCHED.T)
    return rollout(params, SCHED, env_seed, st, "ddim", seed=0,
                   forward_fn=zero_forward_fn(SCHED))


def window_starts(r) -> list[int]:
    """Steps at which the rollout replanned."""
    return [step for step, _, _, _ in r.replans]


class TestOracleClassifier:
    def test_one_hot_on_true_stage(self):
        st = reset_env(3)
        b = OracleStageClassifier().classify(st)
        assert b.entries == ((stage_index(st), 1.0),)

    def test_rejects_non_states(self):
        with pytest.raises(ClassifierError):
            OracleStageClassifier().classify(None)
        with pytest.raises(ClassifierError):
            OracleStageClassifier().classify(np.zeros(6))


class TestSchedulerTick:
    def test_first_tick_classifies_and_returns_true_stage(self):
        oracle = CountingOracle()
        table = push_table()
        st = SchedulerState(table, oracle)
        env = reset_env(0)
        na, nd, st = scheduler_tick(st, env)
        assert oracle.calls == 1
        assert (na, nd) == table.entries[stage_index(env)].pair
        assert not st.degraded

    def test_cached_between_classifications(self):
        oracle = CountingOracle()
        r = scheduled_rollout(SchedulerState(horizon_table(8), oracle))
        # one classification per 8-step window, recorded at its start
        assert oracle.calls == len(r.replans) == -(-r.steps // 8)
        assert window_starts(r) == list(range(0, r.steps, 8))

    def test_call_count_bound_over_episode(self):
        oracle = CountingOracle()
        r = scheduled_rollout(SchedulerState(horizon_table(5), oracle), 1)
        assert oracle.calls <= int(np.ceil(r.steps / 5)) + 1

    def test_oracle_hvts_classifies_once_per_replan(self, monkeypatch):
        replans = {"n": 0}
        inner = diffpol.rollout.denoise_action_window

        def counting(*args, **kwargs):
            replans["n"] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(diffpol.rollout, "denoise_action_window",
                            counting)
        oracle = CountingOracle()
        r = scheduled_rollout(SchedulerState(hvts_schedule_table(), oracle))
        assert replans["n"] > 1
        assert oracle.calls == replans["n"] == len(window_starts(r))

    def test_dynamic_period_tracks_active_horizon(self):
        # stage 0 has horizon 16, stage 3 has horizon 8
        clf = ScriptedClassifier([0, 3])
        r = scheduled_rollout(SchedulerState(push_table(), clf))
        assert window_starts(r)[:5] == [0, 16, 24, 32, 40]
        assert clf.calls == len(window_starts(r))

    def test_long_horizon_reclassifies_at_each_replan(self):
        # a horizon of 20 > T_P executes 16 actions per window; the stage
        # change is picked up at the step-16 replan, not at step 20
        entries = tuple(ScheduleEntry(n, 8 if n == "reach" else 20,
                                      40 if n == "reach" else 20)
                        for n in STAGES)
        table = ScheduleTable(entries, ScheduleRanges(8, 20, 20, 40))
        clf = ScriptedClassifier([0, 3])
        r = scheduled_rollout(SchedulerState(table, clf))
        assert r.replans[:3] == ((0, 0, 20, 20), (16, 3, 8, 40),
                                 (24, 3, 8, 40))

    def test_one_hot_zero_gap_is_deterministic(self):
        script = [0, 0, 1, 2, 2, 3, 4]
        table = horizon_table(8)
        runs = []
        for seed in (0, 99):
            clf = ScriptedClassifier(script)
            st = SchedulerState(table, clf, gap=0.0,
                                rng=np.random.default_rng(seed))
            out = []
            for _ in range(len(script)):
                na, nd, st = scheduler_tick(st, None)
                out.append((na, nd))
            runs.append(out)
        assert runs[0] == runs[1]
        assert runs[0] == [table.entries[s].pair for s in script]

    def test_degraded_keeps_cached_stage(self):
        clf = ScriptedClassifier([2, ClassifierError("down"), 3])
        st = SchedulerState(horizon_table(4), clf)
        seen = []
        for _ in range(3):
            na, nd, st = scheduler_tick(st, None)
            seen.append((st.active, nd, st.degraded))
        # replan 1: stage 2; replan 2: failure, stage 2 kept, degraded;
        # replan 3: recovered to stage 3
        assert seen == [(2, 20, False), (2, 20, True), (3, 40, False)]
        assert clf.calls == 3

    def test_degraded_retried_once_per_replan(self):
        clf = ScriptedClassifier([2, ClassifierError("down")])
        r = scheduled_rollout(SchedulerState(horizon_table(8), clf))
        assert clf.calls == len(window_starts(r)) == -(-r.steps // 8)
        assert {t[1] for t in r.replans} == {2}

    def test_failure_on_first_tick_uses_initial_stage(self):
        clf = ScriptedClassifier([ClassifierError("down")])
        table = horizon_table(4)
        na, nd, st = scheduler_tick(SchedulerState(table, clf), None)
        assert (na, nd) == table.entries[0].pair
        assert st.degraded

    def test_close_race_explores_candidates(self):
        belief = StageBelief(((0, 0.4), (1, 0.35), (2, 0.25)))

        class Static:
            def classify(self, state):
                return belief

        st = SchedulerState(horizon_table(8), Static(), gap=0.2,
                            rng=np.random.default_rng(7))
        seen = set()
        for _ in range(200):
            na, nd, st = scheduler_tick(st, None)
            seen.add(st.active)
        assert seen == {0, 1, 2}

    def test_rejects_invalid_states(self):
        table = push_table()
        with pytest.raises(ValueError):
            SchedulerState(table, active=-1)
        with pytest.raises(ValueError):
            SchedulerState(table, active=len(STAGES))
        bad = ScriptedClassifier([7])  # outside the 5-entry table
        with pytest.raises(ValueError):
            scheduler_tick(SchedulerState(table, bad), None)


def completion(content) -> bytes:
    return json.dumps(
        {"choices": [{"message": {"content": content}}]}).encode()


class TestCompleteText:
    URL = "http://unit.test/v1/chat"

    def call(self, transport, timeout=10.0):
        return complete_text(self.URL, [{"type": "text", "text": "hi"}],
                             timeout, transport)

    def test_request_body_and_reply(self):
        captured = {}

        def transport(url, body, timeout):
            captured.update(url=url, body=json.loads(body), timeout=timeout)
            return completion("the reply")

        content = [{"type": "text", "text": "first"},
                   {"type": "text", "text": "second"}]
        assert complete_text(self.URL, content, 4.0, transport) == "the reply"
        assert captured["url"] == self.URL
        assert captured["timeout"] == 4.0
        assert captured["body"] == {
            "messages": [{"role": "user", "content": content}],
            "temperature": 0.1,
            "top_p": 0.7,
            "max_new_tokens": 1024,
        }

    def test_timeout_surfaces_as_timeout(self):
        def slow(url, body, timeout):
            raise socket.timeout("too slow")

        with pytest.raises(RemoteTimeout):
            self.call(slow)

        def slow_urllib(url, body, timeout):
            raise urllib.error.URLError(socket.timeout("too slow"))

        with pytest.raises(RemoteTimeout):
            self.call(slow_urllib)

    def test_network_failure_is_transport_error(self):
        def dead(url, body, timeout):
            raise urllib.error.URLError(ConnectionRefusedError())

        with pytest.raises(RemoteTransportError):
            self.call(dead)

        def truncated(url, body, timeout):  # urllib's short-body error
            raise http.client.IncompleteRead(b'{"ch', 96)

        with pytest.raises(RemoteTransportError):
            self.call(truncated)

    def test_garbage_reply_is_parse_error(self):
        for reply in (b"not json", b'{"unexpected": 1}', b'{"choices": []}'):
            with pytest.raises(ResponseParseError):
                self.call(lambda url, body, timeout, r=reply: r)

    def test_non_text_content_is_parse_error(self):
        for content in (None, 5, ["text"]):
            with pytest.raises(ResponseParseError):
                self.call(lambda url, body, timeout, c=content:
                          completion(c))

    def test_all_remote_errors_are_classifier_errors(self):
        for err in (RemoteTimeout, RemoteTransportError, ResponseParseError):
            assert issubclass(err, ClassifierError)
