"""The oracle classifier, the periodic scheduler tick, and the
chat-completion client."""

import http.client
import json
import socket
import urllib.error

import numpy as np
import pytest

from diffpol.env import STAGES, env_step, reset_env, scripted_expert, \
    stage_index
from diffpol.scheduling import (
    ClassifierError,
    OracleStageClassifier,
    RemoteTimeout,
    RemoteTransportError,
    ResponseParseError,
    SchedulerState,
    complete_text,
    make_scheduler,
    scheduler_tick,
)
from diffpol.stages import ScheduleEntry, ScheduleRanges, ScheduleTable, \
    StageBelief


def push_table(pairs=None):
    if pairs is None:
        pairs = {"reach": (8, 40)}
    entries = tuple(
        ScheduleEntry(name=n, n_action_steps=pairs.get(n, (16, 20))[0],
                      num_inference_steps=pairs.get(n, (16, 20))[1])
        for n in STAGES)
    return ScheduleTable(entries=entries)


def horizon_table(na):
    """Every stage at horizon na, so the tick reclassifies every na
    steps; reach carries the (na, 40) precision budget, the rest (na, 20)."""
    entries = tuple(ScheduleEntry(n, na, 40 if n == "reach" else 20)
                    for n in STAGES)
    return ScheduleTable(entries=entries,
                         ranges=ScheduleRanges(na, na, 20, 40))


class CountingOracle:
    def __init__(self):
        self.calls = 0
        self.inner = OracleStageClassifier()

    def classify(self, frames):
        self.calls += 1
        return self.inner.classify(frames)


class ScriptedClassifier:
    """Replays a fixed sequence of one-hot beliefs."""

    def __init__(self, stage_sequence):
        self.seq = list(stage_sequence)
        self.calls = 0

    def classify(self, frames):
        i = min(self.calls, len(self.seq) - 1)
        self.calls += 1
        item = self.seq[i]
        if isinstance(item, BaseException):
            raise item
        return StageBelief(((item, 1.0),))


class TestOracleClassifier:
    def test_one_hot_on_true_stage(self):
        st = reset_env(3)
        b = OracleStageClassifier().classify([st])
        assert b.entries == ((stage_index(st), 1.0),)

    def test_uses_latest_frame(self):
        a, b = reset_env(0), reset_env(1)
        out = OracleStageClassifier().classify([a, b])
        assert out.entries[0][0] == stage_index(b)

    def test_rejects_bad_buffers(self):
        with pytest.raises(ClassifierError):
            OracleStageClassifier().classify([])
        with pytest.raises(ClassifierError):
            OracleStageClassifier().classify([np.zeros(6)])


class TestSchedulerTick:
    def test_first_tick_classifies_and_returns_true_stage(self):
        st = make_scheduler(seed=0)
        oracle = CountingOracle()
        table = push_table()
        env = reset_env(0)
        na, nd, st = scheduler_tick(st, [env], oracle, table)
        assert oracle.calls == 1
        assert (na, nd) == table.entries[stage_index(env)].pair
        assert not st.degraded

    def test_cached_between_classifications(self):
        st = make_scheduler(seed=0)
        oracle = CountingOracle()
        table = horizon_table(8)
        env = reset_env(0)
        results = []
        for _ in range(17):
            na, nd, st = scheduler_tick(st, [env], oracle, table)
            results.append((na, nd))
        # classify on ticks 0, 8, 16: three calls for 17 ticks
        assert oracle.calls == 3
        assert len(set(results)) == 1

    def test_call_count_bound_over_episode(self):
        st = make_scheduler(seed=0)
        oracle = CountingOracle()
        table = horizon_table(5)
        env = reset_env(1)
        length = 0
        done = False
        while not done:
            _, _, st = scheduler_tick(st, [env], oracle, table)
            env, _, done = env_step(env, scripted_expert(env))
            length += 1
        assert oracle.calls <= int(np.ceil(length / 5)) + 1

    def test_dynamic_period_tracks_active_horizon(self):
        # stage 0 has horizon 16, stage 3 has horizon 8
        clf = ScriptedClassifier([0, 3, 3, 3])
        st = make_scheduler(seed=0)
        table = push_table()
        for tick in range(40):
            _, _, st = scheduler_tick(st, [None], clf, table)
            if tick == 0:
                assert clf.calls == 1
            if tick == 15:
                assert clf.calls == 1  # still inside the 16-step window
            if tick == 16:
                assert clf.calls == 2  # reclassified, now stage 3 (horizon 8)
            if tick == 23:
                assert clf.calls == 2
            if tick == 24:
                assert clf.calls == 3  # 8 ticks after the switch

    def test_one_hot_zero_gap_is_deterministic(self):
        script = [0, 0, 1, 2, 2, 3, 4]
        table = horizon_table(1)  # classifies on every tick
        runs = []
        for seed in (0, 99):
            clf = ScriptedClassifier(script)
            st = make_scheduler(seed=seed, gap=0.0)
            out = []
            for _ in range(len(script)):
                na, nd, st = scheduler_tick(st, [None], clf, table)
                out.append((na, nd))
            runs.append(out)
        assert runs[0] == runs[1]
        assert runs[0] == [table.entries[s].pair for s in script]

    def test_degraded_keeps_cached_stage(self):
        clf = ScriptedClassifier([2, ClassifierError("down"), 3])
        st = make_scheduler(seed=0)
        table = horizon_table(4)
        seen = []
        for _ in range(12):
            na, nd, st = scheduler_tick(st, [None], clf, table)
            seen.append((na, nd, st.degraded))
        # window 1: stage 2; window 2: failure, stage 2 kept, degraded;
        # window 3: recovered to stage 3
        assert seen[:4] == [(4, 20, False)] * 4
        assert seen[4:8] == [(4, 20, True)] * 4
        assert seen[8:] == [(4, 40, False)] * 4
        assert clf.calls == 3  # failure retried once per horizon, not per tick

    def test_failure_on_first_tick_uses_initial_stage(self):
        clf = ScriptedClassifier([ClassifierError("down")])
        st = make_scheduler(seed=0)
        table = horizon_table(4)
        na, nd, st = scheduler_tick(st, [None], clf, table)
        assert (na, nd) == table.entries[0].pair
        assert st.degraded

    def test_close_race_explores_candidates(self):
        belief = StageBelief(((0, 0.4), (1, 0.35), (2, 0.25)))

        class Static:
            def classify(self, frames):
                return belief

        st = make_scheduler(seed=7, gap=0.2)
        table = horizon_table(1)
        seen = set()
        for _ in range(200):
            na, nd, st = scheduler_tick(st, [None], Static(), table)
            seen.add(st.active)
        assert seen == {0, 1, 2}

    def test_rejects_invalid_states(self):
        table = push_table()
        with pytest.raises(ValueError):
            SchedulerState(active=-1)
        st = make_scheduler()
        st.active = 99
        with pytest.raises(ValueError):
            scheduler_tick(st, [None], ScriptedClassifier([0]), table)
        bad = ScriptedClassifier([7])  # outside the 5-entry table
        with pytest.raises(ValueError):
            scheduler_tick(make_scheduler(), [None], bad, table)


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
