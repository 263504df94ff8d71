"""The oracle classifier, the per-replan scheduler tick, and the
chat-completion client."""

import http.client
import json
import os
import socket
import subprocess
import sys
import urllib.error

import numpy as np
import pytest
from helpers import expert_forward_fn, install_denoiser, zero_forward_fn

import diffpol.rollout
import diffpol.scheduling
from diffpol.diffusion import make_noise_schedule
from diffpol.env import STAGES, T_P, policy_features, reset_env, stage_index
from diffpol.nets import init_params
from diffpol.rollout import fixed_schedule_table, hvts_schedule_table, \
    rollout
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
from diffpol.stages import ScheduleEntry, ScheduleTable, \
    schedule_from_json, schedule_to_json

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
    """Every stage at horizon na; reach takes 40 steps, the rest 20."""
    entries = tuple(ScheduleEntry(n, na, 40 if n == "reach" else 20)
                    for n in STAGES)
    return ScheduleTable(entries=entries)


class CountingOracle:
    """The oracle, counting its calls and recording each stage."""

    def __init__(self):
        self.calls = 0
        self.stages = []
        self.inner = OracleStageClassifier()

    def classify(self, state):
        self.calls += 1
        stage = self.inner.classify(state)
        self.stages.append(stage)
        return stage


class ScriptedClassifier:
    """Replays a fixed sequence of stage indices."""

    def __init__(self, stage_sequence):
        self.seq = list(stage_sequence)
        self.calls = 0

    def classify(self, state):
        i = min(self.calls, len(self.seq) - 1)
        self.calls += 1
        item = self.seq[i]
        if isinstance(item, BaseException):
            raise item
        return item


def scheduled_rollout(st: SchedulerState, env_seed=0, fake=None):
    """One cheap episode under st with the fake denoiser ``fake``, by
    default the zero denoiser; every replan is counted."""
    d_feat = policy_features(np.zeros(6)).size
    params = init_params(0, d_o=d_feat, T_p=T_P, d_a=2, hidden=8,
                         embed_dim=4, T=SCHED.T)
    with pytest.MonkeyPatch.context() as mp:
        install_denoiser(mp, fake or zero_forward_fn(SCHED))
        return rollout(params, SCHED, env_seed, st, "ddim", seed=0)


def window_starts(r) -> list[int]:
    """Steps at which the rollout replanned."""
    return [step for step, _, _, _ in r.replans]


class TestOracleClassifier:
    def test_one_hot_on_true_stage(self):
        """The oracle returns the true stage's index."""
        st = reset_env(3)
        assert OracleStageClassifier().classify(st) == stage_index(st)

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

    def test_fixed_budget_records_the_oracle_stage(self):
        """A fixed budget is its uniform table: each replan records the
        stage the oracle classified at it and runs the one pair."""
        oracle = CountingOracle()
        r = scheduled_rollout(SchedulerState(fixed_schedule_table(8, 5),
                                             oracle),
                              fake=expert_forward_fn(SCHED))
        assert r.success
        assert [stage for _, stage, _, _ in r.replans] == oracle.stages
        assert len(set(oracle.stages)) > 2
        assert {(na, nd) for _, _, na, nd in r.replans} == {(8, 5)}

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
        table = ScheduleTable(entries)
        clf = ScriptedClassifier([0, 3])
        r = scheduled_rollout(SchedulerState(table, clf))
        assert r.replans[:3] == ((0, 0, 20, 20), (16, 3, 8, 40),
                                 (24, 3, 8, 40))

    def test_one_hot_zero_gap_is_deterministic(self):
        """Each tick runs the entry of the stage the classifier
        returned."""
        script = [0, 0, 1, 2, 2, 3, 4]
        table = horizon_table(8)
        st = SchedulerState(table, ScriptedClassifier(script))
        out = []
        for _ in range(len(script)):
            na, nd, st = scheduler_tick(st, None)
            out.append((na, nd))
        assert out == [table.entries[s].pair for s in script]

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

    def test_rejects_invalid_states(self):
        table = push_table()
        with pytest.raises(ValueError):
            SchedulerState(table, active=-1)
        with pytest.raises(ValueError):
            SchedulerState(table, active=len(STAGES))
        bad = ScriptedClassifier([7])  # outside the 5-entry table
        with pytest.raises(ValueError):
            scheduler_tick(SchedulerState(table, bad), None)

    @pytest.mark.parametrize("bad", [-1, True, 2.0, len(STAGES)],
                             ids=["negative", "bool", "float", "past-end"])
    def test_rejects_non_index_and_keeps_state(self, bad):
        """A returned value that is not an integer index into the table
        raises, naming the value, and leaves the state as it was."""
        st = SchedulerState(push_table(), ScriptedClassifier([bad]),
                            active=2, degraded=True)
        with pytest.raises(ValueError, match=repr(bad)):
            scheduler_tick(st, None)
        assert (st.active, st.degraded) == (2, True)

    def test_numpy_integer_is_an_index(self):
        """An argmax result is an index; the state records it as an int."""
        clf = ScriptedClassifier([np.argmax([0.1, 0.2, 0.6, 0.1])])
        st = SchedulerState(push_table(), clf)
        scheduler_tick(st, None)
        assert st.active == 2 and type(st.active) is int

    @pytest.mark.parametrize("pairs", [
        {"approach": (8, 5), "align": (2, 5), "push": (2, 5),
         "reach": (2, 10), "complete": (2, 5)},
        {n: (8, 12) for n in STAGES},
    ], ids=["searched", "uniform"])
    def test_tables_outside_the_prompt_ranges_run(self, pairs):
        """Tables no schedule reply could yield (no (8, 40) entry, steps
        below 20, horizons below 8, all entries equal) round-trip as
        files, and every replan takes its stage's entry."""
        table = ScheduleTable(tuple(ScheduleEntry(n, *pairs[n])
                                    for n in STAGES))
        text = schedule_to_json(table)
        assert schedule_from_json(text) == table
        assert schedule_to_json(schedule_from_json(text)) == text
        scripted = ScriptedClassifier(range(len(STAGES)))
        for st in (SchedulerState(table), SchedulerState(table, scripted)):
            r = scheduled_rollout(st)
            starts = window_starts(r) + [r.steps]
            for (step, stage, na, nd), end in zip(r.replans, starts[1:]):
                assert (na, nd) == table.entries[stage].pair
                assert end - step == min(na, T_P, r.steps - step)
        # the scripted run, last, visits every stage and so every entry
        assert {stage for _, stage, _, _ in r.replans} == set(range(5))


def completion(content) -> bytes:
    return json.dumps(
        {"choices": [{"message": {"content": content}}]}).encode()


class TestCompleteText:
    URL = "http://unit.test/v1/chat"

    @pytest.fixture
    def call(self, monkeypatch):
        """complete_text on a one-part message, posted through ``post``
        in place of http_post."""
        def call(post, timeout=10.0):
            monkeypatch.setattr(diffpol.scheduling, "http_post", post)
            return complete_text(self.URL, "hi", timeout)
        return call

    def test_request_body_and_reply(self, monkeypatch):
        captured = {}

        def post(url, body, timeout):
            captured.update(url=url, body=json.loads(body), timeout=timeout)
            return completion("the reply")

        monkeypatch.setattr(diffpol.scheduling, "http_post", post)
        assert complete_text(self.URL, "the prompt", 4.0) == "the reply"
        assert captured["url"] == self.URL
        assert captured["timeout"] == 4.0
        assert captured["body"] == {
            "messages": [{"role": "user", "content": [
                {"type": "text", "text": "the prompt"}]}],
            "temperature": 0.1,
            "top_p": 0.7,
            "max_new_tokens": 1024,
        }

    def test_timeout_surfaces_as_timeout(self, call):
        def slow(url, body, timeout):
            raise socket.timeout("too slow")

        with pytest.raises(RemoteTimeout):
            call(slow)

        def slow_urllib(url, body, timeout):
            raise urllib.error.URLError(socket.timeout("too slow"))

        with pytest.raises(RemoteTimeout):
            call(slow_urllib)

    def test_network_failure_is_transport_error(self, call):
        def dead(url, body, timeout):
            raise urllib.error.URLError(ConnectionRefusedError())

        with pytest.raises(RemoteTransportError):
            call(dead)

        def truncated(url, body, timeout):  # urllib's short-body error
            raise http.client.IncompleteRead(b'{"ch', 96)

        with pytest.raises(RemoteTransportError):
            call(truncated)

    def test_garbage_reply_is_parse_error(self, call):
        for reply in (b"not json", b'{"unexpected": 1}', b'{"choices": []}'):
            with pytest.raises(ResponseParseError):
                call(lambda url, body, timeout, r=reply: r)

    def test_non_text_content_is_parse_error(self, call):
        for content in (None, 5, ["text"]):
            with pytest.raises(ResponseParseError):
                call(lambda url, body, timeout, c=content:
                          completion(c))

    def test_all_remote_errors_are_classifier_errors(self):
        for err in (RemoteTimeout, RemoteTransportError, ResponseParseError):
            assert issubclass(err, ClassifierError)


def test_rollout_training_and_cli_load_no_network_modules():
    """Only a chat-completion call imports the HTTP, e-mail and TLS
    modules; a fresh process that imports the rollout, training and CLI
    modules has none of them."""
    src = os.path.dirname(os.path.dirname(diffpol.rollout.__file__))
    code = ("import sys, diffpol.rollout, diffpol.training, diffpol.cli\n"
            "print(sorted({'ssl', 'http.client', 'urllib.request'}"
            " & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_only_an_aln_call_loads_the_thread_pool():
    """aln's worker is the one thread pool: a fresh process that imports
    the rollout, training and CLI modules, trains in uniform mode and
    evaluates an episode holds no concurrent.futures; an aln call loads
    it."""
    src = os.path.dirname(os.path.dirname(diffpol.rollout.__file__))
    code = (
        "import sys, diffpol.rollout, diffpol.training, diffpol.cli\n"
        "from diffpol.env import generate_demos\n"
        "from diffpol.training import TrainConfig, train\n"
        "ds = generate_demos(2, seed=0)\n"
        "cfg = TrainConfig(total_steps=2, batch_size=4, T=10, hidden=8,\n"
        "                  embed_dim=4, sampler_hidden=8, warmup=1)\n"
        "params, _ = train(cfg, ds, 'uniform')\n"
        "diffpol.rollout.evaluate(params, params.noise_schedule(), 1,\n"
        "                         (8, 10), 'ddim', seeds=(0,))\n"
        "print('concurrent.futures' in sys.modules)\n"
        "train(cfg, ds, 'aln')\n"
        "print('concurrent.futures' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "True"]
