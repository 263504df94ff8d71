"""Online stage scheduling: the oracle classifier, the periodic
cache-and-tick, and the chat-completion client that `diffpol decompose`
uses.

A rollout owns one SchedulerState and calls scheduler_tick every control
step.  Classification runs once per active stage's action horizon, i.e.
at replan boundaries; between classifications the cached stage's budget
is reused.  Classifier failures never stall control: the cached stage is
kept and the state is flagged degraded until the next successful
classification.
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request
from dataclasses import dataclass, field

import numpy as np

from .env import EnvState, stage_index
from .stages import ScheduleTable, StageBelief, select_stage

ENDPOINT_ENV_VAR = "VADF_VLM_ENDPOINT"


class ClassifierError(Exception):
    """Base for all stage classification failures."""


class RemoteTransportError(ClassifierError):
    """The endpoint could not be reached or returned an error status."""


class RemoteTimeout(ClassifierError):
    """The endpoint did not answer within the configured timeout."""


class ResponseParseError(ClassifierError):
    """The endpoint answered, but the reply was not usable."""


def http_post(url: str, body: bytes, timeout: float) -> bytes:
    """Default transport: POST a JSON body, return the raw reply."""
    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.read()


def complete_text(endpoint: str, content: list[dict], timeout: float,
                  transport=None) -> str:
    """One chat-completion exchange: post a single user message made of
    ``content`` parts and return the reply text.

    ``transport(url, body, timeout) -> bytes`` defaults to http_post.
    Failures surface as RemoteTimeout, RemoteTransportError or, for a
    reply without a text completion, ResponseParseError.
    """
    body = json.dumps({
        "messages": [{"role": "user", "content": content}],
        "temperature": 0.1,
        "top_p": 0.7,
        "max_new_tokens": 1024,
    }).encode("utf-8")
    post = transport if transport is not None else http_post
    try:
        raw = post(endpoint, body, timeout)
    except (OSError, http.client.HTTPException) as e:
        cause = getattr(e, "reason", e)  # URLError wraps the socket error
        if isinstance(cause, TimeoutError):
            raise RemoteTimeout(f"endpoint timed out: {e}") from e
        raise RemoteTransportError(f"endpoint unreachable: {e}") from e
    try:
        text = json.loads(raw)["choices"][0]["message"]["content"]
        if not isinstance(text, str):
            raise TypeError(f"content is {type(text).__name__}, not text")
    except (ValueError, KeyError, IndexError, TypeError) as e:
        raise ResponseParseError(f"malformed reply: {e}") from e
    return text


# -- classifiers --------------------------------------------------------------


class OracleStageClassifier:
    """Ground-truth stand-in: reads the stage straight off the latest
    environment state and returns a one-hot belief."""

    def classify(self, frames) -> StageBelief:
        if not frames:
            raise ClassifierError("empty frame buffer")
        st = frames[-1]
        if not isinstance(st, EnvState):
            raise ClassifierError("oracle needs environment states")
        return StageBelief(((stage_index(st), 1.0),))


# -- the scheduler ------------------------------------------------------------

_NEVER = 1 << 60  # steps_since value forcing classification on first tick


@dataclass
class SchedulerState:
    gap: float = 0.2
    active: int = 0
    steps_since: int = _NEVER
    degraded: bool = False
    rng: np.random.Generator = field(default_factory=np.random.default_rng,
                                     repr=False, compare=False)

    def __post_init__(self):
        if self.active < 0:
            raise ValueError("active stage must be >= 0")


def make_scheduler(seed: int = 0, gap: float = 0.2) -> SchedulerState:
    return SchedulerState(gap=gap, rng=np.random.default_rng(seed))


def scheduler_tick(st: SchedulerState, frames, classifier,
                   table: ScheduleTable) -> tuple[int, int, SchedulerState]:
    """One control step: maybe reclassify, then return the active budget.

    Returns (action horizon, denoising steps, state).  On classifier
    failure the cached stage is kept, the state is flagged degraded, and
    the counter still resets so a failing classifier is retried once per
    horizon rather than every step.
    """
    if st.active >= len(table.entries):
        raise ValueError("active stage outside the schedule table")
    if st.steps_since >= table.entries[st.active].n_action_steps:
        try:
            belief = classifier.classify(frames)
        except ClassifierError:
            st.degraded = True
        else:
            st.active = select_stage(belief, st.gap, st.rng)
            if st.active >= len(table.entries):
                raise ValueError("classifier returned a stage outside "
                                 "the schedule table")
            st.degraded = False
        st.steps_since = 0
    st.steps_since += 1
    entry = table.entries[st.active]
    return entry.n_action_steps, entry.num_inference_steps, st
