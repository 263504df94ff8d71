"""Online stage scheduling: classifiers and the periodic cache-and-tick.

A rollout owns one SchedulerState and calls scheduler_tick every control
step.  Classification is expensive, so it runs only every `period` steps
(default: the active stage's action horizon, i.e. at replan boundaries);
between classifications the cached stage's budget is reused.  Classifier
failures never stall control: the cached stage is kept and the state is
flagged degraded until the next successful classification.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import urllib.error
import urllib.request
from dataclasses import dataclass, field

import numpy as np

from .env import EnvState, stage_index
from .stages import (
    ScheduleTable,
    StageBelief,
    StageParseError,
    build_classification_prompt,
    parse_stage_probs,
    select_stage,
)

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


class RemoteStageClassifier:
    """Stage classification over HTTP against a chat-completions-style
    endpoint.

    Frames are bytes-like, sent base64-encoded in chronological order.
    The transport is injectable for tests; the default posts JSON with
    urllib and a hard timeout.  Every failure, an unencodable frame
    included, is a ClassifierError, so the scheduler degrades gracefully.
    """

    def __init__(self, stages, endpoint: str | None = None, top_k: int = 3,
                 timeout: float = 10.0, transport=None):
        if endpoint is None:
            endpoint = os.environ.get(ENDPOINT_ENV_VAR)
        if not endpoint:
            raise ValueError(
                f"no endpoint given and {ENDPOINT_ENV_VAR} is not set")
        self.stages = list(stages)
        self.endpoint = endpoint
        self.top_k = top_k
        self.timeout = timeout
        self.transport = transport

    def classify(self, frames) -> StageBelief:
        prompt = build_classification_prompt(self.stages, self.top_k)
        content = [{"type": "text", "text": prompt}]
        for frame in frames:
            try:
                payload = base64.b64encode(bytes(frame)).decode("ascii")
            except (TypeError, ValueError) as e:
                raise ClassifierError(f"cannot encode frame: {e}") from e
            content.append({"type": "image", "image": payload})
        text = complete_text(self.endpoint, content, self.timeout,
                             self.transport)
        try:
            return parse_stage_probs(text, self.stages, self.top_k)
        except StageParseError as e:
            raise ResponseParseError(str(e)) from e


# -- the scheduler ------------------------------------------------------------

_NEVER = 1 << 60  # steps_since value forcing classification on first tick


@dataclass
class SchedulerState:
    gap: float = 0.2
    period: int | None = None  # None: track the active stage's horizon
    active: int = 0
    steps_since: int = _NEVER
    belief: StageBelief | None = None
    degraded: bool = False
    rng: np.random.Generator = field(default_factory=np.random.default_rng,
                                     repr=False, compare=False)

    def __post_init__(self):
        if self.period is not None and self.period < 1:
            raise ValueError("period must be >= 1")
        if self.active < 0:
            raise ValueError("active stage must be >= 0")


def make_scheduler(seed: int = 0, gap: float = 0.2,
                   period: int | None = None) -> SchedulerState:
    return SchedulerState(gap=gap, period=period,
                          rng=np.random.default_rng(seed))


def scheduler_tick(st: SchedulerState, frames, classifier,
                   table: ScheduleTable) -> tuple[int, int, SchedulerState]:
    """One control step: maybe reclassify, then return the active budget.

    Returns (action horizon, denoising steps, state).  On classifier
    failure the cached stage is kept, the state is flagged degraded, and
    the counter still resets so a dead endpoint is retried once per
    period rather than every step.
    """
    if st.active >= len(table.entries):
        raise ValueError("active stage outside the schedule table")
    period = st.period if st.period is not None \
        else table.entries[st.active].n_action_steps
    if st.steps_since >= period:
        try:
            belief = classifier.classify(frames)
        except ClassifierError:
            st.degraded = True
        else:
            st.belief = belief
            st.active = select_stage(belief, st.gap, st.rng)
            if st.active >= len(table.entries):
                raise ValueError("classifier returned a stage outside "
                                 "the schedule table")
            st.degraded = False
        st.steps_since = 0
    st.steps_since += 1
    entry = table.entries[st.active]
    return entry.n_action_steps, entry.num_inference_steps, st
