"""Online stage scheduling: the oracle classifier, the per-replan
budget decision, and the chat-completion client that `diffpol decompose`
uses.

A rollout owns one SchedulerState, which carries the schedule table and
the classifier, and calls scheduler_tick once per replan: the current
environment state is classified and the stage's budget sizes the next
action window.  Classifier failures never stall control: the cached
stage is kept and the state is flagged degraded until the next
successful classification.
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
    """Ground-truth stand-in: reads the stage straight off the current
    environment state and returns a one-hot belief."""

    def classify(self, state) -> StageBelief:
        if not isinstance(state, EnvState):
            raise ClassifierError("oracle needs an environment state")
        return StageBelief(((stage_index(state), 1.0),))


# -- the scheduler ------------------------------------------------------------


@dataclass
class SchedulerState:
    table: ScheduleTable
    classifier: object = field(default_factory=OracleStageClassifier)
    gap: float = 0.2
    active: int = 0
    degraded: bool = False
    rng: np.random.Generator = field(default_factory=np.random.default_rng,
                                     repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.active < len(self.table.entries):
            raise ValueError("active stage outside the schedule table")


def scheduler_tick(st: SchedulerState,
                   state: EnvState) -> tuple[int, int, SchedulerState]:
    """One replan: classify the current state, then return its budget.

    Returns (action horizon, denoising steps, state).  On classifier
    failure the cached stage is kept and the state is flagged degraded,
    so a failing classifier is retried once per replan.
    """
    try:
        belief = st.classifier.classify(state)
    except ClassifierError:
        st.degraded = True
    else:
        active = select_stage(belief, st.gap, st.rng)
        if active >= len(st.table.entries):
            raise ValueError("classifier returned a stage outside "
                             "the schedule table")
        st.active, st.degraded = active, False
    entry = st.table.entries[st.active]
    return entry.n_action_steps, entry.num_inference_steps, st
