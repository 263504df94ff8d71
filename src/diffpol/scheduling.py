"""Online stage scheduling: the oracle classifier, the per-replan
budget decision, and the chat-completion client that `diffpol decompose`
uses.

A rollout owns one SchedulerState, which carries the schedule table and
the classifier, and calls scheduler_tick once per replan: the current
environment state is classified and the stage's budget sizes the next
action window.  A classifier's classify(state) returns the current
stage's index into the schedule table, or raises ClassifierError.
Classifier failures never stall control: the cached stage is kept and
the state is flagged degraded until the next successful classification.

The client imports Python's HTTP modules (and with them e-mail and TLS)
on its first call, so a process that never decomposes never loads them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from numbers import Integral

from .env import EnvState, stage_index
from .stages import ScheduleTable

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
    """The client's transport, looked up at each call: POST a JSON body,
    return the raw reply."""
    import urllib.request  # loaded on first use: only decompose posts

    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.read()


def complete_text(endpoint: str, prompt: str, timeout: float) -> str:
    """One chat-completion exchange: post a single user message, one text
    part holding ``prompt``, through http_post and return the reply text.

    Failures surface as RemoteTimeout, RemoteTransportError or, for a
    reply without a text completion, ResponseParseError.
    """
    import http.client  # loaded on first use, with http_post's modules

    body = json.dumps({
        "messages": [{"role": "user",
                      "content": [{"type": "text", "text": prompt}]}],
        "temperature": 0.1,
        "top_p": 0.7,
        "max_new_tokens": 1024,
    }).encode("utf-8")
    try:
        raw = http_post(endpoint, body, timeout)
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
    environment state and returns its index."""

    def classify(self, state) -> int:
        if not isinstance(state, EnvState):
            raise ClassifierError("oracle needs an environment state")
        return stage_index(state)


# -- the scheduler ------------------------------------------------------------


@dataclass
class SchedulerState:
    table: ScheduleTable
    classifier: object = field(default_factory=OracleStageClassifier)
    active: int = 0
    degraded: bool = False

    def __post_init__(self):
        if not 0 <= self.active < len(self.table.entries):
            raise ValueError("active stage outside the schedule table")


def scheduler_tick(st: SchedulerState,
                   state: EnvState) -> tuple[int, int, SchedulerState]:
    """One replan: classify the current state, then return its budget.

    Returns (action horizon, denoising steps, state).  On classifier
    failure the cached stage is kept and the state is flagged degraded,
    so a failing classifier is retried once per replan.  A returned
    index that is not integral (a bool is not; an argmax result is) or
    lies outside the table raises ValueError and leaves the state as it
    was.
    """
    try:
        active = st.classifier.classify(state)
    except ClassifierError:
        st.degraded = True
    else:
        n = len(st.table.entries)
        if isinstance(active, bool) or not isinstance(active, Integral) \
                or not 0 <= active < n:
            raise ValueError(f"classifier returned {active!r}, not a stage "
                             f"index in [0, {n})")
        st.active, st.degraded = int(active), False
    entry = st.table.entries[st.active]
    return entry.n_action_steps, entry.num_inference_steps, st
