"""Per-episode outcomes of the four ``diffpol bench`` rows on the
committed fixture policy (``perfbench/policy.npz``), pinned so that a
change to the rollout's bookkeeping cannot change what an episode does.

Each row runs 5 episodes for each of the evaluation seeds (0, 1) through
``evaluate()``, as ``diffpol bench`` runs them; every episode's
``(success, steps, denoiser_calls)`` is recorded in order.  The values
were recorded with the per-step rollout that the per-window one
replaced.
"""

import pathlib
import sys

import pytest

import diffpol.rollout
from diffpol.cli import _BENCH_ROWS, _parse_schedule_arg
from diffpol.rollout import evaluate

PERFBENCH = str(pathlib.Path(__file__).resolve().parent.parent / "perfbench")

# (success, steps, denoiser_calls) per episode, seed 0's five then seed 1's
GOLDEN = {
    "ddpm fixed:16,100": [
        (False, 200, 1300), (False, 200, 1300), (False, 200, 1300),
        (True, 51, 400), (False, 200, 1300), (False, 200, 1300),
        (False, 200, 1300), (False, 200, 1300), (False, 200, 1300),
        (False, 200, 1300),
    ],
    "ddpm oracle-hvts": [
        (False, 200, 260), (False, 200, 280), (False, 200, 260),
        (True, 92, 160), (True, 117, 180), (False, 200, 280),
        (True, 117, 160), (False, 200, 320), (True, 105, 180),
        (True, 171, 260),
    ],
    "ddim fixed:16,25": [
        (False, 200, 325), (False, 200, 325), (False, 200, 325),
        (False, 200, 325), (False, 200, 325), (False, 200, 325),
        (False, 200, 325), (False, 200, 325), (True, 99, 175),
        (False, 200, 325),
    ],
    "ddim oracle-hvts": [
        (False, 200, 340), (False, 200, 280), (False, 200, 280),
        (False, 200, 320), (False, 200, 340), (False, 200, 260),
        (False, 200, 260), (False, 200, 260), (False, 200, 260),
        (True, 142, 300),
    ],
}


@pytest.fixture(scope="module")
def fixture_policy():
    sys.path.insert(0, PERFBENCH)
    try:
        import fixture
    finally:
        sys.path.remove(PERFBENCH)
    return fixture.load_policy()


def bench_row_episodes(params, monkeypatch):
    """Every episode of every bench row, keyed like ``GOLDEN``."""
    episodes = []
    inner = diffpol.rollout.rollout

    def recording(*args, **kwargs):
        r = inner(*args, **kwargs)
        episodes.append((r.success, r.steps, r.denoiser_calls))
        return r

    monkeypatch.setattr(diffpol.rollout, "rollout", recording)
    got = {}
    for sampler, label in _BENCH_ROWS:
        episodes.clear()
        evaluate(params, params.noise_schedule(), 5,
                 _parse_schedule_arg(label), sampler, seeds=(0, 1))
        got[f"{sampler} {label}"] = list(episodes)
    return got


def test_bench_rows_keep_their_episode_outcomes(fixture_policy,
                                                monkeypatch):
    assert bench_row_episodes(fixture_policy, monkeypatch) == GOLDEN
