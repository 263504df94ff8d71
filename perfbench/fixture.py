"""The fixed rollout policy of the ``rollout-bench`` workload.

The policy is the test_07 configuration (B=64, hidden=384, T=100,
embed_dim=128) trained for 50k uniform steps with seed 0 on 250 scripted
demos.  It is stored as plain NumPy arrays (``policy.npz``) rather than
in diffpol's checkpoint format, so a later change of that format cannot
break it, and it is loaded by copying in place into the arrays that
``init_params`` returns, so a different in-memory layout (for example
views into one flat buffer) still receives it.

Every load checks a SHA-256 of the arrays and the output of one fixed
probe forward pass against ``policy.json``.

Regenerate (about 8 minutes on a 2-core x86-64 machine) with::

    python3 perfbench/fixture.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
NPZ_PATH = os.path.join(HERE, "policy.npz")
META_PATH = os.path.join(HERE, "policy.json")

TRAIN = {"n_demos": 250, "demo_seed": 0, "total_steps": 50_000,
         "batch_size": 64, "seed": 0, "warmup": 500, "hidden": 384,
         "embed_dim": 128, "T": 100, "mode": "uniform"}
PROBE_ENV_SEED = 0
PROBE_K = 50
PROBE_RTOL = 1e-9


class FixtureError(Exception):
    """The committed policy does not match its recorded checksums."""


def _arrays(net) -> list[np.ndarray]:
    return [*net.weights, *net.biases]


def arrays_sha256(net) -> str:
    h = hashlib.sha256()
    for a in _arrays(net):
        h.update(str(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def probe_output(params) -> np.ndarray:
    """Noise estimate for one fixed (observation, noisy window, k)."""
    from diffpol.env import observe, policy_features, reset_env
    from diffpol.nets import denoiser_forward

    obs = policy_features(observe(reset_env(PROBE_ENV_SEED)))
    ak = np.random.default_rng(PROBE_ENV_SEED).standard_normal(
        (params.T_p, params.d_a))
    return denoiser_forward(params, obs, ak, PROBE_K)


def _blank_params(meta: dict):
    from diffpol.nets import init_params

    d = meta["dims"]
    return init_params(0, d_o=d["d_o"], T_p=d["T_p"], d_a=d["d_a"],
                       hidden=d["hidden"], embed_dim=d["embed_dim"],
                       T=d["T"])


def load_policy():
    """Return the committed policy as DenoiserParams, after checking it."""
    with open(META_PATH) as f:
        meta = json.load(f)
    params = _blank_params(meta)
    with np.load(NPZ_PATH) as z:
        stored = [z[f"W{i}"] for i in range(len(params.net.weights))] + \
                 [z[f"b{i}"] for i in range(len(params.net.biases))]
    targets = _arrays(params.net)
    if len(stored) != len(targets):
        raise FixtureError("layer count differs from init_params")
    for dst, src in zip(targets, stored):
        if dst.shape != src.shape:
            raise FixtureError(f"array shape {src.shape} != {dst.shape}")
        dst[...] = src
    digest = arrays_sha256(params.net)
    if digest != meta["arrays_sha256"]:
        raise FixtureError(f"array checksum {digest} != recorded "
                           f"{meta['arrays_sha256']}")
    probe = probe_output(params)
    want = np.array(meta["probe_output"])
    if probe.shape != want.shape or not np.allclose(
            probe, want, rtol=PROBE_RTOL, atol=1e-12):
        raise FixtureError("probe forward output differs from the record")
    return params


def regenerate() -> None:
    from diffpol.env import generate_demos
    from diffpol.training import TrainConfig, train

    demos = generate_demos(TRAIN["n_demos"], seed=TRAIN["demo_seed"])
    cfg = TrainConfig(total_steps=TRAIN["total_steps"],
                      batch_size=TRAIN["batch_size"], seed=TRAIN["seed"],
                      warmup=TRAIN["warmup"], hidden=TRAIN["hidden"],
                      embed_dim=TRAIN["embed_dim"], T=TRAIN["T"])
    params, report = train(cfg, demos, TRAIN["mode"])
    net = params.net
    np.savez(NPZ_PATH,
             **{f"W{i}": w for i, w in enumerate(net.weights)},
             **{f"b{i}": b for i, b in enumerate(net.biases)})
    meta = {
        "train": TRAIN,
        "dims": {"d_o": params.d_o, "T_p": params.T_p, "d_a": params.d_a,
                 "hidden": params.hidden, "embed_dim": params.embed_dim,
                 "T": params.T},
        "final_loss": report.losses[-1],
        "arrays_sha256": arrays_sha256(net),
        "probe": {"env_seed": PROBE_ENV_SEED, "k": PROBE_K},
        "probe_output": probe_output(params).tolist(),
    }
    with open(META_PATH, "w") as f:
        json.dump(meta, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: fixture.py --regenerate")
    regenerate()
