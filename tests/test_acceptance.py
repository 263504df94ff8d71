"""End-to-end acceptance checks, one test per quantitative commitment.

Each test exercises a full subsystem at its stated tolerance and prints
one pass/fail line under pytest -v.  The slow entries (convergence-speed
and scheduled-inference efficiency) train real policies and dominate the
suite's runtime; their budgets are asserted explicitly.  Both carry the
``slow`` marker, so ``pytest -m "not slow"`` skips them.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from diffpol.cli import main, run_from_manifest
from diffpol.diffusion import (
    ddim_reverse_step,
    ddpm_reverse_step,
    make_noise_schedule,
    respaced_schedule,
    theoretical_weights,
)
from diffpol.env import generate_demos, save_demos
from diffpol.nets import (
    denoiser_batch_grads,
    denoiser_forward,
    init_params,
    mlp_backward,
    mlp_forward,
    save_checkpoint,
    _embed_table,
)
from diffpol.rollout import evaluate, hvts_schedule_table
from diffpol.stages import (
    ScheduleRanges,
    StageParseError,
    parse_schedule,
    parse_stage_templates,
    sanitize_json,
    schedule_to_json,
    templates_to_json,
)
from diffpol.training import (
    TrainConfig,
    anneal_alpha,
    make_timestep_sampler,
    normalize_rewards,
    sample_timestep,
    sampler_distribution,
    sampler_update_batch,
    train,
    update_traj_weights_batch,
    weighted_sample_index,
    _policy_entropy_grad,
)

from helpers import sampler_objective

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_01_analytic_gradients_match_finite_differences():
    """Denoiser and sampler backward passes vs central differences on
    width-8 nets: 50 probes, relative error <= 1e-4, well under 10 s."""
    t0 = time.perf_counter()
    h = 1e-6
    worst = 0.0

    p = init_params(3, d_o=3, T_p=2, d_a=1, hidden=8, embed_dim=8, T=10)
    rng = np.random.default_rng(11)
    for _ in range(25):
        obs = rng.standard_normal(3)
        ak = rng.standard_normal((2, 1))
        eps = rng.standard_normal((2, 1))
        k = int(rng.integers(1, 11))
        _, grads = denoiser_batch_grads(p, obs[None], ak[None],
                                        np.array([k]), eps[None])
        li = int(rng.integers(len(p.net.weights)))
        W = p.net.weights[li]
        i, j = int(rng.integers(W.shape[0])), int(rng.integers(W.shape[1]))
        orig = W[i, j]

        def loss_at(v, li=li, i=i, j=j, obs=obs, ak=ak, eps=eps, k=k):
            p.net.weights[li][i, j] = v
            d = denoiser_forward(p, obs, ak, k) - eps
            return float(np.mean(d * d))

        num = (loss_at(orig + h) - loss_at(orig - h)) / (2 * h)
        p.net.weights[li][i, j] = orig
        ana = grads.weights[li][i, j]
        worst = max(worst, abs(num - ana) / max(1e-12, abs(num) + abs(ana)))

    ts = make_timestep_sampler(5, T=10, warmup=0, entropy_coef=0.7,
                               hidden=8, embed_dim=8)
    for _ in range(25):
        k = int(rng.integers(1, 11))
        r = float(rng.normal())
        dz = _policy_entropy_grad(ts, np.array([k]), np.array([r]))
        x = _embed_table(ts.embed_dim, ts.T)
        _, cache = mlp_forward(ts.net, x)
        grads = mlp_backward(ts.net, cache, dz[:, None])
        li = int(rng.integers(len(ts.net.weights)))
        W = ts.net.weights[li]
        i, j = int(rng.integers(W.shape[0])), int(rng.integers(W.shape[1]))
        orig = W[i, j]

        def objective_at(v, li=li, i=i, j=j, k=k, r=r):
            ts.net.weights[li][i, j] = v
            ts._logits = None
            return sampler_objective(ts, k, r)

        num = (objective_at(orig + h) - objective_at(orig - h)) / (2 * h)
        ts.net.weights[li][i, j] = orig
        ts._logits = None
        ana = grads.weights[li][i, j]
        worst = max(worst, abs(num - ana) / max(1e-12, abs(num) + abs(ana)))

    dt = time.perf_counter() - t0
    assert worst <= 1e-4, f"worst relative error {worst:.2e}"
    assert dt < 10.0, f"gradient probes took {dt:.1f}s"


def test_02_reverse_chains_recover_the_clean_window():
    """With a denoiser that returns the exact noise, the no-noise full
    chain lands on the clean sample to 1e-6 and a respaced deterministic
    chain tracks the closed-form path to 1e-3."""
    s = make_noise_schedule(100)
    rng = np.random.default_rng(2)
    a0 = rng.standard_normal((4, 2))

    def oracle_eps(a, k):
        ab = s.alpha_bar[k - 1]
        return (a - np.sqrt(ab) * a0) / np.sqrt(1.0 - ab)

    a = rng.standard_normal((4, 2))
    z = np.zeros_like(a)
    for k in range(s.T, 0, -1):
        a = ddpm_reverse_step(s, oracle_eps(a, k), a, k, z)
    err = np.max(np.abs(a - a0))
    assert err <= 1e-6, f"full-chain recovery error {err:.2e}"

    # a state on the (a0, eps0) line stays on it under eta=0 steps, so
    # every visited index has a closed-form value
    eps0 = rng.standard_normal((4, 2))
    sub, idx = respaced_schedule(s, 25)
    ab_T = s.alpha_bar[idx[-1] - 1]
    a = np.sqrt(ab_T) * a0 + np.sqrt(1.0 - ab_T) * eps0
    worst = 0.0
    for j in range(25, 0, -1):
        k = int(idx[j - 1])
        k_prev = int(idx[j - 2]) if j > 1 else 0
        a = ddim_reverse_step(s, oracle_eps(a, k), a, k, k_prev)
        if k_prev > 0:
            ab = s.alpha_bar[k_prev - 1]
            ref = np.sqrt(ab) * a0 + np.sqrt(1.0 - ab) * eps0
        else:
            ref = a0
        worst = max(worst, float(np.max(np.abs(a - ref))))
    assert worst <= 1e-3, f"deterministic-chain deviation {worst:.2e}"


def test_03_importance_sampling_is_unbiased():
    """Drawing steps from the theoretical proposal and unweighting gives
    the uniform-expectation estimate: exact per-step ratio, and within
    1% relative over 1e5 Monte-Carlo draws at T=10."""
    s = make_noise_schedule(10)
    w, q = theoretical_weights(s)
    # per-step correction w/(T q) is the same constant for every step
    ratios = w / (s.T * q)
    assert np.allclose(ratios, ratios[0], rtol=1e-12)

    rng = np.random.default_rng(9)
    losses = rng.uniform(0.5, 5.0, size=s.T)
    truth = float(np.mean(losses))
    draws = rng.choice(s.T, size=100_000, p=q)
    est = float(np.mean(losses[draws] / (s.T * q[draws])))
    rel = abs(est - truth) / truth
    assert rel <= 0.01, f"IS estimate off by {rel:.4f} relative"


@pytest.mark.slow
def test_04_sampler_concentrates_and_keeps_entropy_guard():
    """A planted 5x-loss band on steps 40..60 of T=100 must collect at
    least 0.42 of the sampler's mass (2x uniform's 0.21) within
    warmup+2000 updates, while i.i.d. rewards leave the distribution
    within total variation 0.1 of uniform.  Both runs inside 2 min."""
    t0 = time.perf_counter()
    T, warmup, batch = 100, 200, 64

    ts = make_timestep_sampler(0, T=T, warmup=warmup, entropy_coef=1.0)
    rng = np.random.default_rng(100)
    for step in range(warmup + 2000):
        ks = sample_timestep(ts, rng, step, size=batch)
        base = rng.normal(1.0, 0.1, size=batch)
        losses = np.where((ks >= 40) & (ks <= 60), 5.0 * base, base)
        if step >= warmup:
            sampler_update_batch(ts, ks, normalize_rewards(losses))
    mass = float(sampler_distribution(ts)[39:60].sum())
    assert mass >= 0.42, f"planted-band mass {mass:.3f}"

    ts = make_timestep_sampler(0, T=T, warmup=warmup, entropy_coef=1.0)
    rng = np.random.default_rng(200)
    for step in range(warmup + 2000):
        ks = sample_timestep(ts, rng, step, size=batch)
        losses = rng.normal(1.0, 0.1, size=batch)
        if step >= warmup:
            sampler_update_batch(ts, ks, normalize_rewards(losses))
    tv = float(0.5 * np.abs(sampler_distribution(ts) - 1.0 / T).sum())
    dt = time.perf_counter() - t0
    assert tv <= 0.1, f"i.i.d.-reward drift TV {tv:.3f}"
    assert dt < 120.0, f"sampler runs took {dt:.0f}s"


def test_05_hard_trajectories_get_oversampled():
    """With 10% of trajectories carrying 3x loss, their draw frequency
    must reach 2x the base rate within warmup+2000 steps and no weight
    may ever fall below the 1e-4 floor."""
    n_traj, batch = 100, 64
    hard = np.arange(10)
    steps = 200 + 2000
    tw = np.ones(n_traj)
    rng = np.random.default_rng(0)
    counts = np.zeros(n_traj)
    min_seen = np.inf
    for step in range(steps):
        idxs = weighted_sample_index(tw, rng, size=batch)
        base = rng.normal(1.0, 0.1, size=batch)
        losses = np.where(np.isin(idxs, hard), 3.0 * base, base)
        alpha = anneal_alpha(step, steps)
        tw = update_traj_weights_batch(tw, idxs, normalize_rewards(losses),
                                       alpha)
        min_seen = min(min_seen, float(tw.min()))
        if step >= steps - 500:
            counts += np.bincount(idxs, minlength=n_traj)
    rate = counts[hard].sum() / counts.sum()
    assert rate >= 0.20, f"hard-sample rate {rate:.3f} (base 0.10)"
    assert min_seen >= 1e-4 - 1e-12, f"weight floor broken: {min_seen:.2e}"


@pytest.mark.slow
def test_07_scheduled_inference_cuts_denoiser_calls():
    """A stage-scheduled DDPM policy (one (8, 40) stage, rest (16, 20))
    must spend at most half the denoiser calls per control step of the
    fixed 100-step DDPM baseline while giving up no more than 2 points
    of success, and the scheduled few-step sampler must cut total calls
    by at least 2.4x (checked at -20%: 1.92x); 50 episodes x 3 seeds."""
    table = hvts_schedule_table()
    pairs = [e.pair for e in table.entries]
    assert pairs.count((8, 40)) == 1
    assert all(p == (16, 20) for p in pairs if p != (8, 40))

    demos = generate_demos(250, seed=0, noise_level=0.0)
    cfg = TrainConfig(total_steps=50_000, batch_size=64, seed=0,
                      warmup=500, hidden=384)
    params, _ = train(cfg, demos, "uniform")
    sched = make_noise_schedule(cfg.T, cfg.beta_start, cfg.beta_end)

    base = evaluate(params, sched, 50, (16, 100), "ddpm", seeds=(0, 1, 2))
    sched_ddpm = evaluate(params, sched, 50, table, "ddpm", seeds=(0, 1, 2))
    sched_ddim = evaluate(params, sched, 50, table, "ddim", seeds=(0, 1, 2))

    ratio = sched_ddpm.mean_calls_per_step / base.mean_calls_per_step
    drop = base.success_rate - sched_ddpm.success_rate
    reduction = base.mean_calls_per_step / sched_ddim.mean_calls_per_step
    assert ratio <= 0.5, f"scheduled DDPM calls/step ratio {ratio:.3f}"
    assert drop <= 0.02, \
        f"success drop {drop:.3f} ({base.success_rate:.3f} -> " \
        f"{sched_ddpm.success_rate:.3f})"
    assert reduction >= 1.92, f"combined call reduction {reduction:.2f}x"


def test_08_response_protocol_is_robust():
    """Canned fixtures parse and round-trip byte-identically, the JSON
    sanitizer survives fences / trailing commas / prose, and 1000 fuzzed
    schedule replies either raise the parse error or yield a table that
    keeps the precision budget."""
    decompose = (FIXTURES / "decompose_response.txt").read_text()
    stages_json = (FIXTURES / "stages_expected.json").read_text()
    stages = parse_stage_templates(decompose, expected_n=5)
    assert templates_to_json(stages) == stages_json
    assert templates_to_json(parse_stage_templates(stages_json, 5)) \
        == stages_json

    names = [s.name for s in stages]
    sched_text = (FIXTURES / "schedule_response.txt").read_text()
    sched_json = (FIXTURES / "schedule_expected.json").read_text()
    ranges = ScheduleRanges(8, 16, 20, 60)
    table = parse_schedule(sched_text, names, ranges)
    assert schedule_to_json(table) == sched_json

    assert json.loads(sanitize_json('```json\n[{"a": 1,},]\n```')) == [{"a": 1}]
    assert json.loads(sanitize_json('Sure! Here it is: [1, 2] enjoy')) == [1, 2]
    assert json.loads(sanitize_json('[{"x": [1, 2,]},]')) == [{"x": [1, 2]}]

    rng = np.random.default_rng(42)
    fences = ("", "```json\n{}\n```", "Sure, here you go:\n{}\nHope it helps!")

    def random_value():
        pick = rng.integers(8)
        if pick <= 2:
            return int(rng.integers(-5, 200))
        if pick <= 4:
            return float(rng.uniform(-10, 100))
        if pick <= 6:
            return str(int(rng.integers(1, 100)))
        return "lots" if rng.random() < 0.5 else True

    def random_reply():
        items = [{"name": n, "n_action_steps": random_value(),
                  "num_inference_steps": random_value()} for n in names]
        if rng.random() < 0.15:
            items.pop(int(rng.integers(len(items))))
        if rng.random() < 0.15:
            items[rng.integers(len(items))]["name"] = \
                "mystery_stage_" + str(rng.integers(10))
        if rng.random() < 0.15:
            key = ("name", "n_action_steps",
                   "num_inference_steps")[rng.integers(3)]
            items[rng.integers(len(items))].pop(key, None)
        if rng.random() < 0.1:
            items.append(dict(items[rng.integers(len(items))]))
        body = json.dumps(items)
        if rng.random() < 0.3:
            body = body.replace("}]", "},]")
        if rng.random() < 0.1:
            body = body[: max(2, int(rng.integers(len(body))))]
        wrap = fences[rng.integers(len(fences))]
        return wrap.format(body) if wrap else body

    parsed = 0
    for _ in range(1000):
        try:
            table = parse_schedule(random_reply(), names)
        except StageParseError:
            continue
        parsed += 1
        r = ScheduleRanges()  # the ranges it parsed under
        hardest = (r.a_min, r.i_max)
        assert any(e.pair == hardest for e in table.entries), \
            f"no precision-budget entry in {table.entries}"
    assert parsed > 0, "every fuzzed reply failed to parse"


def test_09_manifest_replay_is_bit_identical(tmp_path, capsys):
    """Re-running any command from its emitted manifest reproduces the
    CSV and binary outputs byte for byte (oracle classifier paths)."""
    demos = tmp_path / "demos"
    assert main(["gen-data", "--n", "3", "--seed", "5",
                 "--out", str(demos)]) == 0
    replay = tmp_path / "demos_replay"
    assert run_from_manifest(str(demos / "manifest.json"),
                            out=str(replay)) == 0
    assert (demos / "demos.bin").read_bytes() \
        == (replay / "demos.bin").read_bytes()

    ckpt_dir = tmp_path / "policy"
    ckpt_dir.mkdir()
    d_feat = 17
    p = init_params(0, d_o=d_feat, T_p=16, d_a=2, hidden=16, embed_dim=8,
                    T=100)
    save_checkpoint(str(ckpt_dir / "checkpoint.bin"), p)

    run_a = tmp_path / "eval_a"
    assert main(["eval", "--policy", str(ckpt_dir / "checkpoint.bin"),
                 "--episodes", "2", "--schedule", "oracle-hvts",
                 "--sampler", "ddim", "--seeds", "0,1",
                 "--out", str(run_a)]) == 0
    run_b = tmp_path / "eval_b"
    assert run_from_manifest(str(run_a / "manifest.json"),
                            out=str(run_b)) == 0
    assert (run_a / "report.csv").read_bytes() \
        == (run_b / "report.csv").read_bytes()

    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({"hidden": 16, "embed_dim": 8,
                               "sampler_hidden": 16, "batch_size": 4,
                               "warmup": 1, "steps": 3,
                               "data": str(demos / "demos.bin"),
                               "mode": "aln"}))
    run_c = tmp_path / "train_a"
    assert main(["train", "--config", str(cfg), "--out", str(run_c)]) == 0
    run_d = tmp_path / "train_b"
    assert run_from_manifest(str(run_c / "manifest.json"),
                            out=str(run_d)) == 0
    assert (run_c / "report.csv").read_bytes() \
        == (run_d / "report.csv").read_bytes()
    assert (run_c / "checkpoint.bin").read_bytes() \
        == (run_d / "checkpoint.bin").read_bytes()
