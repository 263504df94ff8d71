"""Command line surface: flag resolution, artifacts, manifest replay."""

import dataclasses
import json
import os
import pathlib
import struct
import subprocess
import sys
import urllib.error

import numpy as np

import pytest

import diffpol.cli
import diffpol.rollout
import diffpol.scheduling
from diffpol.cli import (
    SETTINGS,
    _from_config,
    _metrics_rows,
    build_parser,
    cmd_decompose,
    main,
    resolve_args,
    run_from_manifest,
)
from diffpol.diffusion import make_noise_schedule
from diffpol.env import TASK_DESCRIPTION, generate_demos, load_demos, \
    policy_features, save_demos
from diffpol.nets import init_params, load_checkpoint, save_checkpoint
from diffpol.rollout import evaluate, hvts_schedule_table
from diffpol.scheduling import ENDPOINT_ENV_VAR
from diffpol.stages import schedule_to_json
from diffpol.training import TrainConfig

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# Narrow net keeps the rollout-heavy commands fast; the CLI behaviour
# under test does not depend on policy quality.
TINY = ["--config", str(FIXTURES / "tiny_train.json")]


@pytest.fixture(scope="module")
def demo_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "demos.bin"
    save_demos(str(path), generate_demos(2, seed=0))
    return str(path)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "checkpoint.bin"
    # d_o matches the lifted observation the rollout feeds the denoiser
    d_feat = policy_features(np.zeros(6)).size
    p = init_params(0, d_o=d_feat, T_p=16, d_a=2, hidden=16, embed_dim=8,
                    T=100)
    save_checkpoint(str(path), p)
    return str(path)


def resolved(argv):
    flags = vars(build_parser().parse_args(argv))
    command, cfg = flags.pop("command"), flags.pop("config", None)
    config = json.loads(pathlib.Path(cfg).read_text()) if cfg else {}
    return resolve_args(command, flags, config)


def help_text(command, capsys, monkeypatch) -> str:
    """The command's --help output, unwrapped to single spaces."""
    monkeypatch.setenv("COLUMNS", "1000")
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    return " ".join(capsys.readouterr().out.split())


class TestResolve:
    def test_defaults_apply(self, tmp_path):
        args = resolved(["gen-data", "--out", str(tmp_path)])
        assert args["n"] == SETTINGS["gen-data"]["n"].default
        assert args["noise"] == 0.0

    def test_flag_beats_config_beats_default(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 7, "seed": 3}))
        args = resolved(["gen-data", "--config", str(cfg), "--n", "9",
                         "--out", str(tmp_path)])
        assert args["n"] == 9       # flag wins
        assert args["seed"] == 3    # config beats default
        assert "config" not in args

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ValueError, match="unknown config"):
            resolved(["gen-data", "--config", str(cfg),
                      "--out", str(tmp_path)])

    def test_missing_required_flag(self):
        with pytest.raises(ValueError, match="--out"):
            resolved(["gen-data"])
        with pytest.raises(ValueError, match="--data"):
            resolved(["train", "--steps", "1", "--out", "x"])

    def test_paths_absolutized(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = resolved(["gen-data", "--out", "rel"])
        assert args["out"] == str(tmp_path / "rel")

    def test_config_values_convert_like_flags(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"steps": "12", "lr": "5e-4", "hidden": 8,
                                   "beta_end": 1, "mode": "aln"}))
        args = resolved(["train", "--config", str(cfg), "--data", "d",
                         "--out", str(tmp_path)])
        assert args["steps"] == 12 and args["lr"] == 5e-4
        assert args["hidden"] == 8 and type(args["beta_end"]) is float
        assert args["mode"] == "aln"
        cfg.write_text(json.dumps({"seeds": 3, "episodes": "4"}))
        args = resolved(["eval", "--config", str(cfg), "--policy", "p",
                         "--out", str(tmp_path)])
        assert args["seeds"] == "3" and args["episodes"] == 4

    def test_help_shows_each_default_from_defaults(self, monkeypatch,
                                                   capsys):
        n = SETTINGS["gen-data"]["n"]
        monkeypatch.setitem(SETTINGS["gen-data"], "n",
                            n._replace(default=123))
        assert "--n N number of demonstrations (default 123)" in \
            help_text("gen-data", capsys, monkeypatch)

    def test_settings_table(self, capsys, monkeypatch):
        for command, settings in SETTINGS.items():
            text = help_text(command, capsys, monkeypatch)
            for key, s in settings.items():
                # a manifest records the default as JSON and replays it
                # through the key's config conversion
                value = _from_config(key, json.loads(json.dumps(s.default)),
                                     s)
                assert value == s.default, (command, key)
                assert type(value) is type(s.default), (command, key)
                if s.help is not None:
                    shown = f"{s.default:g}" if isinstance(s.default, float) \
                        else str(s.default)
                    assert s.help in text, (command, key)
                    assert (f"{s.help} (default {shown})" in text) == \
                        (s.default is not None), (command, key)
        train_fields = {f.name for f in dataclasses.fields(TrainConfig)}
        assert train_fields - {"total_steps"} <= set(SETTINGS["train"])

    @pytest.mark.parametrize("bad", [
        {"steps": "abc"}, {"steps": 2.5}, {"steps": True}, {"lr": [1]},
        {"mode": "fast"}, {"snapshot_every": True}, {"hidden": "wide"},
        {"data": ["a"]},
    ])
    def test_bad_config_values_exit_1(self, tmp_path, demo_file, bad, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(bad))
        rc = main(["train", "--config", str(cfg), "--data", demo_file,
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config key") and next(iter(bad)) in err

    def test_unsupported_dtype_exits_1(self, tmp_path, demo_file, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"dtype": "float16"}))
        out = tmp_path / "run"
        rc = main(["train", "--steps", "0", "--config", str(cfg),
                   "--data", demo_file, "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "dtype" in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_empty_sampler_layer_exits_1(self, tmp_path, demo_file, capsys):
        # a zero-width sampler net used to die in init with a
        # ZeroDivisionError traceback; TrainConfig accepts it and train()
        # refuses it, so this is also an error raised inside train(),
        # which must leave no run directory
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sampler_hidden": 0}))
        out = tmp_path / "run"
        rc = main(["train", "--mode", "aln", "--steps", "2", "--warmup", "1",
                   "--config", str(cfg), "--data", demo_file,
                   "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: layer sizes must be >= 1, "
                                       "got [")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("bad", [
        {"lr": -1e-3}, {"lr": 0.0}, {"lr": float("nan")},
        {"lr": float("inf")}, {"eval_every": -5}, {"snapshot_every": -1},
        {"entropy_coef": float("nan")},
    ], ids=["lr-negative", "lr-zero", "lr-nan", "lr-inf", "eval-every",
            "snapshot-every", "entropy-coef-nan"])
    def test_bad_train_numbers_exit_1_before_out(self, tmp_path, demo_file,
                                                 bad, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(bad))
        out = tmp_path / "run"
        rc = main(["train", "--steps", "2", "--config", str(cfg),
                   "--data", demo_file, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and next(iter(bad)) in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["eval", "--policy", "{junk}"],
        ["bench", "--policy", "{junk}"],
        ["train", "--steps", "1", "--warmup", "0", "--data", "{junk}"],
        ["train", "--mode", "aln", "--steps", "1", "--warmup", "1",
         "--data", "{demos}"],
        ["train", "--steps", "2", "--eval-every", "2", "--eval-episodes",
         "0", "--data", "{demos}"],
        ["decompose", "--ranges", "1,2,3", "--mock",
         str(FIXTURES / "decompose_response.txt"),
         str(FIXTURES / "schedule_response.txt")],
        ["gen-data", "--n", "0"],
    ], ids=["eval", "bench", "train", "train-aln-warmup",
            "train-eval-episodes", "decompose", "gen-data"])
    def test_input_errors_leave_no_out_dir(self, tmp_path, argv, capsys,
                                           demo_file):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"not a diffpol file")
        out = tmp_path / "run"
        rc = main([a.format(junk=junk, demos=demo_file) for a in argv]
                  + ["--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, setting, value", [
        (["gen-data", "--n", "1", "--seed", "-1"], "seed", "-1"),
        (["train", "--steps", "1", "--config", "{seed_cfg}",
          "--data", "{demos}"], "seed", "-1"),
        (["eval", "--policy", "{ckpt}", "--episodes", "1",
          "--seeds", "0,-1"], "seed", "-1"),
        (["bench", "--policy", "{ckpt}", "--episodes", "1",
          "--seeds", "-1"], "seed", "-1"),
        (["gen-data", "--n", "1", "--noise", "nan"], "noise", "nan"),
        (["gen-data", "--n", "1", "--noise", "inf"], "noise", "inf"),
        (["train", "--mode", "aln", "--steps", "2", "--warmup", "1",
          "--entropy-coef=-inf", "--data", "{demos}", *TINY],
         "entropy_coef", "-inf"),
    ], ids=["gen-data-seed", "train-seed", "eval-seeds", "bench-seeds",
            "noise-nan", "noise-inf", "entropy-neg-inf"])
    def test_bad_seed_or_float_names_the_setting(self, tmp_path, argv,
                                                 setting, value, capsys,
                                                 demo_file, checkpoint):
        """A negative seed, or a non-finite noise or entropy coefficient
        (the aln run this one would be dies only after its warmup), exits
        1 with one error line naming the setting and the value, and
        writes nothing."""
        seed_cfg = tmp_path / "c.json"
        seed_cfg.write_text(json.dumps({"seed": -1}))
        out = tmp_path / "run"
        rc = main([a.format(seed_cfg=seed_cfg, demos=demo_file,
                            ckpt=checkpoint) for a in argv]
                  + ["--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert setting in err and value in err, err
        assert not out.exists()

    @pytest.mark.parametrize("ranges", ["8,16,x,40", "8,16,20", "",
                                        "16,8,20,40", "0,16,20,40"])
    def test_bad_ranges_name_the_flag(self, tmp_path, ranges, capsys):
        assert main(["decompose", "--ranges", ranges,
                     "--out", str(tmp_path / "run"), "--mock",
                     str(FIXTURES / "decompose_response.txt"),
                     str(FIXTURES / "schedule_response.txt")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: bad --ranges {ranges!r}; want a_min,a_max,i_min,i_max")

    def test_bad_cli_strings_exit_nonzero(self, tmp_path, checkpoint):
        base = ["eval", "--policy", checkpoint, "--out", str(tmp_path)]
        assert main(base + ["--schedule", "fixed:16"]) == 1
        assert main(base + ["--schedule", "fixed:0,10"]) == 1
        assert main(base + ["--schedule", "nonsense"]) == 1
        assert main(base + ["--seeds", "a,b"]) == 1
        assert main(["decompose", "--ranges", "1,2,3",
                     "--out", str(tmp_path), "--mock",
                     str(FIXTURES / "decompose_response.txt"),
                     str(FIXTURES / "schedule_response.txt")]) == 1


class TestGenData:
    def test_writes_loadable_demos_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        assert main(["gen-data", "--n", "2", "--seed", "5",
                     "--out", str(out)]) == 0
        ds = load_demos(str(out / "demos.bin"))
        assert ds.n_traj == 2
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == "gen-data"
        assert doc["args"]["n"] == 2
        assert doc["args"]["seed"] == 5
        assert doc["args"]["noise"] == 0.0

    def test_overflowing_noise_prints_only_the_error(self, tmp_path):
        """Noise of 1e308 overflows the scaled draws; they clip to the
        action bounds without a warning, and the expert's failure is the
        one stderr line (in a fresh process, where warnings print)."""
        src = pathlib.Path(diffpol.rollout.__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "diffpol.cli", "gen-data", "--n", "3",
             "--noise", "1e308", "--out", str(tmp_path / "d")],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True)
        assert proc.returncode == 1
        assert proc.stderr == \
            "error: expert failed too often; check noise_level\n"
        assert not (tmp_path / "d").exists()

    def test_env_seed_past_int64_exits_1(self, tmp_path, capsys):
        """A demo file stores env seeds as int64: the last one fits."""
        out = tmp_path / "run"
        argv = ["gen-data", "--seed", str(2 ** 63 - 1), "--out", str(out)]
        assert main(argv + ["--n", "2"]) == 1
        assert capsys.readouterr().err == \
            f"error: env seed {2 ** 63} is outside int64\n"
        assert not out.exists()
        assert main(argv + ["--n", "1"]) == 0
        assert load_demos(str(out / "demos.bin")).env_seeds.tolist() == \
            [2 ** 63 - 1]


class TestTrain:
    def test_zero_steps_is_a_valid_run(self, tmp_path, demo_file):
        out = tmp_path / "run"
        rc = main(["train", "--steps", "0", "--data", demo_file,
                   "--out", str(out)] + TINY)
        assert rc == 0
        assert (out / "checkpoint.bin").is_file()
        lines = (out / "report.csv").read_text().splitlines()
        assert lines == ["step,loss,eval_success,sampler_entropy"]

    def test_report_rows_follow_resolved_steps(self, tmp_path, demo_file):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"steps": 3, **json.loads((FIXTURES / "tiny_train.json")
                                      .read_text())}))
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--steps", "5",
                   "--data", demo_file, "--out", str(out)])
        assert rc == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert len(lines) == 1 + 5  # header plus one row per step
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["args"]["steps"] == 5

    def test_weights_csv_replays_byte_for_byte(self, tmp_path, demo_file):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {**json.loads((FIXTURES / "tiny_train.json").read_text()),
             "steps": 6, "snapshot_every": 2, "mode": "aln",
             "data": demo_file}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg), "--out", str(a)]) == 0
        assert run_from_manifest(str(a / "manifest.json"), str(b)) == 0
        blob = (a / "weights.csv").read_bytes()
        assert blob == (b / "weights.csv").read_bytes()
        rows = [line.split(",") for line in blob.decode().splitlines()]
        assert rows[0] == ["step", "w0", "w1"]  # two demo trajectories
        assert [r[0] for r in rows[1:]] == ["2", "4", "6"]
        w = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
        np.testing.assert_allclose(w.mean(axis=1), 1.0)  # mean-one weights
        assert not np.allclose(w[-1], 1.0)  # aln moved them after warmup

    def test_weights_csv_without_snapshots_is_a_header(self, tmp_path,
                                                        demo_file):
        out = tmp_path / "run"
        assert main(["train", "--steps", "0", "--data", demo_file,
                     "--out", str(out)] + TINY) == 0
        assert (out / "weights.csv").read_bytes() == b"step\r\n"

    def test_window_per_row_demo_file_exits_1(self, tmp_path, demo_file,
                                              capsys):
        old = tmp_path / "old.bin"
        old.write_bytes(b"DIFFDEM1" + pathlib.Path(demo_file).read_bytes()[8:])
        out = tmp_path / "run"
        assert main(["train", "--steps", "1", "--data", str(old),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {old}: DIFFDEM1 demo file predates")
        assert err.count("\n") == 1 and "gen-data" in err
        assert not out.exists()

    def test_eval_episodes_past_one_seed_exit_1_before_training(
            self, tmp_path, demo_file, capsys, monkeypatch):
        def no_training(*args):
            raise AssertionError("train() ran")

        monkeypatch.setattr(diffpol.cli, "train", no_training)
        out = tmp_path / "run"
        assert main(["train", "--steps", "400", "--eval-every", "300",
                     "--eval-episodes", "20000", "--data", demo_file,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eval_episodes 20000 ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestEval:
    def test_report_structure(self, tmp_path, checkpoint):
        out = tmp_path / "run"
        rc = main(["eval", "--policy", checkpoint, "--episodes", "2",
                   "--schedule", "fixed:16,2", "--sampler", "ddim",
                   "--seeds", "0", "--out", str(out)])
        assert rc == 0
        rows = dict(line.split(",") for line in
                    (out / "report.csv").read_text().splitlines()[1:])
        assert rows["n_episodes"] == "2"
        assert rows["total_steps"] == "400"  # untrained policy times out
        assert rows["total_calls"] == "52"   # ceil(200/16)*2 calls per episode
        assert "seed_0_success" in rows

    def test_table_file_matches_builtin_oracle_hvts(self, tmp_path,
                                                    checkpoint):
        table = tmp_path / "sched.json"
        table.write_text(schedule_to_json(hvts_schedule_table()))
        a, b = tmp_path / "a", tmp_path / "b"
        common = ["eval", "--policy", checkpoint, "--episodes", "1",
                  "--sampler", "ddim", "--seeds", "0"]
        assert main(common + ["--schedule", "oracle-hvts",
                              "--out", str(a)]) == 0
        assert main(common + ["--schedule", f"table:{table}",
                              "--out", str(b)]) == 0
        assert (a / "report.csv").read_bytes() == \
            (b / "report.csv").read_bytes()

    def test_repeated_seeds_exit_1(self, tmp_path, checkpoint, capsys):
        out = tmp_path / "run"
        assert main(["eval", "--policy", checkpoint, "--episodes", "1",
                     "--seeds", "0,0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: evaluation seeds repeat: (0, 0)\n"
        assert not out.exists()

    def test_checkpoint_T_above_the_bound_exits_1(self, tmp_path, checkpoint,
                                                  capsys):
        blob = pathlib.Path(checkpoint).read_bytes()
        big = tmp_path / "big_T.bin"  # header T sits at bytes 56..64
        big.write_bytes(blob[:56] + struct.pack("<q", 10_001) + blob[64:])
        assert main(["eval", "--policy", str(big), "--episodes", "1",
                     "--seeds", "0", "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == \
            f"error: {big}: header T 10001 exceeds 10000\n"

    def test_table_steps_beyond_T_exit_1_before_any_episode(
            self, tmp_path, checkpoint, monkeypatch, capsys):
        """A table stage asking for 300 denoising steps of a T=100
        checkpoint is refused up front, not when a policy reaches it."""
        entries = json.loads(schedule_to_json(hvts_schedule_table()))
        for e in entries:
            if e["name"] == "push":
                e["num_inference_steps"] = 300
        table = tmp_path / "sched.json"
        table.write_text(json.dumps(entries))
        episodes = []
        monkeypatch.setattr(diffpol.rollout, "rollout",
                            lambda *a, **k: episodes.append(a))
        rc = main(["eval", "--policy", checkpoint, "--episodes", "1",
                   "--schedule", f"table:{table}",
                   "--out", str(tmp_path / "run")])
        assert rc == 1 and episodes == []
        assert capsys.readouterr().err == \
            "error: stage 'push': 300 denoising steps outside [1, 100]\n"

    def test_short_table_exits_1_before_any_episode(
            self, tmp_path, checkpoint, monkeypatch, capsys):
        """A valid three-stage table (approach, align, push) cannot
        serve the five-stage task: refused up front, not in the first
        episode that reaches the reach stage."""
        entries = json.loads(schedule_to_json(hvts_schedule_table()))[:3]
        table = tmp_path / "sched.json"
        table.write_text(json.dumps(entries))
        episodes = []
        monkeypatch.setattr(diffpol.rollout, "rollout",
                            lambda *a, **k: episodes.append(a))
        rc = main(["eval", "--policy", checkpoint, "--episodes", "1",
                   "--schedule", f"table:{table}",
                   "--out", str(tmp_path / "run")])
        assert rc == 1 and episodes == []
        assert capsys.readouterr().err == \
            "error: schedule table has 3 stages; the task has 5\n"

    def test_reordered_stage_names_exit_1_before_any_episode(
            self, tmp_path, checkpoint, monkeypatch, capsys):
        """The oracle applies a table by position, so the built-in table
        saved in reversed order would run push's budget on another
        stage: refused up front."""
        entries = json.loads(schedule_to_json(hvts_schedule_table()))[::-1]
        table = tmp_path / "sched.json"
        table.write_text(json.dumps(entries))
        episodes = []
        monkeypatch.setattr(diffpol.rollout, "rollout",
                            lambda *a, **k: episodes.append(a))
        rc = main(["eval", "--policy", checkpoint, "--episodes", "1",
                   "--schedule", f"table:{table}",
                   "--out", str(tmp_path / "run")])
        assert rc == 1 and episodes == []
        assert capsys.readouterr().err == ("error: schedule table has stage "
                                           "'complete' at position 0; the "
                                           "task has it at 4\n")

    def test_missing_checkpoint_fails(self, tmp_path):
        assert main(["eval", "--policy", str(tmp_path / "nope.bin"),
                     "--out", str(tmp_path)]) == 1

    def test_v1_checkpoint_exits_1(self, tmp_path, checkpoint, capsys):
        v1 = tmp_path / "v1.bin"
        v1.write_bytes(b"DIFFPOL1" + pathlib.Path(checkpoint).read_bytes()[8:])
        assert main(["eval", "--policy", str(v1),
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {v1}: DIFFPOL1 checkpoint predates")

    def test_samples_under_the_checkpoint_noise_schedule(self, tmp_path):
        """A policy trained under non-default betas is evaluated under
        them, with no eval setting to repeat them."""
        demos = tmp_path / "demos"
        assert main(["gen-data", "--n", "10", "--out", str(demos)]) == 0
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "steps": 1000, "hidden": 64, "embed_dim": 16, "batch_size": 32,
            "warmup": 1, "beta_start": 1e-3, "beta_end": 0.05}))
        policy = tmp_path / "policy"
        assert main(["train", "--config", str(cfg), "--out", str(policy),
                     "--data", str(demos / "demos.bin")]) == 0
        ckpt = str(policy / "checkpoint.bin")
        out = tmp_path / "eval"
        assert main(["eval", "--policy", ckpt, "--episodes", "3",
                     "--schedule", "oracle-hvts", "--sampler", "ddim",
                     "--seeds", "0", "--out", str(out)]) == 0
        params = load_checkpoint(ckpt)

        def report(sched) -> bytes:
            m = evaluate(params, sched, 3, hvts_schedule_table(), "ddim",
                         seeds=(0,))
            rows = [("metric", "value")] + _metrics_rows(m)
            return "".join(f"{k},{v}\r\n" for k, v in rows).encode()

        got = (out / "report.csv").read_bytes()
        assert got == report(make_noise_schedule(100, 1e-3, 0.05))
        # the default schedule visits other stages here, so the check
        # above tells the two schedules apart
        assert got != report(make_noise_schedule(100))

    def test_decomposed_table_keeps_its_precision_stage(self, tmp_path,
                                                        checkpoint,
                                                        monkeypatch):
        """decompose --ranges 8,16,20,60 writes an (8, 60) stage, and
        eval --schedule table: runs it at 60 denoiser steps."""
        stages = tmp_path / "stages"
        assert main(["decompose", *TestDecompose.MOCK,
                     "--out", str(stages)]) == 0
        table = stages / "schedule.json"
        entries = json.loads(table.read_text())
        precision = [i for i, e in enumerate(entries)
                     if (e["n_action_steps"], e["num_inference_steps"])
                     == (8, 60)]
        assert len(precision) == 1
        # every classification lands on the precision stage
        monkeypatch.setattr(diffpol.scheduling.OracleStageClassifier,
                            "classify",
                            lambda self, state: precision[0])
        out = tmp_path / "eval"
        assert main(["eval", "--policy", checkpoint, "--episodes", "1",
                     "--sampler", "ddim", "--seeds", "0",
                     "--schedule", f"table:{table}", "--out", str(out)]) == 0
        rows = dict(line.split(",") for line in
                    (out / "report.csv").read_text().splitlines()[1:])
        assert rows["total_steps"] == "200"  # untrained policy times out
        assert rows["total_calls"] == str(200 // 8 * 60)


def _completion(text: str) -> bytes:
    return json.dumps(
        {"choices": [{"message": {"content": text}}]}).encode()


class TestDecompose:
    MOCK = ["--mock", str(FIXTURES / "decompose_response.txt"),
            str(FIXTURES / "schedule_response.txt"),
            "--ranges", "8,16,20,60"]

    def test_mock_artifacts_match_goldens(self, tmp_path):
        out = tmp_path / "run"
        assert main(["decompose", *self.MOCK, "--out", str(out)]) == 0
        assert (out / "stages.json").read_bytes() == \
            (FIXTURES / "stages_expected.json").read_bytes()
        assert (out / "schedule.json").read_bytes() == \
            (FIXTURES / "schedule_expected.json").read_bytes()

    def test_mock_mode_never_touches_the_network(self, tmp_path,
                                                 monkeypatch):
        def boom(url, body, timeout):
            raise AssertionError("http_post used in mock mode")

        monkeypatch.setattr(diffpol.scheduling, "http_post", boom)
        args = resolved(["decompose", *self.MOCK,
                         "--out", str(tmp_path / "run")])
        assert cmd_decompose(args) == 0

    def test_live_path_posts_both_prompts(self, tmp_path, monkeypatch):
        replies = [_completion(
            (FIXTURES / "decompose_response.txt").read_text()),
            _completion((FIXTURES / "schedule_response.txt").read_text())]
        calls = []

        def fake(url, body, timeout):
            calls.append((url, body))
            return replies[len(calls) - 1]

        monkeypatch.setattr(diffpol.scheduling, "http_post", fake)
        out = tmp_path / "run"
        # the flags prompt_decomposition.txt was built with
        args = resolved(["decompose", "--task", TASK_DESCRIPTION,
                         "--num-images", "8", "--num-stages", "5",
                         "--ranges", "8,16,20,60",
                         "--endpoint", "http://unit.test/v1",
                         "--out", str(out)])
        assert cmd_decompose(args) == 0
        assert len(calls) == 2
        # the whole first body, byte for byte: one text part, the prompt
        prompt = (FIXTURES / "prompt_decomposition.txt").read_text()
        assert calls[0][1] == json.dumps({
            "messages": [{"role": "user", "content": [
                {"type": "text", "text": prompt}]}],
            "temperature": 0.1,
            "top_p": 0.7,
            "max_new_tokens": 1024,
        }).encode("utf-8")
        second = json.loads(calls[1][1])["messages"][0]["content"][0]["text"]
        assert "robot_arm" in second  # built from the parsed stage names
        assert (out / "schedule.json").read_bytes() == \
            (FIXTURES / "schedule_expected.json").read_bytes()

    @pytest.mark.parametrize("reply", [
        urllib.error.URLError(ConnectionRefusedError("refused")),
        b"not json"])
    def test_endpoint_failures_print_one_error_line(self, tmp_path,
                                                    monkeypatch, capsys,
                                                    reply):
        def post(url, body, timeout):
            if isinstance(reply, Exception):
                raise reply
            return reply

        monkeypatch.setattr(diffpol.scheduling, "http_post", post)
        rc = main(["decompose", "--endpoint", "http://unit.test/v1",
                   "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_endpoint_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENDPOINT_ENV_VAR, "http://from.env/chat")
        replies = [(FIXTURES / "decompose_response.txt").read_text(),
                   (FIXTURES / "schedule_response.txt").read_text()]
        urls = []

        def fake(url, body, timeout):
            urls.append(url)
            return _completion(replies[len(urls) - 1])

        monkeypatch.setattr(diffpol.scheduling, "http_post", fake)
        args = resolved(["decompose", "--ranges", "8,16,20,60",
                         "--out", str(tmp_path / "run")])
        assert args["endpoint"] is None
        assert cmd_decompose(args) == 0
        assert urls == ["http://from.env/chat"] * 2

    def test_non_finite_count_prints_one_error_line(self, tmp_path, capsys):
        reply = tmp_path / "schedule.txt"
        reply.write_text((FIXTURES / "schedule_response.txt").read_text()
                         .replace('"num_inference_steps": 60',
                                  '"num_inference_steps": Infinity'))
        rc = main(["decompose", "--mock", self.MOCK[1], str(reply),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: stage 'robot_arm_releases_can_into_compartment': "
            "count is not finite: inf\n")

    def test_no_endpoint_and_no_mock_fails(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
        assert main(["decompose", "--out", str(tmp_path)]) == 1


class TestBench:
    def test_table_shape_and_self_baseline(self, tmp_path, checkpoint):
        out = tmp_path / "run"
        rc = main(["bench", "--policy", checkpoint, "--episodes", "1",
                   "--seeds", "0", "--out", str(out)])
        assert rc == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("sampler,schedule,success_rate")
        baseline = lines[1].split(",")
        # row one is compared with itself, so its reduction is exactly 1
        assert baseline[0] == "ddpm"
        assert lines[1].split(",")[-2] == "1"
        samplers = [ln.split(",")[0] for ln in lines[1:]]
        assert samplers == ["ddpm", "ddpm", "ddim", "ddim"]

    def test_steps_beyond_T_exit_1(self, tmp_path, capsys):
        """The first bench row, fixed (16, 100), cannot run on a T=50
        checkpoint."""
        d_feat = policy_features(np.zeros(6)).size
        ckpt = tmp_path / "t50.bin"
        save_checkpoint(str(ckpt), init_params(0, d_o=d_feat, T_p=16, d_a=2,
                                               hidden=16, embed_dim=8, T=50))
        assert main(["bench", "--policy", str(ckpt), "--episodes", "1",
                     "--seeds", "0", "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == \
            "error: stage 'approach': 100 denoising steps outside [1, 50]\n"

    def test_replay_from_manifest_is_bit_identical(self, tmp_path,
                                                   checkpoint):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["bench", "--policy", checkpoint, "--episodes", "1",
                     "--seeds", "0", "--out", str(a)]) == 0
        assert run_from_manifest(str(a / "manifest.json"), str(b)) == 0
        assert (a / "report.csv").read_bytes() == \
            (b / "report.csv").read_bytes()


class TestManifest:
    def test_manifest_is_stable_json(self, tmp_path):
        out = tmp_path / "run"
        main(["gen-data", "--n", "2", "--out", str(out)])
        text = (out / "manifest.json").read_text()
        doc = json.loads(text)
        assert text.endswith("\n")
        # replaying must need nothing beyond the recorded values
        assert text == json.dumps(doc, indent=4, sort_keys=True) + "\n"
        assert set(doc) == {"command", "args"}

    def test_manifest_with_schedule_keys_is_refused(self, tmp_path,
                                                    checkpoint, capsys):
        """eval no longer takes beta_start/beta_end (the checkpoint
        carries them) or gap (a classifier returns the stage itself, so
        nothing reads it), so a manifest that still holds them cannot
        replay."""
        run = tmp_path / "run"
        assert main(["eval", "--policy", checkpoint, "--episodes", "1",
                     "--schedule", "fixed:16,2", "--seeds", "0",
                     "--out", str(run)]) == 0
        doc = json.loads((run / "manifest.json").read_text())
        doc["args"].update(beta_start=1e-4, beta_end=0.02, gap=0.2)
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_from_manifest(str(old), str(tmp_path / "replay")) == 1
        assert capsys.readouterr().err == \
            "error: unknown config keys for eval: " \
            "['beta_end', 'beta_start', 'gap']\n"

    def test_gen_data_replay(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen-data", "--n", "2", "--seed", "1", "--out", str(a)])
        assert run_from_manifest(str(a / "manifest.json"), str(b)) == 0
        assert (a / "demos.bin").read_bytes() == (b / "demos.bin").read_bytes()
