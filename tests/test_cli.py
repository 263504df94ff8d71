"""Command line surface: flag resolution, artifacts, manifest replay."""

import json
import pathlib
import urllib.error

import numpy as np

import pytest

import diffpol.scheduling
from diffpol.cli import (
    DEFAULTS,
    build_parser,
    cmd_decompose,
    main,
    resolve_args,
    run_from_manifest,
)
from diffpol.env import generate_demos, load_demos, policy_features, save_demos
from diffpol.nets import init_params, save_checkpoint
from diffpol.rollout import hvts_schedule_table
from diffpol.scheduling import ENDPOINT_ENV_VAR
from diffpol.stages import schedule_to_json

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
    ns = build_parser().parse_args(argv)
    return resolve_args(ns.command, ns)


class TestResolve:
    def test_defaults_apply(self, tmp_path):
        args = resolved(["gen-data", "--out", str(tmp_path)])
        assert args["n"] == DEFAULTS["gen-data"]["n"]
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
                                   "beta_end": 1, "negate_reward": True,
                                   "mode": "aln"}))
        args = resolved(["train", "--config", str(cfg), "--data", "d",
                         "--out", str(tmp_path)])
        assert args["steps"] == 12 and args["lr"] == 5e-4
        assert args["hidden"] == 8 and type(args["beta_end"]) is float
        assert args["negate_reward"] is True and args["mode"] == "aln"
        cfg.write_text(json.dumps({"seeds": 3, "gap": "0.5"}))
        args = resolved(["eval", "--config", str(cfg), "--policy", "p",
                         "--out", str(tmp_path)])
        assert args["seeds"] == "3" and args["gap"] == 0.5

    @pytest.mark.parametrize("bad", [
        {"steps": "abc"}, {"steps": 2.5}, {"steps": True}, {"lr": [1]},
        {"mode": "fast"}, {"negate_reward": 1}, {"hidden": "wide"},
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

    def test_bad_cli_strings_exit_nonzero(self, tmp_path, checkpoint):
        base = ["eval", "--policy", checkpoint, "--out", str(tmp_path)]
        assert main(base + ["--schedule", "fixed:16"]) == 1
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

    def test_missing_checkpoint_fails(self, tmp_path):
        assert main(["eval", "--policy", str(tmp_path / "nope.bin"),
                     "--out", str(tmp_path)]) == 1


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

    def test_mock_mode_never_touches_the_network(self, tmp_path):
        def boom(url, body, timeout):
            raise AssertionError("transport used in mock mode")

        args = resolved(["decompose", *self.MOCK,
                         "--out", str(tmp_path / "run")])
        assert cmd_decompose(args, transport=boom) == 0

    def test_live_path_posts_both_prompts(self, tmp_path):
        replies = [_completion(
            (FIXTURES / "decompose_response.txt").read_text()),
            _completion((FIXTURES / "schedule_response.txt").read_text())]
        calls = []

        def fake(url, body, timeout):
            calls.append((url, json.loads(body)))
            return replies[len(calls) - 1]

        out = tmp_path / "run"
        args = resolved(["decompose", "--ranges", "8,16,20,60",
                         "--endpoint", "http://unit.test/v1",
                         "--out", str(out)])
        assert cmd_decompose(args, transport=fake) == 0
        assert len(calls) == 2
        first = calls[0][1]["messages"][0]["content"][0]["text"]
        second = calls[1][1]["messages"][0]["content"][0]["text"]
        assert "Decompose the task" in first
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

    def test_gen_data_replay(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen-data", "--n", "2", "--seed", "1", "--out", str(a)])
        assert run_from_manifest(str(a / "manifest.json"), str(b)) == 0
        assert (a / "demos.bin").read_bytes() == (b / "demos.bin").read_bytes()
