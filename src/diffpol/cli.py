"""Command line front end: demo generation, training, evaluation, stage
artifact production, and the sampler/schedule benchmark table.

Settings resolve as flag > config file > built-in default.  Each
command's settings are declared once, in SETTINGS, from which the
parser, the defaults, the required-key check and the conversion of
config values are all derived.  The config file (--config) is a JSON
object keyed by setting name.  Every command writes its resolved
settings to <out>/manifest.json, and run_from_manifest replays a
recorded run by resolving the manifest's settings as a config file's;
because all randomness flows from the recorded seeds, a replay
reproduces the CSV artifacts bit for bit.  Wall-clock timings are
printed to stdout only, never written to files.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import struct
import sys
from dataclasses import fields
from typing import NamedTuple

from . import pin_blas_threads

pin_blas_threads()  # before the imports below load numpy

from .env import TASK_DESCRIPTION, generate_demos, load_demos, save_demos
from .nets import load_checkpoint, save_checkpoint
from .rollout import EPISODES_PER_SEED, compare_speedup, evaluate, \
    fixed_schedule_table, hvts_schedule_table
from .scheduling import ENDPOINT_ENV_VAR, ClassifierError, complete_text
from .stages import (
    ScheduleRanges,
    build_decomposition_prompt,
    build_schedule_prompt,
    parse_schedule,
    parse_stage_templates,
    schedule_from_json,
    schedule_to_json,
    templates_to_json,
)
from .training import TrainConfig, train


def abs_path(text: str) -> str:
    """A path setting's value, made absolute so that the manifest
    replays from any working directory."""
    return os.path.abspath(text)


class Setting(NamedTuple):
    """One config key of one command.

    ``type`` converts the flag's text, or is the tuple of allowed
    strings.  ``help`` None marks a key with no flag, set only through
    the config file.  A tuple ``metavar`` makes the flag take that many
    values.  A required key has no default; a flag or the config file
    must give it."""
    type: object
    default: object = None
    help: str | None = None
    metavar: str | tuple[str, ...] | None = None
    required: bool = False


_OUT = Setting(abs_path, help="output directory, created if missing",
               metavar="DIR", required=True)
_POLICY = Setting(abs_path, help="checkpoint to load", metavar="FILE",
                  required=True)
_EPISODES = Setting(int, 50, "episodes per evaluation seed")
_SEEDS = Setting(str, "0,1,2", "comma-separated evaluation seeds")
_TRAIN = {f.name: f.default for f in fields(TrainConfig)}

# Every command's settings, in flag order; --config is the only flag
# that is not a setting.
SETTINGS: dict[str, dict[str, Setting]] = {
    "gen-data": {
        "out": _OUT,
        "n": Setting(int, 100, "number of demonstrations"),
        "seed": Setting(int, 0, "base RNG seed"),
        "noise": Setting(float, 0.0, "expert action noise scale"),
    },
    "train": {
        "out": _OUT,
        "mode": Setting(("uniform", "aln"), "uniform",
                        "uniform baseline or adaptive sampling"),
        "steps": Setting(int, help="gradient steps", required=True),
        "seed": Setting(int, _TRAIN["seed"], "RNG seed"),
        "data": Setting(abs_path, help="demo file from gen-data",
                        metavar="FILE", required=True),
        "batch_size": Setting(int, _TRAIN["batch_size"], "minibatch size"),
        "warmup": Setting(int, _TRAIN["warmup"],
                          "uniform warmup steps before adaptation kicks in"),
        "entropy_coef": Setting(float, _TRAIN["entropy_coef"],
                                "timestep sampler entropy coefficient"),
        "lr": Setting(float, _TRAIN["lr"], "denoiser learning rate"),
        "eval_every": Setting(int, _TRAIN["eval_every"],
                              "rollout-evaluate every N steps, 0 disables"),
        "eval_episodes": Setting(int, 20,
                                 "episodes per mid-training evaluation"),
    },
    "eval": {
        "out": _OUT,
        "policy": _POLICY,
        "episodes": _EPISODES,
        "schedule": Setting(str, "fixed:16,100",
                            "fixed:<Na>,<Nd> | table:<path> | oracle-hvts"),
        "sampler": Setting(("ddpm", "ddim"), "ddpm",
                           "reverse-process sampler"),
        "seeds": _SEEDS,
    },
    "decompose": {
        "out": _OUT,
        "task": Setting(str, TASK_DESCRIPTION,
                        "task description fed to the prompts"),
        "num_images": Setting(int, 8, "frames mentioned in the prompt"),
        "num_stages": Setting(int, 5, "stages to request"),
        "ranges": Setting(str, "8,16,20,40",
                          "a_min,a_max,i_min,i_max budget bounds"),
        "mock": Setting(abs_path, None, "read canned responses instead of "
                        "calling the endpoint; no network traffic in this "
                        "mode", ("DECOMP_FILE", "SCHED_FILE")),
        "endpoint": Setting(str, None, "completion endpoint URL (default: "
                            f"${ENDPOINT_ENV_VAR})"),
        "timeout": Setting(float, 10.0, "endpoint timeout in seconds"),
    },
    "bench": {"out": _OUT, "policy": _POLICY, "episodes": _EPISODES,
              "seeds": _SEEDS},
}
# TrainConfig's other fields are config-only train keys
SETTINGS["train"].update({k: Setting(type(v), v) for k, v in _TRAIN.items()
                          if k not in SETTINGS["train"]
                          and k != "total_steps"})

_BENCH_ROWS = (
    ("ddpm", "fixed:16,100"),
    ("ddpm", "oracle-hvts"),
    ("ddim", "fixed:16,25"),
    ("ddim", "oracle-hvts"),
)


def _flag_help(s: Setting) -> str:
    """A flag's help line, ending in its default when it has one."""
    if s.default is None:
        return s.help
    shown = f"{s.default:g}" if isinstance(s.default, float) else s.default
    return f"{s.help} (default {shown})"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diffpol",
        description="Diffusion-policy toolkit for the toy push benchmark.")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")
    for command, (_, help_) in _COMMANDS.items():
        # SUPPRESS keeps unset flags out of the namespace so the
        # flag > config > default precedence can be resolved later.
        p = sub.add_parser(command, help=help_,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--config", metavar="FILE",
                       help="JSON object with defaults for any flag")
        for key, s in SETTINGS[command].items():
            if s.help is None:
                continue
            kw = ({"choices": s.type} if isinstance(s.type, tuple)
                  else {"type": s.type})
            if isinstance(s.metavar, tuple):
                kw["nargs"] = len(s.metavar)
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           metavar=s.metavar, help=_flag_help(s), **kw)
    return ap


def _from_config(key: str, value, s: Setting):
    """Convert one config-file value as its flag would convert the same
    text.  None means "not given" and passes through."""
    if value is None:
        return None
    if isinstance(s.metavar, tuple):
        if not (isinstance(value, list) and len(value) == 2
                and all(isinstance(v, str) for v in value)):
            raise ValueError(f"config key {key!r} wants a list of two "
                             f"strings, got {value!r}")
        return [s.type(v) for v in value]
    conv = str if isinstance(s.type, tuple) else s.type
    name = "str" if conv is abs_path else conv.__name__  # as JSON gives it
    if isinstance(value, (bool, list, dict)):
        raise ValueError(f"config key {key!r} wants a {name}, "
                         f"got {value!r}")
    try:
        out = conv(str(value))
    except ValueError:
        raise ValueError(f"config key {key!r}: invalid {name} "
                         f"value {value!r}") from None
    if isinstance(s.type, tuple) and out not in s.type:
        raise ValueError(f"config key {key!r}: {out!r} is not one of "
                         f"{list(s.type)}")
    return out


def resolve_args(command: str, flags: dict, config: dict) -> dict:
    """Merge flags over config values over defaults; check required keys.

    ``flags`` holds parsed flag values, already converted by their
    types; ``config`` the raw values of a config file or manifest."""
    settings = SETTINGS[command]
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(config) - set(settings)
    if unknown:
        raise ValueError(
            f"unknown config keys for {command}: {sorted(unknown)}")
    merged = {k: s.default for k, s in settings.items()}
    merged.update({k: _from_config(k, v, settings[k])
                   for k, v in config.items()})
    merged.update(flags)
    for key, s in settings.items():
        if s.required and merged[key] is None:
            raise ValueError(
                f"{command} requires --{key.replace('_', '-')} "
                "(flag or config file)")
    sched = merged.get("schedule", "")
    if sched.startswith("table:"):
        merged["schedule"] = "table:" + abs_path(sched[len("table:"):])
    return merged


def write_manifest(out_dir: str, command: str, args: dict) -> None:
    doc = {"command": command, "args": args}
    _write_text(os.path.join(out_dir, "manifest.json"),
                json.dumps(doc, indent=4, sort_keys=True) + "\n")


def run_from_manifest(path: str, out: str | None = None) -> int:
    """Replay a recorded run, optionally into a different directory.

    The manifest already holds every resolved setting, so its values are
    resolved as a config file's would be."""
    with open(path) as f:
        doc = json.load(f)
    args = dict(doc["args"])
    if out is not None:
        args["out"] = out
    return _run(doc["command"], {}, args)


# -- shared plumbing ----------------------------------------------------------


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _require_file(path: str, what: str) -> None:
    if not os.path.isfile(path):
        raise ValueError(f"{what} not found: {path}")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="") as f:
        f.write(text)


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(p) for p in str(text).split(","))
    except ValueError:
        raise ValueError(f"bad --seeds {text!r}; want e.g. 0,1,2") from None
    if not seeds:
        raise ValueError("need at least one seed")
    return seeds


def _parse_ranges(text: str) -> ScheduleRanges:
    try:
        bounds = [int(p) for p in str(text).split(",")]
        if len(bounds) == 4:
            return ScheduleRanges(*bounds)
    except ValueError:
        pass
    raise ValueError(f"bad --ranges {text!r}; want a_min,a_max,i_min,i_max, "
                     "positive, each min at most its max")


def _parse_schedule_arg(text: str):
    """Decode --schedule into the ScheduleTable evaluate() runs under
    the oracle-classified scheduler; fixed:<Na>,<Nd> is that pair for
    every stage."""
    if text == "oracle-hvts":
        return hvts_schedule_table()
    kind, sep, rest = text.partition(":")
    if sep and kind == "fixed":
        try:
            na, nd = (int(v) for v in rest.split(","))
        except ValueError:
            pass
        else:
            return fixed_schedule_table(na, nd)
    elif sep and kind == "table":
        _require_file(rest, "schedule table")
        with open(rest) as f:
            return schedule_from_json(f.read())
    raise ValueError(
        f"bad --schedule {text!r}; use fixed:<Na>,<Nd>, table:<path>, "
        "or oracle-hvts")


def _metrics_rows(m) -> list[tuple[str, str]]:
    rows = [("success_rate", f"{m.success_rate:.17g}"),
            ("early_success_rate", f"{m.early_success_rate:.17g}"),
            ("mean_calls_per_step", f"{m.mean_calls_per_step:.17g}"),
            ("n_episodes", str(m.n_episodes)),
            ("total_calls", str(m.total_calls)),
            ("total_steps", str(m.total_steps))]
    for s, v in zip(m.seeds, m.per_seed_success):
        rows.append((f"seed_{s}_success", f"{v:.17g}"))
    return rows


# -- commands -----------------------------------------------------------------


def cmd_gen_data(args: dict) -> int:
    ds = generate_demos(args["n"], args["seed"], args["noise"])
    out = _ensure_out(args["out"])
    save_demos(os.path.join(out, "demos.bin"), ds)
    write_manifest(out, "gen-data", args)
    print(f"wrote {ds.n_traj} demos ({ds.n_windows.sum()} windows, mean "
          f"length {ds.lengths.mean():.1f}) to {out}")
    return 0


def cmd_train(args: dict) -> int:
    _require_file(args["data"], "demo file")
    tc = TrainConfig(total_steps=args["steps"],
                     **{k: args[k] for k in _TRAIN if k != "total_steps"})
    tc.check_mode(args["mode"])
    n_ep = args["eval_episodes"]
    if tc.eval_every > 0 and not 1 <= n_ep <= EPISODES_PER_SEED:
        raise ValueError(f"eval_episodes {n_ep} must lie in [1, "
                         f"{EPISODES_PER_SEED}] when eval_every > 0")
    ds = load_demos(args["data"])
    eval_fn = None
    if tc.eval_every > 0:
        # Offset keeps evaluation env seeds clear of the demo seeds.
        eval_seed = tc.seed + 101

        def eval_fn(params):
            m = evaluate(params, params.noise_schedule(), n_ep, (8, 10),
                         "ddim", seeds=(eval_seed,))
            return m.success_rate

    params, report = train(tc, ds, args["mode"], eval_fn)
    # only now, so that an error raised in train() leaves no run directory
    out = _ensure_out(args["out"])
    save_checkpoint(os.path.join(out, "checkpoint.bin"), params)
    report.to_csv(os.path.join(out, "report.csv"))
    report.snapshots_to_csv(os.path.join(out, "snapshots.csv"))
    report.weights_to_csv(os.path.join(out, "weights.csv"))
    write_manifest(out, "train", args)
    if report.eval_success:
        tail = f"final eval success {report.eval_success[-1]:.3f}"
    else:
        tail = "no mid-training evaluations"
    print(f"trained {args['mode']} for {args['steps']} steps; {tail}; "
          f"artifacts in {out}")
    return 0


def cmd_eval(args: dict) -> int:
    _require_file(args["policy"], "checkpoint")
    params = load_checkpoint(args["policy"])
    schedule = _parse_schedule_arg(args["schedule"])
    m = evaluate(params, params.noise_schedule(), args["episodes"], schedule,
                 args["sampler"], seeds=_parse_seeds(args["seeds"]))
    out = _ensure_out(args["out"])
    with open(os.path.join(out, "report.csv"), "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["metric", "value"])
        wr.writerows(_metrics_rows(m))
    write_manifest(out, "eval", args)
    print(f"success {m.success_rate:.3f} (early {m.early_success_rate:.3f}), "
          f"{m.mean_calls_per_step:.4f} denoiser calls per control step over "
          f"{m.total_steps} steps")
    return 0


def cmd_decompose(args: dict) -> int:
    """Produce stages.json and schedule.json, from canned response files
    in --mock mode or from the completion endpoint otherwise."""
    mock = args["mock"]
    endpoint = args["endpoint"] or os.environ.get(ENDPOINT_ENV_VAR)
    if mock is not None:
        for p in mock:
            _require_file(p, "canned response")
    elif not endpoint:
        raise ValueError(f"no endpoint given and {ENDPOINT_ENV_VAR} is not "
                         "set; use --mock for offline runs")
    ranges = _parse_ranges(args["ranges"])

    def respond(i: int, prompt: str) -> str:
        if mock is not None:
            with open(mock[i]) as f:
                return f.read()
        return complete_text(endpoint, prompt, args["timeout"])

    stage_templates = parse_stage_templates(
        respond(0, build_decomposition_prompt(args["task"],
                                              args["num_images"],
                                              args["num_stages"])),
        expected_n=args["num_stages"])
    table = parse_schedule(
        respond(1, build_schedule_prompt(stage_templates, ranges)),
        [s.name for s in stage_templates], ranges)

    out = _ensure_out(args["out"])
    _write_text(os.path.join(out, "stages.json"),
                templates_to_json(stage_templates))
    _write_text(os.path.join(out, "schedule.json"), schedule_to_json(table))
    write_manifest(out, "decompose", args)
    print(f"wrote {len(stage_templates)} stages and their schedule to {out}")
    return 0


def format_bench_table(rows, metrics, reports) -> str:
    """Aligned text table; wall time appears here and nowhere else."""
    lines = [f"{'sampler':<9}{'schedule':<15}{'success':>8}{'early':>8}"
             f"{'calls/step':>12}{'speedup':>9}{'ms/episode':>12}"]
    for (sampler, label), m, r in zip(rows, metrics, reports):
        lines.append(
            f"{sampler:<9}{label:<15}{m.success_rate:>8.3f}"
            f"{m.early_success_rate:>8.3f}{m.mean_calls_per_step:>12.4f}"
            f"{r.nfe_reduction:>8.2f}x{m.mean_wall_time * 1e3:>12.1f}")
    return "\n".join(lines)


def cmd_bench(args: dict) -> int:
    _require_file(args["policy"], "checkpoint")
    params = load_checkpoint(args["policy"])
    sched = params.noise_schedule()
    seeds = _parse_seeds(args["seeds"])
    metrics = []
    for sampler, label in _BENCH_ROWS:
        m = evaluate(params, sched, args["episodes"],
                     _parse_schedule_arg(label), sampler, seeds=seeds)
        metrics.append(m)
    reports = [compare_speedup(metrics[0], m) for m in metrics]
    out = _ensure_out(args["out"])
    with open(os.path.join(out, "report.csv"), "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["sampler", "schedule", "success_rate",
                     "early_success_rate", "mean_calls_per_step",
                     "nfe_reduction", "success_delta"])
        for (sampler, label), m, r in zip(_BENCH_ROWS, metrics, reports):
            wr.writerow([sampler, label, f"{m.success_rate:.17g}",
                         f"{m.early_success_rate:.17g}",
                         f"{m.mean_calls_per_step:.17g}",
                         f"{r.nfe_reduction:.17g}",
                         f"{r.success_delta:.17g}"])
    write_manifest(out, "bench", args)
    print(format_bench_table(_BENCH_ROWS, metrics, reports))
    return 0


# each command's handler and its help line
_COMMANDS = {
    "gen-data": (cmd_gen_data, "generate scripted-expert demonstrations"),
    "train": (cmd_train, "train a denoiser on saved demonstrations"),
    "eval": (cmd_eval, "evaluate a checkpoint on fresh episodes"),
    "decompose": (cmd_decompose, "produce stage and schedule artifacts"),
    "bench": (cmd_bench, "four-row sampler/schedule comparison table"),
}


def _run(command: str, flags: dict, config: dict,
         config_path: str | None = None) -> int:
    """Resolve and run one command, reading ``config`` from
    ``config_path`` when one is given; an input error prints one line
    and returns 1."""
    try:
        if config_path is not None:
            with open(config_path) as f:
                config = json.load(f)
        return _COMMANDS[command][0](resolve_args(command, flags, config))
    except (ValueError, OSError, RuntimeError, struct.error,
            ClassifierError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    flags = vars(build_parser().parse_args(argv))
    command = flags.pop("command")
    return _run(command, flags, {}, flags.pop("config", None))


if __name__ == "__main__":
    sys.exit(main())
