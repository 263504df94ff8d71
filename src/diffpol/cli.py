"""Command line front end: demo generation, training, evaluation, stage
artifact production, and the sampler/schedule benchmark table.

Settings resolve as flag > config file > built-in default.  The config
file (--config) is a JSON object keyed by flag name.  Every command
writes its resolved settings to <out>/manifest.json, and
run_from_manifest replays a recorded run; because all randomness flows
from the recorded seeds, a replay reproduces the CSV artifacts bit for
bit.  Wall-clock timings are printed to stdout only, never written to
files.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import struct
import sys
import tempfile
from dataclasses import fields

import numpy as np

from .env import TASK_DESCRIPTION, generate_demos, load_demos, save_demos
from .nets import load_checkpoint, save_checkpoint
from .rollout import compare_speedup, evaluate, hvts_schedule_table
from .scheduling import ENDPOINT_ENV_VAR, ClassifierError, complete_text
from .stages import (
    ScheduleRanges,
    StageParseError,
    build_decomposition_prompt,
    build_schedule_prompt,
    parse_schedule,
    parse_stage_templates,
    schedule_from_json,
    schedule_to_json,
    templates_to_json,
)
from .training import TrainConfig, train


def _train_extras() -> dict:
    out = {}
    for f in fields(TrainConfig):
        if f.name != "total_steps":
            out[f.name] = f.default
    return out


# Built-in defaults per command; None marks values that must be supplied
# by a flag or the config file.
DEFAULTS = {
    "gen-data": {"n": 100, "seed": 0, "noise": 0.0, "out": None},
    "train": {"mode": "uniform", "steps": None, "data": None, "out": None,
              "eval_episodes": 20, **_train_extras()},
    "eval": {"policy": None, "episodes": 50, "schedule": "fixed:16,100",
             "sampler": "ddpm", "seeds": "0,1,2", "out": None},
    "decompose": {"task": TASK_DESCRIPTION, "num_images": 8, "num_stages": 5,
                  "ranges": "8,16,20,40", "mock": None, "endpoint": None,
                  "timeout": 10.0, "out": None},
    "bench": {"policy": None, "episodes": 50, "seeds": "0,1,2", "out": None},
}

_REQUIRED = {
    "gen-data": ("out",),
    "train": ("steps", "data", "out"),
    "eval": ("policy", "out"),
    "decompose": ("out",),
    "bench": ("policy", "out"),
}

# Flag values that name filesystem paths, made absolute in the manifest
# so a replay works from any working directory.
_PATH_KEYS = {
    "gen-data": ("out",),
    "train": ("data", "out"),
    "eval": ("policy", "out"),
    "decompose": ("out",),
    "bench": ("policy", "out"),
}

_BENCH_ROWS = (
    ("ddpm", "fixed:16,100"),
    ("ddpm", "oracle-hvts"),
    ("ddim", "fixed:16,25"),
    ("ddim", "oracle-hvts"),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diffpol",
        description="Diffusion-policy toolkit for the toy push benchmark.")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        # SUPPRESS keeps unset flags out of the namespace so the
        # flag > config > default precedence can be resolved later.
        p = sub.add_parser(name, help=help_,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--config", metavar="FILE",
                       help="JSON object with defaults for any flag")
        p.add_argument("--out", metavar="DIR",
                       help="output directory, created if missing")
        return p

    g = add("gen-data", "generate scripted-expert demonstrations")
    g.add_argument("--n", type=int, help="number of demonstrations")
    g.add_argument("--seed", type=int, help="base RNG seed")
    g.add_argument("--noise", type=float, help="expert action noise scale")

    t = add("train", "train a denoiser on saved demonstrations")
    t.add_argument("--mode", choices=("uniform", "aln"),
                   help="uniform baseline or adaptive sampling")
    t.add_argument("--steps", type=int, help="gradient steps")
    t.add_argument("--seed", type=int, help="RNG seed")
    t.add_argument("--data", metavar="FILE", help="demo file from gen-data")
    t.add_argument("--batch-size", type=int, dest="batch_size",
                   help="minibatch size")
    t.add_argument("--warmup", type=int,
                   help="uniform warmup steps before adaptation kicks in")
    t.add_argument("--entropy-coef", type=float, dest="entropy_coef",
                   help="timestep sampler entropy coefficient")
    t.add_argument("--lr", type=float, help="denoiser learning rate")
    t.add_argument("--eval-every", type=int, dest="eval_every",
                   help="rollout-evaluate every N steps, 0 disables")
    t.add_argument("--eval-episodes", type=int, dest="eval_episodes",
                   help="episodes per mid-training evaluation")

    e = add("eval", "evaluate a checkpoint on fresh episodes")
    e.add_argument("--policy", metavar="FILE", help="checkpoint to load")
    e.add_argument("--episodes", type=int,
                   help="episodes per evaluation seed")
    e.add_argument("--schedule",
                   help="fixed:<Na>,<Nd> | table:<path> | oracle-hvts")
    e.add_argument("--sampler", choices=("ddpm", "ddim"),
                   help="reverse-process sampler")
    e.add_argument("--seeds", help="comma-separated evaluation seeds")

    d = add("decompose", "produce stage and schedule artifacts")
    d.add_argument("--task", help="task description fed to the prompts")
    d.add_argument("--num-images", type=int, dest="num_images",
                   help="frames mentioned in the prompt")
    d.add_argument("--num-stages", type=int, dest="num_stages",
                   help="stages to request")
    d.add_argument("--ranges",
                   help="a_min,a_max,i_min,i_max budget bounds")
    d.add_argument("--mock", nargs=2,
                   metavar=("DECOMP_FILE", "SCHED_FILE"),
                   help="read canned responses instead of calling the "
                   "endpoint; no network traffic in this mode")
    d.add_argument("--endpoint", help="completion endpoint URL (default: "
                   f"${ENDPOINT_ENV_VAR})")
    d.add_argument("--timeout", type=float,
                   help="endpoint timeout in seconds")

    b = add("bench", "four-row sampler/schedule comparison table")
    b.add_argument("--policy", metavar="FILE", help="checkpoint to load")
    b.add_argument("--episodes", type=int,
                   help="episodes per evaluation seed")
    b.add_argument("--seeds", help="comma-separated evaluation seeds")

    # each flag's help shows its built-in default, read from DEFAULTS
    for name, p in sub.choices.items():
        for a in p._actions:
            v = DEFAULTS[name].get(a.dest)
            if a.help is not None and v is not None:
                a.help += f" (default {v:g})" if isinstance(v, float) \
                    else f" (default {v})"
    return ap


def _flag_actions(command: str) -> dict[str, argparse.Action]:
    """The command's flags by destination key."""
    ap = build_parser()
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions}


def _from_config(key: str, value, action: argparse.Action | None, default):
    """Convert one config-file value as its flag would convert the same
    text: the flag's type and choices, or, for a key with no flag, the
    type of its default.  None means "not given" and passes through."""
    if value is None:
        return None
    if action is not None and action.nargs == 2:
        if not (isinstance(value, list) and len(value) == 2
                and all(isinstance(v, str) for v in value)):
            raise ValueError(f"config key {key!r} wants a list of two "
                             f"strings, got {value!r}")
        return value
    conv = (action.type or str) if action is not None else type(default)
    if isinstance(value, (bool, list, dict)):
        raise ValueError(f"config key {key!r} wants a {conv.__name__}, "
                         f"got {value!r}")
    try:
        out = conv(str(value))
    except ValueError:
        raise ValueError(f"config key {key!r}: invalid {conv.__name__} "
                         f"value {value!r}") from None
    if action is not None and action.choices and out not in action.choices:
        raise ValueError(f"config key {key!r}: {out!r} is not one of "
                         f"{list(action.choices)}")
    return out


def resolve_args(command: str, ns: argparse.Namespace) -> dict:
    """Merge flags over config file over defaults; check required keys."""
    given = dict(vars(ns))
    given.pop("command", None)
    cfg_path = given.pop("config", None)
    merged = dict(DEFAULTS[command])
    if cfg_path is not None:
        with open(cfg_path) as f:
            loaded = json.load(f)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(loaded) - set(merged)
        if unknown:
            raise ValueError(
                f"unknown config keys for {command}: {sorted(unknown)}")
        actions = _flag_actions(command)
        merged.update({k: _from_config(k, v, actions.get(k), merged[k])
                       for k, v in loaded.items()})
    merged.update(given)
    for key in _REQUIRED[command]:
        if merged.get(key) is None:
            raise ValueError(
                f"{command} requires --{key.replace('_', '-')} "
                "(flag or config file)")
    for key in _PATH_KEYS[command]:
        if merged.get(key) is not None:
            merged[key] = os.path.abspath(merged[key])
    if merged.get("mock") is not None:
        merged["mock"] = [os.path.abspath(p) for p in merged["mock"]]
    sched = merged.get("schedule")
    if isinstance(sched, str) and sched.startswith("table:"):
        merged["schedule"] = "table:" + os.path.abspath(sched[len("table:"):])
    return merged


def write_manifest(out_dir: str, command: str, args: dict) -> None:
    doc = {"command": command, "args": args}
    _write_text(os.path.join(out_dir, "manifest.json"),
                json.dumps(doc, indent=4, sort_keys=True) + "\n")


def run_from_manifest(path: str, out: str | None = None) -> int:
    """Replay a recorded run, optionally into a different directory.

    The manifest already holds every resolved setting, so it is replayed
    by handing the stored values back as a config file.
    """
    with open(path) as f:
        doc = json.load(f)
    args = dict(doc["args"])
    if out is not None:
        args["out"] = out
    fd, tmp = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(args, f)
        return main([doc["command"], "--config", tmp])
    finally:
        os.unlink(tmp)


# -- shared plumbing ----------------------------------------------------------


def _ensure_out(path: str) -> str:
    path = os.path.abspath(path)
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
    parts = str(text).split(",")
    if len(parts) != 4:
        raise ValueError(
            f"bad --ranges {text!r}; want a_min,a_max,i_min,i_max")
    return ScheduleRanges(*(int(p) for p in parts))


def _parse_schedule_arg(text: str):
    """Decode --schedule into what evaluate() consumes: a fixed pair, or
    a ScheduleTable for the oracle-classified scheduler."""
    if text == "oracle-hvts":
        return hvts_schedule_table()
    kind, sep, rest = text.partition(":")
    if sep and kind == "fixed":
        parts = rest.split(",")
        if len(parts) == 2:
            try:
                return int(parts[0]), int(parts[1])
            except ValueError:
                pass
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
    out = _ensure_out(args["out"])
    ds = generate_demos(args["n"], args["seed"], args["noise"])
    save_demos(os.path.join(out, "demos.bin"), ds)
    write_manifest(out, "gen-data", args)
    windows = sum(tr.n_windows for tr in ds.trajectories)
    mean_len = float(np.mean([tr.length for tr in ds.trajectories]))
    print(f"wrote {ds.n_traj} demos ({windows} windows, mean length "
          f"{mean_len:.1f}) to {out}")
    return 0


def cmd_train(args: dict) -> int:
    _require_file(args["data"], "demo file")
    tc = TrainConfig(total_steps=args["steps"],
                     **{f.name: args[f.name] for f in fields(TrainConfig)
                        if f.name != "total_steps"})
    out = _ensure_out(args["out"])
    ds = load_demos(args["data"])
    eval_fn = None
    if tc.eval_every > 0:
        n_ep = args["eval_episodes"]
        # Offset keeps evaluation env seeds clear of the demo seeds.
        eval_seed = tc.seed + 101

        def eval_fn(params):
            m = evaluate(params, params.noise_schedule(), n_ep, (8, 10),
                         "ddim", seeds=(eval_seed,))
            return m.success_rate

    params, report = train(tc, ds, args["mode"], eval_fn)
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
    out = _ensure_out(args["out"])
    params = load_checkpoint(args["policy"])
    schedule = _parse_schedule_arg(args["schedule"])
    m = evaluate(params, params.noise_schedule(), args["episodes"], schedule,
                 args["sampler"], seeds=_parse_seeds(args["seeds"]))
    with open(os.path.join(out, "report.csv"), "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["metric", "value"])
        wr.writerows(_metrics_rows(m))
    write_manifest(out, "eval", args)
    print(f"success {m.success_rate:.3f} (early {m.early_success_rate:.3f}), "
          f"{m.mean_calls_per_step:.4f} denoiser calls per control step over "
          f"{m.total_steps} steps")
    return 0


def cmd_decompose(args: dict, transport=None) -> int:
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
    out = _ensure_out(args["out"])
    ranges = _parse_ranges(args["ranges"])

    def respond(i: int, prompt: str) -> str:
        if mock is not None:
            with open(mock[i]) as f:
                return f.read()
        return complete_text(endpoint, [{"type": "text", "text": prompt}],
                             args["timeout"], transport)

    stage_templates = parse_stage_templates(
        respond(0, build_decomposition_prompt(args["task"],
                                              args["num_images"],
                                              args["num_stages"])),
        expected_n=args["num_stages"])
    table = parse_schedule(
        respond(1, build_schedule_prompt(stage_templates, ranges)),
        [s.name for s in stage_templates], ranges)

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
    out = _ensure_out(args["out"])
    params = load_checkpoint(args["policy"])
    sched = params.noise_schedule()
    seeds = _parse_seeds(args["seeds"])
    metrics = []
    for sampler, label in _BENCH_ROWS:
        m = evaluate(params, sched, args["episodes"],
                     _parse_schedule_arg(label), sampler, seeds=seeds)
        metrics.append(m)
    reports = [compare_speedup(metrics[0], m) for m in metrics]
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


_HANDLERS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "decompose": cmd_decompose,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        args = resolve_args(ns.command, ns)
        return _HANDLERS[ns.command](args)
    except (ValueError, OSError, RuntimeError, struct.error,
            StageParseError, ClassifierError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
