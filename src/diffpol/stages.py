"""Stage protocol: templates, prompt construction, response parsing.

A long task is decomposed into named stages, and each stage is assigned
a compute budget (action horizon, denoising step count).  A schedule
table is just those named budgets.  Both exchanges are plain text with
a remote model, so every parser here is defensive: a response's array
is the first [ at which the standard JSON decoder succeeds once
trailing commas are dropped, and every entry must be an object with a
text name that is unique once normalised.  The schedule prompt's rules
bind its replies only: values are clamped into its ranges, and a
missing "hardest stage" designation is repaired by a deterministic
fallback.  Schedule files, which this program writes, load as written.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass


class StageParseError(ValueError):
    """A response could not be coerced into the expected structure."""


DESCRIPTION_PREFIX = "Action features:"


def normalize_name(name: str) -> str:
    """Collapse whitespace runs to single underscores and strip ends."""
    return "_".join(str(name).split())


# -- domain types -------------------------------------------------------------


@dataclass(frozen=True)
class StageTemplate:
    name: str
    description: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("stage name must be nonempty")
        if any(c.isspace() for c in self.name):
            raise ValueError(f"stage name {self.name!r} contains whitespace")
        if not self.description.startswith(DESCRIPTION_PREFIX):
            raise ValueError(
                f"description must begin {DESCRIPTION_PREFIX!r}")


@dataclass(frozen=True)
class ScheduleRanges:
    a_min: int = 8
    a_max: int = 16
    i_min: int = 20
    i_max: int = 40

    def __post_init__(self):
        for v in (self.a_min, self.a_max, self.i_min, self.i_max):
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError("range bounds must be positive integers")
        if self.a_min > self.a_max or self.i_min > self.i_max:
            raise ValueError("range bounds out of order")


@dataclass(frozen=True)
class ScheduleEntry:
    name: str
    n_action_steps: int
    num_inference_steps: int

    def __post_init__(self):
        if not self.name:
            raise ValueError("stage name must be nonempty")
        for key in ("n_action_steps", "num_inference_steps"):
            v = getattr(self, key)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"{key} must be a positive integer, "
                                 f"got {v!r}")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.n_action_steps, self.num_inference_steps)


@dataclass(frozen=True)
class ScheduleTable:
    """Named (N_a, N_d) budgets, one per stage, in stage order."""

    entries: tuple[ScheduleEntry, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("schedule table is empty")
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("duplicate stage names in schedule table")


# -- prompt construction ------------------------------------------------------

_DECOMPOSITION_TEMPLATE = """Task: {task_desc}

You are given {num_images} images showing the progression of the task. \
Decompose the task into exactly {num_stages} stages based on visual changes.
Each stage should describe the pixel-level visual change between states.
Naming rule: task/stage names should use underscores instead of spaces

Return exactly {num_stages} stages in JSON with schema:
[
  {{
    "name": "<stage_name>",
    "description": "Action features: <desc>"
  }}
]
"""

_SCHEDULE_TEMPLATE = """Task stages (total {num_stages}):
{stage_definitions}
Assign two parameters for each stage:
- n_action_steps: integer in [{a_min}, {a_max}]
- num_inference_steps: integer in [{i_min}, {i_max}]
Choose n_action_steps and num_inference_steps based on the relative \
difficulty of each stage.
Use smaller values for simple stages and larger values for more precise \
stages.
Do not assign the same values to all stages.

Return JSON for all stages:
[
  {{
    "name": "<stage_name>",
    "n_action_steps": <N_a>,
    "num_inference_steps": <N_d>
  }}
]
"""

def format_stage_definitions(stages: list[StageTemplate]) -> str:
    """One "name: description" line per stage, template order."""
    return "\n".join(f"{s.name}: {s.description}" for s in stages)


def build_decomposition_prompt(task_desc: str, num_images: int,
                               num_stages: int) -> str:
    if not task_desc or not task_desc.strip():
        raise ValueError("task_desc must be nonempty")
    if num_images < 1:
        raise ValueError("num_images must be >= 1")
    if num_stages < 1:
        raise ValueError("num_stages must be >= 1")
    return _DECOMPOSITION_TEMPLATE.format(task_desc=task_desc,
                                          num_images=num_images,
                                          num_stages=num_stages)


def build_schedule_prompt(stages: list[StageTemplate],
                          ranges: ScheduleRanges = ScheduleRanges()) -> str:
    if not stages:
        raise ValueError("need at least one stage")
    return _SCHEDULE_TEMPLATE.format(
        num_stages=len(stages),
        stage_definitions=format_stage_definitions(stages),
        a_min=ranges.a_min, a_max=ranges.a_max,
        i_min=ranges.i_min, i_max=ranges.i_max)


# -- response sanitation ------------------------------------------------------


_DECODER = json.JSONDecoder()
# what the decoder reading from a [ sees outside strings: a JSON string
# (one left open runs to the end of the text, so a reply full of quotes
# costs one pass), a [, a run of commas and whitespace, whose commas are
# trailing when a ] or } (group 1) ends it, or a backslash, which no JSON
# text holds outside a string
_TOKEN = re.compile(
    r'"[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z)|\[|,[ \t\n\r,]*([\]}])?|\\',
    re.DOTALL)


def sanitize_json(raw: str) -> str:
    """Recover the JSON array from a chatty response: the standard decoder
    is tried at each [ in turn, which skips code fences and prose, and
    the text of the first array it decodes is returned.  When a trailing
    comma (only whitespace and commas between it and a ] or }) stops the
    decoder, every trailing comma outside a string is dropped and the
    decode retried.  Raises StageParseError when no [ starts an array,
    or when the array nests too deeply."""
    return _first_array(raw)[1]


def _first_array(raw: str) -> tuple[list, str]:
    """(decoded value, text) of the array sanitize_json describes.

    Each [ costs at most two decodes.  A sweep from one [ serves every
    later [ it reads outside a string, as the decoder reading from that
    [ sees the same tokens; only a [ inside a string of every earlier
    sweep sweeps afresh.  A sweep stops at the first backslash outside a
    string, where every decoder it serves has stopped; two sweeps that
    both pass a point are then on opposite sides of a string there, so
    no point is swept more than twice."""
    swept_at: dict[int, tuple[str, int]] = {}
    start = raw.find("[")
    while start != -1:
        try:
            value, end = _decode_at(raw, start)
            return value, raw[start:end]
        except json.JSONDecodeError as e:
            # reported at the closer (at the comma from Python 3.13 on)
            comma = raw.rfind(",", start, e.pos + 1)
            trailing = comma != -1 and _TOKEN.match(raw, comma)
            if trailing and trailing.end(1) > e.pos:
                if start not in swept_at:
                    swept_at.update(_sweep(raw, start))
                text, i = swept_at[start]
                try:
                    value, end = _decode_at(text, i)
                    return value, text[i:end]
                except json.JSONDecodeError:
                    pass
        start = raw.find("[", start + 1)
    raise StageParseError("no JSON array found in response")


def _sweep(raw: str, start: int) -> dict[int, tuple[str, int]]:
    """For each [ outside a string from ``start`` on, keyed by its index
    in raw: raw from ``start`` up to the first backslash outside a string
    with every trailing comma outside a string dropped, and the ['s index
    in that text."""
    pieces, at, pos, dropped, stop = [], [], start, 0, len(raw)
    for m in _TOKEN.finditer(raw, start):
        if m[0] == "\\":
            stop = m.start()
            break
        if m[0] == "[":
            at.append((m.start(), m.start() - start - dropped))
        elif m[1]:
            run = raw[m.start():m.start(1)]
            pieces += raw[pos:m.start()], run.replace(",", "")
            pos = m.start(1)
            dropped += run.count(",")
    pieces.append(raw[pos:stop])
    text = "".join(pieces)
    return {k: (text, i) for k, i in at}


def _decode_at(text: str, start: int) -> tuple[object, int]:
    """The decoder's raw_decode at ``start``; nesting too deep for it
    raises StageParseError."""
    try:
        return _DECODER.raw_decode(text, start)
    except RecursionError as e:
        raise StageParseError("response nests too deeply") from e


# -- response parsing ---------------------------------------------------------

_SCHEDULE_KEYS = ("name", "n_action_steps", "num_inference_steps")


def _entries(text: str, keys: tuple[str, ...]) -> list[tuple]:
    """Each entry of the text's array as its values under keys, the
    first a stage name, normalised.  Every entry must be an object that
    holds the keys, with a text name that is nonblank and unique once
    normalised."""
    out = []
    seen: set[str] = set()
    for item in _first_array(text)[0]:
        if not isinstance(item, dict):
            raise StageParseError(f"entry is not an object: {item!r}")
        missing = [k for k in keys if k not in item]
        if missing:
            raise StageParseError(f"entry missing {missing}: {item!r}")
        raw = item[keys[0]]
        name = normalize_name(raw) if isinstance(raw, str) else ""
        if not name:
            raise StageParseError(f"stage name must be nonblank text, "
                                  f"got {raw!r}")
        if name in seen:
            raise StageParseError(f"duplicate stage name {name!r}")
        seen.add(name)
        out.append((name, *(item[k] for k in keys[1:])))
    return out


def parse_stage_templates(text: str, expected_n: int) -> list[StageTemplate]:
    """Parse a decomposition response, or a stages file, into exactly
    expected_n templates, from one decode.

    Names are whitespace-normalized to underscores; a description missing
    its standard prefix gets it prepended rather than rejected."""
    out: list[StageTemplate] = []
    for name, desc in _entries(text, ("name", "description")):
        if not isinstance(desc, str):
            raise StageParseError(f"{name}: description is not text: "
                                  f"{desc!r}")
        desc = desc.strip()
        if not desc.startswith(DESCRIPTION_PREFIX):
            desc = f"{DESCRIPTION_PREFIX} {desc}"
        out.append(StageTemplate(name=name, description=desc))
    if len(out) != expected_n:
        raise StageParseError(
            f"expected {expected_n} stages, got {len(out)}")
    return out


def _as_int(value, stage: str) -> int:
    """A reply's count for ``stage``: an int, or a finite number or
    numeric string rounded to the nearest int; anything else, NaN and
    infinities included, is a StageParseError naming stage and value."""
    if isinstance(value, bool):
        raise StageParseError(f"stage {stage!r}: boolean is not a count: "
                              f"{value!r}")
    if isinstance(value, int):
        return value
    x = value
    if isinstance(value, str):
        try:
            x = float(value.strip())
        except ValueError:
            pass
    if isinstance(x, float):
        if math.isfinite(x):
            return int(round(x))
        raise StageParseError(f"stage {stage!r}: count is not finite: "
                              f"{value!r}")
    raise StageParseError(f"stage {stage!r}: unparseable integer value: "
                          f"{value!r}")


def parse_schedule(text: str, names: list[str],
                   ranges: ScheduleRanges = ScheduleRanges()) -> ScheduleTable:
    """Parse a schedule response into a table over the stage ``names``
    (normalised, as a StageTemplate's), in their order, under the
    prompt's rules.

    Values are clamped into the ranges.  If no stage carries the
    precision budget (a_min, i_max), the entry with the largest step
    count (ties: smallest horizon, then earliest stage) is promoted to
    it.  If that leaves every entry identical, the earliest stage is
    demoted to (a_max, i_min) so the table still differentiates stages
    (a no-op when the ranges admit that one pair only).
    """
    r = ranges
    if not names:
        raise StageParseError("no stages given")
    got: dict[str, tuple[int, int]] = {}
    for name, na, nd in _entries(text, _SCHEDULE_KEYS):
        if name not in names:
            raise StageParseError(f"unknown stage {name!r}")
        got[name] = (min(max(_as_int(na, name), r.a_min), r.a_max),
                     min(max(_as_int(nd, name), r.i_min), r.i_max))
    missing = [n for n in names if n not in got]
    if missing:
        raise StageParseError(f"missing schedule entries: {missing}")
    pairs = [got[n] for n in names]
    hardest = (r.a_min, r.i_max)
    if hardest not in pairs:
        best = max(range(len(pairs)),
                   key=lambda i: (pairs[i][1], -pairs[i][0], -i))
        pairs[best] = hardest
    if len(pairs) > 1 and len(set(pairs)) == 1:
        pairs[0] = (r.a_max, r.i_min)
    return ScheduleTable(tuple(ScheduleEntry(n, a, d)
                               for n, (a, d) in zip(names, pairs)))


# -- file formats -------------------------------------------------------------


def templates_to_json(stages: list[StageTemplate]) -> str:
    data = [{"name": s.name, "description": s.description} for s in stages]
    return json.dumps(data, indent=4, ensure_ascii=False) + "\n"


def schedule_to_json(table: ScheduleTable) -> str:
    data = [{"name": e.name, "n_action_steps": e.n_action_steps,
             "num_inference_steps": e.num_inference_steps}
            for e in table.entries]
    return json.dumps(data, indent=4, ensure_ascii=False) + "\n"


def schedule_from_json(text: str) -> ScheduleTable:
    """Load a schedule file as written: any uniquely named positive
    integer (N_a, N_d) pairs, in file order.  Nothing is clamped or
    repaired, and the schedule prompt's ranges do not apply; a value
    that is not a positive integer, a blank or repeated name, or an
    empty file raises ValueError."""
    return ScheduleTable(tuple(ScheduleEntry(*item)
                               for item in _entries(text, _SCHEDULE_KEYS)))
