"""Stage protocol: templates, prompt construction, response parsing.

A long task is decomposed into named stages, and each stage is assigned
a compute budget (action horizon, denoising step count).  Both
exchanges are plain text with a remote model, so every parser here is
defensive: a response's array is the first [ at which the standard JSON
decoder succeeds once trailing commas are dropped, values are clamped
into range, and a missing "hardest stage" designation is repaired by a
deterministic fallback.  Schedule files, which this program writes,
load as written.  At run time a classifier reports a ranked belief over
the stages, and select_stage picks the active one.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np


class StageParseError(ValueError):
    """A response could not be coerced into the expected structure."""


DESCRIPTION_PREFIX = "Action features:"


def normalize_name(name: str) -> str:
    """Collapse whitespace runs to single underscores and strip ends."""
    return "_".join(str(name).split())


def _stage_names(stages) -> list[str]:
    """Accept StageTemplate sequences or plain name sequences."""
    return [normalize_name(getattr(s, "name", s)) for s in stages]


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

    @property
    def degenerate(self) -> bool:
        """Single admissible pair, so entries cannot differ."""
        return self.a_min == self.a_max and self.i_min == self.i_max


@dataclass(frozen=True)
class ScheduleEntry:
    name: str
    n_action_steps: int
    num_inference_steps: int

    def __post_init__(self):
        for v in (self.n_action_steps, self.num_inference_steps):
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError("schedule values must be positive integers")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.n_action_steps, self.num_inference_steps)


@dataclass(frozen=True)
class ScheduleTable:
    entries: tuple[ScheduleEntry, ...]
    ranges: ScheduleRanges = ScheduleRanges()

    def __post_init__(self):
        if not self.entries:
            raise ValueError("schedule table is empty")
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("duplicate stage names in schedule table")
        r = self.ranges
        for e in self.entries:
            if not (r.a_min <= e.n_action_steps <= r.a_max):
                raise ValueError(f"{e.name}: horizon outside range")
            if not (r.i_min <= e.num_inference_steps <= r.i_max):
                raise ValueError(f"{e.name}: step count outside range")
        hardest = (r.a_min, r.i_max)
        if not any(e.pair == hardest for e in self.entries):
            raise ValueError("no entry carries the precision budget "
                             f"{hardest}")
        if len(self.entries) > 1 and not r.degenerate \
                and len({e.pair for e in self.entries}) == 1:
            raise ValueError("all schedule entries are identical")


@dataclass(frozen=True)
class StageBelief:
    """Ranked (stage index, probability) pairs, highest first."""

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("belief is empty")
        probs = [p for _, p in self.entries]
        idxs = [i for i, _ in self.entries]
        if len(set(idxs)) != len(idxs) or min(idxs) < 0:
            raise ValueError("stage indices must be unique and nonnegative")
        if any(p < 0.0 or p > 1.0 for p in probs):
            raise ValueError("probabilities must lie in [0, 1]")
        if any(a < b for a, b in zip(probs, probs[1:])):
            raise ValueError("probabilities must be nonincreasing")
        if sum(probs) > 1.0 + 1e-6:
            raise ValueError("probabilities sum above one")


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

def format_stage_definitions(stages) -> str:
    """One "name: description" line per stage, template order."""
    lines = []
    for s in stages:
        name = normalize_name(getattr(s, "name", s))
        desc = getattr(s, "description", "")
        lines.append(f"{name}: {desc}" if desc else name)
    return "\n".join(lines)


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


def build_schedule_prompt(stages, ranges: ScheduleRanges | None = None) -> str:
    if not stages:
        raise ValueError("need at least one stage")
    r = ranges if ranges is not None else ScheduleRanges()
    return _SCHEDULE_TEMPLATE.format(
        num_stages=len(stages),
        stage_definitions=format_stage_definitions(stages),
        a_min=r.a_min, a_max=r.a_max, i_min=r.i_min, i_max=r.i_max)


# -- response sanitation ------------------------------------------------------


_DECODER = json.JSONDecoder()
# a comma with nothing but whitespace before the next ] or }
_TRAILING_COMMA = re.compile(r",[ \t\n\r]*[\]}]")


def sanitize_json(raw: str) -> str:
    """Recover the JSON array from a chatty response: the standard decoder
    is tried at each [ in turn, which skips code fences and prose, and
    the text of the first array it decodes is returned.  A trailing
    comma (only whitespace between it and a ] or }) that stops the
    decoder is dropped and the decode retried.  Raises StageParseError
    when no [ starts an array, or when the array nests too deeply."""
    return _first_array(raw)[1]


def _load_array(raw: str) -> list:
    """The array sanitize_json recovers, decoded once."""
    return _first_array(raw)[0]


def _first_array(raw: str) -> tuple[list, str]:
    """(decoded value, text) of the array sanitize_json describes."""
    text, start = raw, raw.find("[")
    while start != -1:
        try:
            value, end = _DECODER.raw_decode(text, start)
            return value, text[start:end]
        except json.JSONDecodeError as e:
            # reported at the closer (at the comma from Python 3.13 on)
            comma = text.rfind(",", start, e.pos + 1)
            trailing = comma != -1 and _TRAILING_COMMA.match(text, comma)
            if trailing and trailing.end() > e.pos:
                text = text[:comma] + text[comma + 1:]
            else:
                text, start = raw, raw.find("[", start + 1)
        except RecursionError as e:
            raise StageParseError("response nests too deeply") from e
    raise StageParseError("no JSON array found in response")


# -- response parsing ---------------------------------------------------------


def parse_stage_templates(text: str, expected_n: int) -> list[StageTemplate]:
    """Parse a decomposition response into exactly expected_n templates.

    Names are whitespace-normalized to underscores; a description missing
    its standard prefix gets it prepended rather than rejected."""
    data = _load_array(text)
    out: list[StageTemplate] = []
    seen: set[str] = set()
    for item in data:
        if not isinstance(item, dict):
            raise StageParseError(f"stage entry is not an object: {item!r}")
        if "name" not in item or "description" not in item:
            raise StageParseError(f"stage entry missing fields: {item!r}")
        name = normalize_name(item["name"])
        if not name:
            raise StageParseError("empty stage name")
        if name in seen:
            raise StageParseError(f"duplicate stage name {name!r}")
        seen.add(name)
        desc = str(item["description"]).strip()
        if not desc.startswith(DESCRIPTION_PREFIX):
            desc = f"{DESCRIPTION_PREFIX} {desc}"
        out.append(StageTemplate(name=name, description=desc))
    if len(out) != expected_n:
        raise StageParseError(
            f"expected {expected_n} stages, got {len(out)}")
    return out


def _as_int(value) -> int:
    if isinstance(value, bool):
        raise StageParseError(f"boolean is not a count: {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return int(round(value))
    if isinstance(value, str):
        try:
            return int(round(float(value.strip())))
        except ValueError:
            pass
    raise StageParseError(f"unparseable integer value: {value!r}")


def _schedule_items(text: str) -> list[tuple[str, object, object]]:
    """(normalized name, raw horizon, raw step count) of each entry."""
    items = []
    for item in _load_array(text):
        if not isinstance(item, dict):
            raise StageParseError(f"schedule entry is not an object: {item!r}")
        for key in ("name", "n_action_steps", "num_inference_steps"):
            if key not in item:
                raise StageParseError(f"schedule entry missing {key!r}")
        items.append((normalize_name(item["name"]), item["n_action_steps"],
                      item["num_inference_steps"]))
    return items


def parse_schedule(text: str, stages,
                   ranges: ScheduleRanges | None = None) -> ScheduleTable:
    """Parse a schedule response into a validated table, template order.

    Values are clamped into the configured ranges.  If no stage carries
    the precision budget (a_min, i_max), the entry with the largest step
    count (ties: smallest horizon, then earliest stage) is promoted to
    it.  If that leaves every entry identical, the earliest stage is
    demoted to (a_max, i_min) so the table still differentiates stages.
    """
    r = ranges if ranges is not None else ScheduleRanges()
    names = _stage_names(stages)
    if not names:
        raise StageParseError("no stages given")
    got: dict[str, tuple[int, int]] = {}
    for name, na, nd in _schedule_items(text):
        if name not in names:
            raise StageParseError(f"unknown stage {name!r}")
        if name in got:
            raise StageParseError(f"duplicate schedule entry {name!r}")
        got[name] = (min(max(_as_int(na), r.a_min), r.a_max),
                     min(max(_as_int(nd), r.i_min), r.i_max))
    missing = [n for n in names if n not in got]
    if missing:
        raise StageParseError(f"missing schedule entries: {missing}")
    pairs = [got[n] for n in names]
    hardest = (r.a_min, r.i_max)
    if hardest not in pairs:
        best = max(range(len(pairs)),
                   key=lambda i: (pairs[i][1], -pairs[i][0], -i))
        pairs[best] = hardest
    if len(pairs) > 1 and not r.degenerate and len(set(pairs)) == 1:
        pairs[0] = (r.a_max, r.i_min)
    entries = tuple(ScheduleEntry(name=n, n_action_steps=a,
                                  num_inference_steps=d)
                    for n, (a, d) in zip(names, pairs))
    return ScheduleTable(entries=entries, ranges=r)


def select_stage(belief: StageBelief, gap: float,
                 rng: np.random.Generator) -> int:
    """Most probable stage when it leads by at least the gap, otherwise
    a draw among the ranked candidates proportional to probability."""
    entries = belief.entries
    if len(entries) == 1:
        return entries[0][0]
    if entries[0][1] - entries[1][1] >= gap:
        return entries[0][0]
    probs = np.array([p for _, p in entries], dtype=np.float64)
    total = probs.sum()
    if total <= 0.0:
        probs = np.full(len(entries), 1.0 / len(entries))
    else:
        probs = probs / total
    return entries[int(rng.choice(len(entries), p=probs))][0]


# -- file formats -------------------------------------------------------------


def templates_to_json(stages: list[StageTemplate]) -> str:
    data = [{"name": s.name, "description": s.description} for s in stages]
    return json.dumps(data, indent=4, ensure_ascii=False) + "\n"


def templates_from_json(text: str) -> list[StageTemplate]:
    data = _load_array(text)
    if not data:
        raise StageParseError("no stages in file")
    return parse_stage_templates(text, expected_n=len(data))


def schedule_to_json(table: ScheduleTable) -> str:
    data = [{"name": e.name, "n_action_steps": e.n_action_steps,
             "num_inference_steps": e.num_inference_steps}
            for e in table.entries]
    return json.dumps(data, indent=4, ensure_ascii=False) + "\n"


def schedule_from_json(text: str) -> ScheduleTable:
    """Load a schedule file as written: its entries in file order, under
    the tightest ranges that hold them.  Nothing is clamped or repaired;
    a file that no valid table can hold (a non-integer value, no entry
    with the least horizon and the most steps, ...) raises ValueError."""
    entries = tuple(ScheduleEntry(*item) for item in _schedule_items(text))
    if not entries:
        raise StageParseError("no stages in schedule file")
    na, nd = zip(*(e.pair for e in entries))
    return ScheduleTable(entries=entries, ranges=ScheduleRanges(
        min(na), max(na), min(nd), max(nd)))
