"""Prompt construction, response sanitation and parsing, file formats."""

import json
import pathlib
import time

import pytest

import diffpol.stages
from diffpol.env import TASK_DESCRIPTION
from diffpol.stages import (
    ScheduleEntry,
    ScheduleRanges,
    ScheduleTable,
    StageParseError,
    StageTemplate,
    build_decomposition_prompt,
    build_schedule_prompt,
    normalize_name,
    parse_schedule,
    parse_stage_templates,
    sanitize_json,
    schedule_from_json,
    schedule_to_json,
    templates_to_json,
)

from helpers import push_stage_templates

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


class TestPromptBuilders:
    def test_decomposition_golden(self):
        got = build_decomposition_prompt(TASK_DESCRIPTION, num_images=8,
                                         num_stages=5)
        assert got == read_fixture("prompt_decomposition.txt")

    def test_schedule_golden(self):
        got = build_schedule_prompt(push_stage_templates())
        assert got == read_fixture("prompt_schedule.txt")

    def test_stage_count_substituted(self):
        got = build_decomposition_prompt("stack the cups", 4, 5)
        assert "exactly 5 stages" in got
        assert build_decomposition_prompt("stack the cups", 1, 1)

    def test_ranges_substituted_verbatim(self):
        got = build_schedule_prompt(push_stage_templates(),
                                    ScheduleRanges(8, 16, 20, 40))
        assert "[8, 16]" in got and "[20, 40]" in got

    def test_stage_list_in_template_order(self):
        stages = push_stage_templates()[::-1]
        got = build_schedule_prompt(stages)
        positions = [got.index(s.name + ":") for s in stages]
        assert positions == sorted(positions)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            build_decomposition_prompt("", 4, 5)
        with pytest.raises(ValueError):
            build_decomposition_prompt("task", 0, 5)
        with pytest.raises(ValueError):
            build_decomposition_prompt("task", 4, 0)
        with pytest.raises(ValueError):
            build_schedule_prompt([])


class CountingTokenizer:
    """A tokenizer pattern that counts the tokens its scans find and the
    characters they pass over."""

    def __init__(self, pattern):
        self.pattern, self.found, self.swept = pattern, 0, 0

    def match(self, *args):
        return self.pattern.match(*args)

    def finditer(self, string, pos=0):
        for m in self.pattern.finditer(string, pos):
            self.found += 1
            self.swept += m.end() - pos
            pos = m.end()
            yield m
        self.swept += len(string) - pos


class TestSanitizeJson:
    def test_well_formed_unchanged(self):
        text = '[{"name": "a", "description": "b"}]'
        assert sanitize_json(text) == text

    def test_code_fence_and_trailing_comma(self):
        raw = '```json\n[{"name": "a"},]\n```'
        assert json.loads(sanitize_json(raw)) == [{"name": "a"}]

    def test_triple_backtick_inside_a_string(self):
        raw = ('[{"name": "a", "description": '
               '"Action features: use ```x``` here"}]')
        assert json.loads(sanitize_json(raw)) == [
            {"name": "a", "description": "Action features: use ```x``` here"}]

    def test_surrounding_prose(self):
        raw = 'Sure! Here is the result: [1, 2, 3] Hope this helps'
        assert sanitize_json(raw) == "[1, 2, 3]"

    def test_brackets_inside_strings_ignored(self):
        raw = 'note ] first [\n{"k": "val ] with ] brackets"},\n] done'
        out = sanitize_json(raw)
        assert json.loads(out) == [{"k": "val ] with ] brackets"}]

    def test_escaped_quote_inside_string(self):
        raw = '[{"k": "a \\" ] b"}]'
        assert json.loads(sanitize_json(raw)) == [{"k": 'a " ] b'}]

    def test_comma_inside_string_kept(self):
        raw = '["a, ]", 1, ]'
        assert json.loads(sanitize_json(raw)) == ["a, ]", 1]

    def test_mismatched_opener_skipped(self):
        raw = "broken [1, 2} text then [3, 4] ok"
        assert sanitize_json(raw) == "[3, 4]"

    def test_nested_trailing_commas(self):
        raw = '[{"a": [1, 2,],},]'
        assert json.loads(sanitize_json(raw)) == [{"a": [1, 2]}]

    def test_bracketed_prose_before_the_array(self):
        raw = ('Stages [as JSON]:\n```json\n'
               '[{"name": "a", "description": "b"}]\n```')
        assert json.loads(sanitize_json(raw)) == [
            {"name": "a", "description": "b"}]

    def test_unmatched_quote_in_prose_before_the_array(self):
        raw = 'He said "here it is: ["keep, ]", 2, ]'
        assert json.loads(sanitize_json(raw)) == ["keep, ]", 2]

    def test_runs_of_trailing_commas_are_dropped(self):
        assert sanitize_json("[1,, ]") == "[1 ]"
        assert sanitize_json("[1,,,]") == "[1]"
        assert sanitize_json("[,,]") == "[]"
        assert sanitize_json('x [{"a": [2,],,}] y') == '[{"a": [2]}]'
        with pytest.raises(StageParseError):
            sanitize_json("[1,,2]")

    def test_many_trailing_commas_cost_two_decodes(self, monkeypatch):
        """A 4 KB reply with 800 trailing commas is decoded at most
        twice, not once per comma."""
        decodes = []
        raw_decode = diffpol.stages._DECODER.raw_decode

        def counting(text, idx=0):
            decodes.append(idx)
            return raw_decode(text, idx)

        monkeypatch.setattr(diffpol.stages._DECODER, "raw_decode", counting)
        raw = "[" + ",".join(["[1,]"] * 800) + "]"
        assert len(raw) > 4000
        assert sanitize_json(raw) == "[" + ",".join(["[1]"] * 800) + "]"
        assert len(decodes) <= 2

    def test_open_string_after_the_array_costs_one_pass(self):
        """A reply that ends in an unclosed string of escaped quotes is
        swept in one pass: the string runs to the end of the text, so no
        escaped quote starts another scan to the end."""
        for tail in ('"' + '\\"' * 50000, '"' + '\\"' * 50000 + "\\"):
            assert diffpol.stages._TOKEN.match(tail).end() == len(tail)
            t0 = time.perf_counter()
            assert sanitize_json("[1,] " + tail) == "[1]"
            assert time.perf_counter() - t0 < 1.0

    def test_one_sweep_serves_every_later_bracket(self, monkeypatch):
        """300 candidates that fail past a trailing comma, then the
        array: one sweep, and at most two decodes per candidate."""
        sweeps, decodes = [], []
        sweep, raw_decode = diffpol.stages._sweep, \
            diffpol.stages._DECODER.raw_decode

        def counting_sweep(raw, start):
            sweeps.append(start)
            return sweep(raw, start)

        def counting_decode(text, idx=0):
            decodes.append(idx)
            return raw_decode(text, idx)

        monkeypatch.setattr(diffpol.stages, "_sweep", counting_sweep)
        monkeypatch.setattr(diffpol.stages._DECODER, "raw_decode",
                            counting_decode)
        raw = '[{"a": 1,} x ' * 300 + "[1, 2,]"
        assert sanitize_json(raw) == "[1, 2]"
        assert len(sweeps) == 1
        assert len(decodes) <= 2 * raw.count("[")

    @pytest.mark.parametrize("k", [300, 1200])
    def test_sweeps_cover_each_character_at_most_twice(self, k,
                                                       monkeypatch):
        """Failing candidates joined by escaped quotes, each [ inside a
        string of every earlier sweep: the text the tokenizer passes
        over stays within twice the reply's length."""
        tokens = CountingTokenizer(diffpol.stages._TOKEN)
        monkeypatch.setattr(diffpol.stages, "_TOKEN", tokens)
        raw = '[{"a":1,} x ' + ('\\"' + '[{"a":1,} x ') * k
        with pytest.raises(StageParseError):
            sanitize_json(raw)
        assert tokens.swept <= 2 * len(raw)

    def test_a_run_of_trailing_commas_is_one_token(self, monkeypatch):
        tokens = CountingTokenizer(diffpol.stages._TOKEN)
        monkeypatch.setattr(diffpol.stages, "_TOKEN", tokens)
        assert sanitize_json("[1" + ", " * 4000 + "]") == \
            "[1" + " " * 4000 + "]"
        assert tokens.found <= 2

    def test_deep_nesting_is_a_parse_error(self):
        raw = "[" * 2000 + "]" * 2000
        with pytest.raises(StageParseError):
            sanitize_json(raw)
        with pytest.raises(StageParseError):
            parse_stage_templates(raw, 1)

    def test_no_array_is_error(self):
        with pytest.raises(StageParseError):
            sanitize_json("there is no structured data here")
        with pytest.raises(StageParseError):
            sanitize_json('{"name": "object, not array"}')


class TestDecodeOnce:
    @pytest.mark.parametrize("parse", [
        lambda t: parse_stage_templates(t, 5),
        lambda t: parse_schedule(t, [s.name for s in push_stage_templates()]),
    ], ids=["templates", "schedule"])
    def test_reply_is_decoded_once(self, parse, monkeypatch):
        """The parsers decode the recovered array once, with no second
        json.loads of its text."""
        decodes = []
        raw_decode = diffpol.stages._DECODER.raw_decode

        def counting(text, idx=0):
            decodes.append(idx)
            return raw_decode(text, idx)

        def no_loads(*args, **kwargs):
            raise AssertionError("json.loads re-decoded the reply")

        monkeypatch.setattr(diffpol.stages._DECODER, "raw_decode", counting)
        monkeypatch.setattr(diffpol.stages.json, "loads", no_loads)
        entries = ",".join(
            f'{{"name": "{t.name}", "description": "{t.description}", '
            f'"n_action_steps": 8, "num_inference_steps": 20}}'
            for t in push_stage_templates())
        parse(f"Here you go:\n```json\n[{entries},]\n```")
        # one failed try at the trailing comma, then one decode
        assert len(decodes) == 2


class TestParseStageTemplates:
    def test_canned_response(self):
        out = parse_stage_templates(read_fixture("decompose_response.txt"),
                                    expected_n=5)
        assert len(out) == 5
        assert out[0].name == "robot_arm_initial_position"
        assert all(t.description.startswith("Action features:") for t in out)

    def test_round_trip_byte_identical(self):
        expected = read_fixture("stages_expected.json")
        out = parse_stage_templates(read_fixture("decompose_response.txt"), 5)
        assert templates_to_json(out) == expected
        assert templates_to_json(parse_stage_templates(expected, 5)) \
            == expected

    def test_stages_file_decoded_once(self, monkeypatch):
        calls = {"n": 0}
        inner = diffpol.stages._DECODER

        class Counting:
            def raw_decode(self, *args):
                calls["n"] += 1
                return inner.raw_decode(*args)

        monkeypatch.setattr(diffpol.stages, "_DECODER", Counting())
        expected = read_fixture("stages_expected.json")
        assert templates_to_json(parse_stage_templates(expected, 5)) \
            == expected
        assert calls["n"] == 1

    def test_spaces_become_underscores(self):
        text = '[{"name": "pick  up can", "description": "Action features: x"}]'
        assert parse_stage_templates(text, 1)[0].name == "pick_up_can"

    def test_missing_prefix_repaired(self):
        text = '[{"name": "a", "description": "just moves"}]'
        out = parse_stage_templates(text, 1)
        assert out[0].description == "Action features: just moves"

    def test_errors(self):
        ok = '{"name": "a", "description": "Action features: x"}'
        with pytest.raises(StageParseError):
            parse_stage_templates(f"[{ok}]", 2)  # count mismatch
        with pytest.raises(StageParseError):
            parse_stage_templates(f"[{ok}, {ok}]", 2)  # duplicate name
        with pytest.raises(StageParseError):
            parse_stage_templates('[{"name": "a"}]', 1)  # missing field
        with pytest.raises(StageParseError):
            parse_stage_templates('["not an object"]', 1)

    @pytest.mark.parametrize("entry", [
        '{"name": null, "description": null}',
        '{"name": 7, "description": "Action features: x"}',
        '{"name": " \\t ", "description": "Action features: x"}',
        '{"name": "a", "description": null}',
        '{"name": "a", "description": ["Action features: x"]}',
    ], ids=["null", "number-name", "blank-name", "null-description",
            "list-description"])
    def test_rejects_non_text_fields(self, entry):
        with pytest.raises(StageParseError):
            parse_stage_templates(f"[{entry}]", 1)

    def test_template_validation(self):
        with pytest.raises(ValueError):
            StageTemplate(name="has space", description="Action features: x")
        with pytest.raises(ValueError):
            StageTemplate(name="", description="Action features: x")
        with pytest.raises(ValueError):
            StageTemplate(name="a", description="no prefix")


NAMES = ["approach", "align", "push", "reach", "complete"]


def schedule_text(pairs):
    return json.dumps([{"name": n, "n_action_steps": a,
                        "num_inference_steps": d}
                       for n, (a, d) in zip(NAMES, pairs)])


class TestParseSchedule:
    def test_canned_response(self):
        ranges = ScheduleRanges(8, 16, 20, 60)
        stages = parse_stage_templates(read_fixture("stages_expected.json"),
                                       5)
        table = parse_schedule(read_fixture("schedule_response.txt"),
                               [t.name for t in stages], ranges)
        pairs = {e.name: e.pair for e in table.entries}
        assert pairs["robot_arm_releases_can_into_compartment"] == (8, 60)
        assert [e.name for e in table.entries] == [t.name for t in stages]

    def test_round_trip_byte_identical(self):
        expected = read_fixture("schedule_expected.json")
        table = schedule_from_json(expected)
        assert schedule_to_json(table) == expected

    def test_all_identical_promotes_one(self):
        table = parse_schedule(schedule_text([(16, 20)] * 5), NAMES)
        pairs = [e.pair for e in table.entries]
        assert pairs[0] == (8, 40)  # earliest stage promoted
        assert pairs[1:] == [(16, 20)] * 4

    def test_out_of_range_clamped(self):
        table = parse_schedule(schedule_text([(8, 200), (4, 20), (16, 25),
                                              (16, 30), (100, 20)]), NAMES)
        pairs = [e.pair for e in table.entries]
        assert pairs[0] == (8, 40)   # 200 clamped to i_max, 8 is a_min
        assert pairs[1] == (8, 20)   # 4 clamped up to a_min
        assert pairs[4] == (16, 20)  # 100 clamped down to a_max

    def test_promotion_prefers_largest_then_smallest_horizon(self):
        # no (8, 40) present; two entries tie at the largest step count
        table = parse_schedule(schedule_text([(16, 30), (8, 30), (16, 20),
                                              (16, 20), (16, 20)]), NAMES)
        pairs = [e.pair for e in table.entries]
        assert pairs[1] == (8, 40)  # smaller horizon wins the tie
        assert pairs[0] == (16, 30)

    def test_promotion_tie_breaks_earliest(self):
        table = parse_schedule(schedule_text([(16, 30), (16, 30), (16, 20),
                                              (16, 20), (16, 20)]), NAMES)
        assert table.entries[0].pair == (8, 40)
        assert table.entries[1].pair == (16, 30)

    def test_all_hardest_demotes_earliest(self):
        table = parse_schedule(schedule_text([(8, 40)] * 5), NAMES)
        pairs = [e.pair for e in table.entries]
        assert pairs[0] == (16, 20)
        assert pairs[1:] == [(8, 40)] * 4

    def test_value_coercion(self):
        text = json.dumps([
            {"name": "a", "n_action_steps": 12.4,
             "num_inference_steps": "25"},
            {"name": "b", "n_action_steps": 8, "num_inference_steps": 40},
        ])
        table = parse_schedule(text, ["a", "b"])
        assert table.entries[0].pair == (12, 25)

    def test_errors(self):
        with pytest.raises(StageParseError):
            parse_schedule(schedule_text([(16, 20)] * 4), NAMES)  # missing
        bad = json.dumps([{"name": "mystery", "n_action_steps": 8,
                           "num_inference_steps": 40}])
        with pytest.raises(StageParseError):
            parse_schedule(bad, NAMES)  # unknown stage
        dup = json.dumps([{"name": "a", "n_action_steps": 8,
                           "num_inference_steps": 40}] * 2)
        with pytest.raises(StageParseError):
            parse_schedule(dup, ["a"])  # duplicate entry
        nonsense = json.dumps([{"name": "a", "n_action_steps": "lots",
                                "num_inference_steps": 40}])
        with pytest.raises(StageParseError):
            parse_schedule(nonsense, ["a"])  # unparseable value
        with pytest.raises(StageParseError):
            parse_schedule(schedule_text([(8, 40)]), [])  # no stages

    @pytest.mark.parametrize("count", [
        "Infinity", "-Infinity", "NaN", "1e999", '"1e999"', '" -inf "'])
    def test_rejects_non_finite_counts(self, count):
        """No count is rounded to an int unless it is finite; the error
        names the stage and the value."""
        reply = ('[{"name": "a", "n_action_steps": 8, '
                 f'"num_inference_steps": {count}}}]')
        with pytest.raises(StageParseError,
                           match="stage 'a': count is not finite"):
            parse_schedule(reply, ["a"])

    def test_table_validation(self):
        ok = ScheduleEntry("a", 8, 40)
        with pytest.raises(ValueError):
            ScheduleTable(entries=())
        with pytest.raises(ValueError):
            ScheduleTable(entries=(ok, ok))  # duplicate names
        with pytest.raises(ValueError):
            ScheduleEntry("", 8, 40)  # empty name

    def test_degenerate_ranges_allowed(self):
        r = ScheduleRanges(8, 8, 30, 30)
        parsed = parse_schedule(schedule_text([(8, 30), (8, 30)])
                                .replace("approach", "a")
                                .replace("align", "b"), ["a", "b"], r)
        assert [e.pair for e in parsed.entries] == [(8, 30), (8, 30)]

    @pytest.mark.parametrize("name, coerced", [
        ("7", "7"), ("null", "None"), ("[]", "[]"), ('"  "', "")])
    def test_rejects_non_text_names(self, name, coerced):
        """A reply name is never coerced into the stage it would match."""
        reply = schedule_text([(8, 40)]).replace('"approach"', name)
        with pytest.raises(StageParseError):
            parse_schedule(reply, [coerced])


class TestScheduleFile:
    """A schedule file loads as written: any uniquely named positive
    integer pairs, whatever the schedule prompt's ranges."""

    def test_loads_as_written(self):
        for pairs in ([(16, 20), (4, 90), (16, 90), (12, 35), (16, 20)],
                      [(16, 20), (8, 30), (12, 40), (16, 20), (16, 20)]):
            table = schedule_from_json(schedule_text(pairs))
            assert [e.pair for e in table.entries] == pairs
            assert [e.name for e in table.entries] == NAMES

    def test_fixture_keeps_its_precision_stage(self):
        table = schedule_from_json(read_fixture("schedule_expected.json"))
        pairs = {e.name: e.pair for e in table.entries}
        assert pairs["robot_arm_releases_can_into_compartment"] == (8, 60)

    @pytest.mark.parametrize("pairs", [
        [(16, 20), (8, 40.0), (16, 20), (16, 20), (16, 20)],  # float
        [(16, 20), (8, "40"), (16, 20), (16, 20), (16, 20)],  # string
        [(16, 20), (8, True), (16, 20), (16, 20), (16, 20)],  # bool
        [(16, 20), (8, 0), (16, 20), (16, 20), (16, 20)],     # not positive
        [(16, 20), (-8, 40), (16, 20), (16, 20), (16, 20)],   # negative
        [],                                                   # empty
    ])
    def test_rejects_files_no_table_can_hold(self, pairs):
        with pytest.raises(ValueError):
            schedule_from_json(schedule_text(pairs))

    def test_rejects_malformed_entries(self):
        with pytest.raises(StageParseError):
            schedule_from_json('[{"name": "a", "n_action_steps": 8}]')
        with pytest.raises(StageParseError):
            schedule_from_json('[3]')
        with pytest.raises(ValueError, match="duplicate"):
            schedule_from_json(schedule_text([(8, 40)] * 2).replace(
                "align", "approach"))
        for name in ("null", '"  "', "7"):  # never loaded as "None", "", "7"
            with pytest.raises(StageParseError, match="stage name"):
                schedule_from_json(schedule_text([(8, 40)]).replace(
                    '"approach"', name))


def test_normalize_name():
    assert normalize_name("  pick  up\tcan ") == "pick_up_can"
    assert normalize_name("already_fine") == "already_fine"
