"""Tests of the benchmark's own arithmetic and wrapper bookkeeping.

Run from the repository root:

    python3 -m pytest -q perfbench/test_spans.py
"""

import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent=-1):
    return spans.Span(name, start, end, parent=parent)


def test_self_time_subtracts_union_of_overlapping_children():
    sp = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),   # overlaps a by 1
        _span("c", 5.5, 5.8, parent=0),   # inside b
        _span("d", 9.0, 12.0, parent=0),  # sticks out past the root
        _span("a1", 1.5, 2.0, parent=1),  # grandchild: only a's business
    ]
    selfs = spans.self_times(sp)
    # children cover [1, 6] and [9, 10]: 6 of the root's 10
    assert selfs[0] == pytest.approx(4.0)
    assert selfs[1] == pytest.approx(2.5)
    assert selfs[5] == pytest.approx(0.5)


def test_covered_handles_disjoint_nested_and_empty():
    assert spans.covered([], 0.0, 1.0) == 0.0
    assert spans.covered([(0, 1), (2, 3)], 0, 3) == pytest.approx(2.0)
    assert spans.covered([(0, 3), (1, 2)], 0, 3) == pytest.approx(3.0)
    assert spans.covered([(-5, -1)], 0, 3) == 0.0


@pytest.mark.parametrize("n, pct", [
    (10, 50.0),      # too few for any tail: median
    (20, 50.0),      # ceil(0.5*20)=10 leaves 10 beyond
    (40, 75.0),
    (100, 90.0),
    (200, 95.0),
    (999, 95.0),     # 99th: rank 990 leaves only 9 beyond
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_rule(n, pct):
    samples = list(range(n, 0, -1))  # order must not matter
    got_pct, value, count = spans.tail_percentile(samples)
    assert (got_pct, count) == (pct, n)
    rank = -(-int(pct * 10) * n // 1000)  # ceil(pct/100 * n), exactly
    assert value == rank
    assert n - rank >= spans.MIN_BEYOND or pct == 50.0


def test_tail_percentile_empty():
    pct, value, n = spans.tail_percentile([])
    assert n == 0 and value != value


def _snapshot(owners):
    return [dict(vars(o)) for o in owners]


def test_install_and_restore_leave_every_attribute_identical():
    import diffpol.rollout
    import diffpol.scheduling
    import diffpol.training

    owners = [diffpol.training, diffpol.rollout,
              diffpol.scheduling.OracleStageClassifier]
    before = _snapshot(owners)
    tracer = spans.Tracer()
    targets = workloads.train_targets() + workloads.rollout_targets()
    inst = spans.install(tracer, targets)
    assert inst.absent == []
    assert diffpol.training.optimizer_step is not before[0]["optimizer_step"]
    spans.restore(inst)
    after = _snapshot(owners)
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        for k in b:
            assert a[k] is b[k], k


def test_missing_target_is_reported_absent_not_raised():
    mod = types.ModuleType("fake_layer")
    mod.present = lambda x: x + 1
    tracer = spans.Tracer()
    inst = spans.install(tracer, [
        spans.Target(mod, "present", "fake.present"),
        spans.Target(mod, "renamed_away", "fake.renamed_away"),
    ])
    assert inst.absent == ["fake_layer.renamed_away"]
    assert mod.present(1) == 2
    spans.restore(inst)
    assert not hasattr(mod, "renamed_away")
    assert [s.name for s in tracer.spans] == ["fake.present"]


def test_spans_record_parent_and_group():
    tracer = spans.Tracer()

    def leaf():
        return 1

    inner = tracer.wrap("leaf", leaf)

    def episode():
        return inner() + inner()

    ep = tracer.wrap("episode", episode, new_group=True)
    ep()
    ep()
    names = [(s.name, s.parent, s.group) for s in tracer.spans]
    assert names == [("episode", -1, 0), ("leaf", 0, 0), ("leaf", 0, 0),
                     ("episode", -1, 1), ("leaf", 3, 1), ("leaf", 3, 1)]
    assert all(s.end >= s.start for s in tracer.spans)


def test_benchmark_json_matches_what_run_prints():
    import json

    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        workloads.LAYER_METRICS
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("given", [0, 7, 10**6, 3 * 10**9, 2**32 + 5, -1])
def test_any_integer_seed_is_accepted(given):
    import run

    args = run.parse_args(["--workload", "train-uniform", "--seed",
                           str(given), "--seconds", "1"])
    assert 0 <= args.seed < run.SEED_MODULUS
    assert args.seed == given % run.SEED_MODULUS


class _FixedSlowdown:
    def __init__(self, k):
        self.k = k

    def slowdown(self, kind):
        return self.k


def test_setup_times_are_divided_by_the_paired_slowdown():
    result, norm, raw, digests = workloads._median_timed(
        lambda: 7, 3, _FixedSlowdown(2.0), digest=lambda r: r)
    assert (result, digests) == (7, {7})
    assert norm == pytest.approx(raw / 2.0)


def test_reference_kernels_repeat_identical_work():
    import calib
    import numpy as np

    ref = calib.RefKernels()
    weights = [w.copy() for w in ref.ws]
    for kind in calib.NOMINAL_S:
        assert ref.slowdown(kind) > 0
        assert ref.slowdown(kind) > 0
        assert len(ref.seen[kind]) == 2
        assert ref.median_slowdown(kind) == pytest.approx(
            sum(ref.seen[kind]) / 2)
    assert all(np.array_equal(a, b) for a, b in zip(weights, ref.ws))
