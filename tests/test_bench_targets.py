"""The benchmark's span targets name functions that still exist.

perfbench wraps diffpol functions by attribute name to split a run into
layers; a renamed or deleted function would silently drop its span.
Importing the workload module runs no workload.
"""

import pathlib
import sys

import pytest

PERFBENCH = str(pathlib.Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return workloads


@pytest.mark.parametrize("build", ["train_targets", "rollout_targets"])
def test_every_span_target_exists(workloads, build):
    targets = getattr(workloads, build)()
    assert targets
    # vars() and not hasattr, as the tracer itself looks targets up
    missing = [f"{getattr(t.owner, '__name__', t.owner)}.{t.attr}"
               for t in targets if t.attr not in vars(t.owner)]
    assert missing == []
