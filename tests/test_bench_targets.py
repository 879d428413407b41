"""The benchmark's traced run swaps layer entry points by name
(``bench/workloads.py``); a rename in the package would silently drop a
layer from the trace, so every traced name must still resolve."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


def test_every_traced_target_resolves(workloads):
    targets = [t for w in workloads.WORKLOADS.values() for t in w.setup_targets + w.targets]
    assert targets
    missing = [t.name for t in targets if t.attr not in vars(t.owner)]
    assert missing == []
