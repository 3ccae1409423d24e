"""The fan-out gate of `parallel.map_indexed`: item 0 runs alone and is timed,
and the rest fan out only if it took at least FAN_OUT_SECONDS."""

import math
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from subscan import Dims, calibrate, estimate_risk, max_gauss_exceedance, parallel, vector_risk

# every scan trial loop goes through the gate, whatever the method
ENTRY_POINTS = {
    "risk-exact": lambda: estimate_risk(Dims(6, 6, 2, 2), 2.0, 5, seed=5, workers=2),
    "risk-heuristic": lambda: estimate_risk(Dims(6, 6, 2, 2), 2.0, 5, seed=5,
                                            selector_method="heuristic", restarts=2, workers=2),
    "calibration": lambda: calibrate(Dims(6, 6, 2, 2), 0.5, 200, seed=5, method="heuristic",
                                     restarts=2, workers=2),
}
# a Gaussian-draw trial releases the GIL, so these loops fan out at any size
UNGATED = {
    "vector": lambda: vector_risk(50, 3, 1.0, 5, seed=5, workers=2),
    "maxgauss": lambda: max_gauss_exceedance(50, 1.0, 100, seed=5, workers=2),
}


@pytest.fixture
def pools(monkeypatch):
    """The worker count of every thread pool started, in order."""
    started = []

    def spy(max_workers):
        started.append(max_workers)
        return ThreadPoolExecutor(max_workers)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", spy)
    return started


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_closed_gate_starts_no_pool(monkeypatch, pools, entry):
    monkeypatch.setattr(parallel, "FAN_OUT_SECONDS", math.inf)
    ENTRY_POINTS[entry]()
    assert pools == []


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_open_gate_starts_a_pool(monkeypatch, pools, entry):
    monkeypatch.setattr(parallel, "FAN_OUT_SECONDS", 0.0)
    ENTRY_POINTS[entry]()
    assert pools == [2]


@pytest.mark.parametrize("entry", UNGATED)
def test_gaussian_draw_loops_fan_out_past_a_closed_gate(monkeypatch, pools, entry):
    monkeypatch.setattr(parallel, "FAN_OUT_SECONDS", math.inf)
    UNGATED[entry]()
    assert pools == [2]


def test_heavy_first_item_starts_a_pool(pools):
    # at the default gate: a 10 ms item 0 is heavy
    def item(i):
        if i == 0:
            time.sleep(0.010)
        return i * i

    assert parallel.map_indexed(item, 6, workers=2) == [i * i for i in range(6)]
    assert pools == [2]


@pytest.mark.parametrize("gate", [0.0, math.inf], ids=["open", "closed"])
def test_each_item_runs_once_in_index_order(monkeypatch, pools, gate):
    monkeypatch.setattr(parallel, "FAN_OUT_SECONDS", gate)
    calls = []

    def item(i):
        calls.append(i)
        return -i

    assert parallel.map_indexed(item, 40, workers=2) == [-i for i in range(40)]
    assert sorted(calls) == list(range(40)) and calls[0] == 0


@pytest.mark.parametrize("count", [0, 1, 2])
def test_too_few_items_start_no_pool(monkeypatch, pools, count):
    # nothing after item 0 to share out, or only one item
    monkeypatch.setattr(parallel, "FAN_OUT_SECONDS", 0.0)
    assert parallel.map_indexed(str, count, workers=2) == [str(i) for i in range(count)]
    assert pools == []


@pytest.mark.parametrize("gate", [0.0, math.inf], ids=["open", "closed"])
@pytest.mark.parametrize("k", [0, 3])
def test_failing_item_raises_the_same_at_any_worker_count(monkeypatch, gate, k):
    # items k and k + 2 fail; the lowest index's exception comes out
    monkeypatch.setattr(parallel, "FAN_OUT_SECONDS", gate)

    def item(i):
        if i in (k, k + 2):
            raise ValueError(f"item {i} failed")
        return i

    raised = []
    for workers in (1, 2):
        with pytest.raises(ValueError) as exc:
            parallel.map_indexed(item, 12, workers=workers)
        raised.append((type(exc.value), exc.value.args))
    assert raised == [(ValueError, (f"item {k} failed",))] * 2
