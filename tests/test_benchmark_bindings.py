"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps module
attributes of `subscan` by name and calls the fan-out helpers directly, so a
refactor that drops one of those names breaks only that run.  These tests
catch it here."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from subscan import parallel

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_and_restores_every_binding():
    tracing = _tracing()
    before = [(mod, attr, getattr(mod, attr)) for _, mods, attr in tracing.WRAPPED for mod in mods]
    tracer = tracing.Tracer()
    try:
        tracer.__enter__()  # fails on a binding that is gone
        assert all(getattr(mod, attr) is not fn for mod, attr, fn in before)
    finally:
        tracer.__exit__(None, None, None)
    assert all(getattr(mod, attr) is fn for mod, attr, fn in before)


def test_exact_scan_calls_top_indices_through_its_binding():
    # the traced run averages over `selector.top_indices` spans, and the
    # exact scan, run or probed in every workload, is what makes them
    from subscan import Dims, generate_null, scan_exact

    tracing = _tracing()
    with tracing.Tracer() as tracer:
        scan_exact(generate_null(Dims(12, 12, 3, 3), 1), 3, 3)
    assert tracer.named("selector.top_indices")


def test_fan_out_helpers_exist():
    assert parallel.map_indexed(lambda i: i * i, 4, workers=2) == [0, 1, 4, 9]
    assert list(parallel.map_windowed(str, range(3), workers=2)) == ["0", "1", "2"]


@pytest.mark.parametrize("workload", ["risk-exact", "sweep-heuristic", "calibrate-detect"])
def test_traced_run_passes_its_checks(tmp_path, workload):
    # `run.py --trace 1` calls subscan with keywords (such as `workers=`) that
    # only this run passes; a fresh process keeps its tracer and environment
    # apart from the other tests
    code = f"""
import sys
from pathlib import Path
sys.path[:0] = [{str(TRACING.parent)!r}, {str(TRACING.parents[1] / "src")!r}]
import run
from workloads import WORKLOADS

run.OUT = Path({str(tmp_path / "out")!r})
wl = WORKLOADS[{workload!r}](1, Path({str(tmp_path / "work")!r}))
wl.workdir.mkdir()
result = run.Run(wl)
run.traced(wl, result)
assert not result.problems and not result.failed, (result.problems, result.failed)
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
