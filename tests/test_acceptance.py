"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor

from subscan import (
    Dims,
    SignalSpec,
    calibrate,
    canonical_support,
    classify,
    critical_value,
    detect,
    generate,
    generate_null,
    max_gauss_exceedance,
    parallel,
    selftest,
    sweep,
    vector_critical_value,
    vector_risk,
)


def _verdict(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    mismatches = selftest.oracle_mismatches()
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 30.0
    assert _verdict(1, ok, f"exact==brute on 500 instances, {mismatches} mismatches, {elapsed:.1f}s (<30s)")


def test_criterion_2_column_reduction():
    mismatches = selftest.column_reduction_mismatches()
    ok = mismatches == 0
    assert _verdict(2, ok, f"top-m reduction vs exhaustive columns on 200 matrices, {mismatches} mismatches")


def test_criterion_3_threshold_identities():
    problems = selftest.threshold_problems()
    N = 10**6
    for P in (0.05, 0.5):
        n = round(N**P)
        a2 = critical_value(Dims(N, N, n, n)) ** 2
        approx = max(2.0 * (1.0 + math.sqrt(P)) ** 2, 4.0 * (1.0 - P)) * math.log(N) / n
        rel = abs(a2 - approx) / approx
        if rel > 0.05:
            problems.append(f"square case P={P}: rel error {rel:.3f}")
    ok = not problems
    assert _verdict(3, ok, "identities + square polynomial case within 5%" if ok else "; ".join(problems))


def test_criterion_4_phase_transition():
    started = time.perf_counter()
    dims = Dims(60, 60, 6, 6)
    result = sweep(dims, [0.5, 1.0, 2.0], trials=100, seed=1,
                   selector_method="heuristic", restarts=20)
    risks = [est.risk for _, est in result.grid]
    elapsed = time.perf_counter() - started
    ok = (
        risks[0] >= 0.8
        and risks[2] <= 0.1
        and risks[0] > risks[1] > risks[2]
        and elapsed < 300.0
    )
    assert _verdict(4, ok, f"risks at (0.5,1,2)*a_star = {risks}, {elapsed:.1f}s (<300s)")


def test_criterion_5_vector_case():
    a_star = vector_critical_value(10_000, 10)
    high = vector_risk(10_000, 10, 2.0 * a_star, 200, seed=2)
    low = vector_risk(10_000, 10, 0.5 * a_star, 200, seed=2)
    ok = high.risk <= 0.05 and low.risk >= 0.9 and high.selector_method == low.selector_method == "vector"
    assert _verdict(5, ok, f"risk(2*a*)={high.risk}, risk(0.5*a*)={low.risk}, selector={high.selector_method}")


def test_criterion_6_detection_selection_gap():
    n = 10**6
    logn = math.log(n)
    dims = Dims(n * n, math.ceil(logn), n, math.ceil(math.log(logn)))
    a = math.sqrt(logn / math.log(logn))
    label = classify(dims, a)
    A1, det = label.basis["A1"], label.basis["det_quantity"]
    ok = (
        label.detection == "distinguishable"
        and label.selection == "inconsistent"
        and A1 < 1 - 0.05
        and math.isclose(det, 3.3823699, rel_tol=1e-6)
    )
    assert _verdict(6, ok, f"gap instance: detection={label.detection}, selection={label.selection}, "
                           f"A1={A1:.3f} (<0.95), det_quantity={det:.7f}")


def test_criterion_7_detection_level_and_power():
    level_dims = Dims(50, 50, 5, 5)
    calib = calibrate(level_dims, alpha=0.05, trials=2000, seed=21, method="heuristic", restarts=10)
    rejections = sum(
        detect(generate_null(level_dims, 10_000_000 + t), calib).reject for t in range(2000)
    )
    level = rejections / 2000

    power_dims = Dims(100, 100, 10, 10)
    calib2 = calibrate(power_dims, alpha=0.05, trials=2000, seed=23, method="heuristic", restarts=10)
    a = math.sqrt(25.0 * power_dims.N * power_dims.M) / (power_dims.n * power_dims.m)
    support = canonical_support(power_dims)
    hits = sum(
        detect(generate(power_dims, support, SignalSpec(a), 20_000_000 + t), calib2).reject
        for t in range(500)
    )
    power = hits / 500
    ok = level <= 0.07 and power >= 0.9
    assert _verdict(7, ok, f"fresh-null level={level:.4f} (<=0.07), power at det_quantity=25: {power:.3f} (>=0.9)")


def test_criterion_8_gaussian_maximum_bracket():
    below = max_gauss_exceedance(10**5, 0.8, 400, seed=3)
    above = max_gauss_exceedance(10**5, 1.2, 400, seed=4)
    ok = below >= 0.95 and above <= 0.05
    assert _verdict(8, ok, f"P(t=0.8)={below} (>=0.95), P(t=1.2)={above} (<=0.05)")


def test_criterion_9_worker_count_determinism(monkeypatch):
    # every pool the five entry points start, by worker count
    pools = []

    def spy(max_workers):
        pools.append(max_workers)
        return ThreadPoolExecutor(max_workers)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", spy)
    differing = selftest.worker_dependent()
    ok = not differing and {4, 8} <= set(pools)
    assert _verdict(9, ok, "risk/sweep/calibration/vector/maxgauss bit-identical across 1, 4, 8 workers"
                    if ok else f"differ: {differing}; thread pools started: {pools}")


def test_criterion_10_invariance_suite():
    shift, scale, perm = selftest.shift_failures(), selftest.scale_failures(), selftest.permutation_failures()
    ok = shift == scale == perm == 0
    assert _verdict(10, ok, f"shift/scale/permutation over 200 instances each: {shift}/{scale}/{perm} failures")
