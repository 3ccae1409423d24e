import math

import numpy as np
import pytest

from subscan import (
    DimensionMismatchError,
    Dims,
    Observation,
    SignalSpec,
    ValidationError,
    calibrate,
    canonical_support,
    detect,
    generate,
    generate_null,
    linear_statistic,
    scan_exact,
    scan_statistic,
)


def test_linear_statistic_zero_matrix():
    obs = Observation(np.zeros((4, 6)), Dims(4, 6, 1, 1))
    assert linear_statistic(obs) == 0.0


def test_linear_statistic_unit_variance_under_null():
    values = np.array([linear_statistic(generate_null(Dims(10, 10, 1, 1), seed)) for seed in range(10_000)])
    assert abs(values.var() - 1.0) < 0.05
    assert abs(values.mean()) < 0.05


def test_linear_statistic_planted_mean_shift():
    # planted block shifts the mean by a*n*m/sqrt(N*M) = 1 here
    d = Dims(100, 100, 10, 10)
    s = canonical_support(d)
    values = [linear_statistic(generate(d, s, SignalSpec(1.0), seed)) for seed in range(1000)]
    assert abs(np.mean(values) - 1.0) < 0.1


def test_scan_statistic_single_cell():
    obs = Observation(np.array([[2.0]]), Dims(1, 1, 1, 1))
    assert scan_statistic(obs, 1, 1, method="exact") == 2.0


def test_scan_statistic_is_normalized_objective():
    obs = generate_null(Dims(12, 12, 3, 3), 4)
    value = scan_statistic(obs, 3, 3, method="exact")
    assert value == scan_exact(obs, 3, 3).objective / 3.0


def test_scan_statistic_method_guard():
    obs = generate_null(Dims(5, 5, 2, 2), 0)
    for method in ("annealing", "brute_force"):
        with pytest.raises(ValidationError):
            scan_statistic(obs, 2, 2, method=method)


def test_scan_statistic_null_concentration_band():
    # coarse band around sqrt(2*(n log(N/n) + m log(M/m))), frozen pre-release
    d = Dims(20, 20, 3, 3)
    values = [scan_statistic(generate_null(d, seed), 3, 3, method="exact") for seed in range(500)]
    center = math.sqrt(2 * (3 * math.log(20 / 3) + 3 * math.log(20 / 3)))
    assert center * 0.75 <= np.mean(values) <= center * 1.25


def test_calibrate_guards():
    d = Dims(10, 10, 2, 2)
    with pytest.raises(ValidationError):
        calibrate(d, 1.0, 2000, seed=0)
    with pytest.raises(ValidationError):
        calibrate(d, 0.0, 2000, seed=0)
    with pytest.raises(ValidationError):
        calibrate(d, 0.05, 1999, seed=0)  # below the 100/alpha floor
    with pytest.raises(ValidationError):
        calibrate(d, 0.05, 2000, seed=0, method="bogus")


@pytest.fixture(scope="module")
def exact_calibration():
    return calibrate(Dims(20, 20, 3, 3), 0.1, 1000, seed=8, method="exact")


def test_detect_fires_on_huge_signal(exact_calibration):
    d = exact_calibration.dims
    obs = generate(d, canonical_support(d), SignalSpec(50.0), 123)
    res = detect(obs, exact_calibration)
    assert res.reject and res.linear_reject and res.scan_reject


def test_detect_accepts_zero_matrix(exact_calibration):
    assert exact_calibration.linear_crit > 0 and exact_calibration.scan_crit > 0
    res = detect(Observation(np.zeros((20, 20)), exact_calibration.dims), exact_calibration)
    assert not res.reject


def test_detect_dims_mismatch():
    calib = calibrate(Dims(10, 10, 2, 2), 0.1, 1000, seed=1, method="heuristic", restarts=3)
    with pytest.raises(DimensionMismatchError):
        detect(generate_null(Dims(11, 10, 2, 2), 0), calib)


def test_level_bound_reduced_scale():
    # fresh-null rejection stays within alpha + 2*sqrt(alpha/trials)
    d = Dims(15, 15, 2, 2)
    alpha, trials = 0.1, 1000
    calib = calibrate(d, alpha, trials, seed=31, method="exact")
    rejections = sum(detect(generate_null(d, 7_000_000 + t), calib).reject for t in range(trials))
    assert rejections / trials <= alpha + 2 * math.sqrt(alpha / trials)


def test_power_monotone_in_signal_with_common_noise():
    d = Dims(15, 15, 2, 2)
    calib = calibrate(d, 0.1, 1000, seed=77, method="exact")
    s = canonical_support(d)
    rates = []
    for a in (0.5, 1.5, 3.0, 6.0):
        hits = sum(
            detect(generate(d, s, SignalSpec(a), 8_000_000 + t), calib).reject
            for t in range(150)
        )
        rates.append(hits / 150)
    assert all(hi >= lo for lo, hi in zip(rates, rates[1:]))
    assert rates[-1] == 1.0


def test_calibration_records_method_and_detect_reuses_it():
    d = Dims(15, 15, 2, 2)
    calib = calibrate(d, 0.1, 1000, seed=3, method="heuristic", restarts=6)
    assert calib.method == "heuristic"
    assert calib.restarts == 6
    res = detect(generate_null(d, 99), calib)
    assert isinstance(res.scan_value, float)


def test_calibration_serializable_roundtrip():
    import json

    d = Dims(12, 12, 2, 2)
    calib = calibrate(d, 0.1, 1000, seed=13, method="heuristic", restarts=3)
    blob = json.loads(json.dumps(calib.to_dict()))
    assert blob["scan_crit"] == calib.scan_crit
    assert blob["dims"] == {"N": 12, "M": 12, "n": 2, "m": 2}
