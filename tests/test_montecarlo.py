import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from subscan import (
    Dims,
    ValidationError,
    estimate_risk,
    make_support,
    max_gauss_exceedance,
    parallel,
    sweep,
    vector_risk,
    wilson_interval,
)
from subscan.montecarlo import _Z95 as Z
from subscan.montecarlo import scan_trials
from subscan.selector import EXACT_ENUMERATION_BUDGET
from subscan.thresholds import critical_value


def wilson_reference(failures, trials):
    # independent transcription of the score interval
    p = failures / trials
    center = (p + Z * Z / (2 * trials)) / (1 + Z * Z / trials)
    half = Z * math.sqrt(p * (1 - p) / trials + Z * Z / (4 * trials * trials)) / (1 + Z * Z / trials)
    return center - half, center + half


def test_wilson_interval_interior_matches_reference():
    for failures, trials in ((3, 50), (77, 200), (150, 200)):
        low, high = wilson_interval(failures, trials)
        ref_low, ref_high = wilson_reference(failures, trials)
        assert low == pytest.approx(ref_low, abs=1e-12)
        assert high == pytest.approx(ref_high, abs=1e-12)
        assert 0.0 <= low <= failures / trials <= high <= 1.0


def test_wilson_guards():
    with pytest.raises(ValidationError):
        wilson_interval(-1, 10)
    with pytest.raises(ValidationError):
        wilson_interval(11, 10)
    with pytest.raises(ValidationError):
        wilson_interval(0, 0)


def test_risk_at_zero_signal_is_chance_level():
    est = estimate_risk(Dims(20, 20, 3, 3), 0.0, 200, seed=11, selector_method="exact")
    assert est.risk >= 0.99
    assert est.failures <= est.trials
    assert 0.0 <= est.ci_low <= est.risk <= est.ci_high <= 1.0


def test_risk_vanishes_well_above_critical():
    d = Dims(20, 20, 3, 3)
    est = estimate_risk(d, 2.0 * critical_value(d), 100, seed=12, selector_method="exact")
    assert est.risk <= 0.1


def test_huge_signal_degenerate_counts():
    est = estimate_risk(Dims(15, 15, 2, 2), 100.0, 50, seed=13, selector_method="exact")
    assert est.failures == 0
    assert est.risk == 0.0
    assert est.ci_low == 0.0
    assert est.mean_overlap == 1.0


def test_estimate_risk_deterministic_across_workers(monkeypatch):
    # these trials are light; open the fan-out gate so 4 workers really run them
    monkeypatch.setattr(parallel, "FAN_OUT_SECONDS", 0.0)
    d = Dims(20, 20, 3, 3)
    for method in ("heuristic", "exact"):
        runs = [
            estimate_risk(d, 1.8, 40, seed=21, selector_method=method, restarts=8, workers=w)
            for w in (1, 4)
        ]
        assert runs[0] == runs[1]


def test_risk_does_not_depend_on_planted_location():
    # same protocol, two different planted blocks: estimates agree within
    # twice the combined interval half-widths
    d = Dims(20, 20, 3, 3)
    a = critical_value(d)
    corner = estimate_risk(d, a, 150, seed=31, selector_method="exact")
    planted = make_support(d, [7, 11, 16], [2, 9, 14])
    misses = [miss for miss, in scan_trials(
        d, planted, (a,), 150, 31, lambda obs, res: res.support != planted,
        method="exact", restarts=20, budget=EXACT_ENUMERATION_BUDGET, workers=None)]
    low, high = wilson_interval(sum(misses), 150)
    half = (corner.ci_high - corner.ci_low) / 2 + (high - low) / 2
    assert abs(corner.risk - sum(misses) / 150) <= 2 * half


def test_sweep_grid_composition(monkeypatch):
    # the trial-major sweep scans each trial's one noise draw at every level;
    # each grid point must still equal a one-level estimate_risk, bit for bit,
    # also when the fan-out gate lets 2 workers run these light trials
    monkeypatch.setattr(parallel, "FAN_OUT_SECONDS", 0.0)
    d = Dims(20, 20, 3, 3)
    a_star = critical_value(d)
    mults = [0.5, 1.0, 2.0]
    for method, workers in itertools.product(("exact", "heuristic"), (1, 2)):
        result = sweep(d, mults, 30, seed=41, selector_method=method, restarts=4, workers=workers)
        assert result.a_star_used == a_star
        assert [a for a, _ in result.grid] == [mult * a_star for mult in mults]
        for a, est in result.grid:
            assert est == estimate_risk(d, a, 30, seed=41, selector_method=method, restarts=4,
                                        workers=workers)


def test_sweep_guards():
    d = Dims(20, 20, 3, 3)
    with pytest.raises(ValidationError):
        sweep(d, [], 10, seed=0)
    with pytest.raises(ValidationError):
        sweep(d, [1.0, 0.5], 10, seed=0)
    with pytest.raises(ValidationError):
        sweep(d, [-1.0, 0.5], 10, seed=0)


def test_sweep_monotone_with_common_random_numbers():
    # exact selector + shared noise: per-trial success is monotone in a, so
    # the risk curve cannot increase along the grid
    d = Dims(20, 20, 3, 3)
    result = sweep(d, [0.4, 0.8, 1.2, 2.0], 100, seed=51, selector_method="exact")
    risks = [est.risk for _, est in result.grid]
    assert all(hi <= lo for lo, hi in zip(risks, risks[1:]))
    assert risks[0] > risks[-1]


def test_sweep_csv_rows_shape():
    d = Dims(15, 15, 2, 2)
    result = sweep(d, [0.5, 1.0], 20, seed=61, selector_method="exact")
    rows = result.csv_rows()
    assert rows[0] == "a,multiplier,risk,ci_low,ci_high,mean_overlap,trials"
    assert len(rows) == 3
    assert all(len(line.split(",")) == 7 for line in rows[1:])


def test_sweep_serializable():
    import json

    d = Dims(15, 15, 2, 2)
    result = sweep(d, [1.0], 20, seed=71, selector_method="exact")
    blob = json.loads(json.dumps(result.to_dict()))
    assert blob["grid"][0]["trials"] == 20


# --- vector case


def test_vector_risk_zero_signal():
    est = vector_risk(500, 4, 0.0, 100, seed=83)
    assert est.risk >= 0.99


def test_vector_risk_guards():
    with pytest.raises(ValidationError):
        vector_risk(10, 1, 1.0, 100, seed=0)
    with pytest.raises(ValidationError):
        vector_risk(10, 10, 1.0, 100, seed=0)
    for a in (math.nan, math.inf, -math.inf, -0.5):
        with pytest.raises(ValidationError, match="finite and >= 0"):
            vector_risk(10, 2, a, 100, seed=0)


# --- gaussian maxima


def test_max_gauss_single_draw_is_half():
    prob = max_gauss_exceedance(1, 5.0, 1000, seed=91)
    assert abs(prob - 0.5) <= 0.05


def test_max_gauss_monotone_in_threshold():
    probs = [max_gauss_exceedance(2000, t, 200, seed=92) for t in (0.6, 0.9, 1.1, 1.4)]
    assert all(hi <= lo for lo, hi in zip(probs, probs[1:]))


def test_max_gauss_guards():
    with pytest.raises(ValidationError):
        max_gauss_exceedance(0, 1.0, 400, seed=0)
    with pytest.raises(ValidationError):
        max_gauss_exceedance(10, 1.0, 99, seed=0)
    for J, t in ((10, math.nan), (10, math.inf), (10, -math.inf), (1, math.inf)):
        with pytest.raises(ValidationError, match="t must be finite"):
            max_gauss_exceedance(J, t, 400, seed=0)


def test_estimate_risk_guards():
    d = Dims(10, 10, 2, 2)
    with pytest.raises(ValidationError):
        estimate_risk(d, 1.0, 0, seed=0)
    for method in ("magic", "brute_force"):
        with pytest.raises(ValidationError):
            estimate_risk(d, 1.0, 10, seed=0, selector_method=method)


def test_z95_is_the_scipy_quantile():
    from scipy.stats import norm

    from subscan.montecarlo import _Z95

    assert _Z95 == float(norm.ppf(0.975))


def test_import_does_not_load_scipy():
    code = "import sys, subscan; print('scipy' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
