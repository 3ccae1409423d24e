"""The two-armed existence test: linear statistic plus scan statistic.

The linear statistic sums the whole matrix and normalizes by sqrt(N*M), so it
is exactly standard normal under the null.  The scan statistic is the selector
objective normalized by sqrt(n*m).  The test rejects when either arm exceeds
its null quantile; the level is split alpha/2 + alpha/2 across the arms
(Bonferroni), which keeps the union conservative without distributional
assumptions about the scan arm.

Critical values are empirical quantiles from seeded null simulation and are
tied to the scan method used (exact vs heuristic); `detect` always re-uses the
method recorded in the calibration so the statistic being thresholded is the
statistic that was calibrated.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .model import Dims, Observation, canonical_support
from .model import generate_null  # noqa: F401  perfbench's tracer rebinds this here
from .montecarlo import scan_trials
from .selector import EXACT_ENUMERATION_BUDGET, scan
from .selector import scan_exact, scan_heuristic  # noqa: F401  perfbench's tracer rebinds these here
from .streams import derive_seed

_DETECT_TAG = 2  # the noise and select stream tags 0 and 1 belong to scan_trials


@dataclass(frozen=True)
class DetectionCalibration:
    alpha: float
    scan_crit: float
    linear_crit: float
    trials: int
    dims: Dims
    seed: int
    method: str
    restarts: int

    to_dict = asdict


@dataclass(frozen=True)
class DetectionResult:
    reject: bool
    linear_value: float
    scan_value: float
    linear_reject: bool
    scan_reject: bool

    to_dict = asdict


def linear_statistic(obs: Observation) -> float:
    """Grand sum over sqrt(N*M); standard normal under the null."""
    return float(obs.data.sum() / math.sqrt(obs.data.size))


def _normalised(objective: float, n: int, m: int) -> float:
    return objective / math.sqrt(n * m)


def scan_statistic(
    obs: Observation,
    n: int,
    m: int,
    method: str = "exact",
    restarts: int = 10,
    seed: int = 0,
    budget: int = EXACT_ENUMERATION_BUDGET,
) -> float:
    """Selector objective over sqrt(n*m)."""
    res = scan(obs, n, m, method, restarts=restarts, seed=seed, budget=budget)
    return _normalised(res.objective, n, m)


def _empirical_quantile(values: np.ndarray, level: float) -> float:
    # order statistic at the ceiling index (type-1 quantile), no smoothing
    ordered = np.sort(values)
    idx = math.ceil(values.size * level) - 1
    return float(ordered[max(0, min(idx, values.size - 1))])


def calibrate(
    dims: Dims,
    alpha: float,
    trials: int,
    seed: int,
    method: str = "heuristic",
    restarts: int = 10,
    budget: int = EXACT_ENUMERATION_BUDGET,
    workers: int | None = None,
) -> DetectionCalibration:
    """Estimate the two null critical values from `trials` seeded simulations.

    Each arm gets the empirical (1 - alpha/2)-quantile of its statistic under
    the null.  Requires trials >= 100/alpha so the tail order statistic is
    estimable.  Deterministic given (dims, alpha, trials, seed, method).
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    if trials < 100.0 / alpha:
        raise ValidationError(
            f"need trials >= 100/alpha = {100.0 / alpha:.0f} for quantile estimation, got {trials}"
        )

    def outcome(obs, res) -> tuple[float, float]:
        return linear_statistic(obs), _normalised(res.objective, dims.n, dims.m)

    # the null trial is the risk trial at a = 0
    stats = scan_trials(dims, canonical_support(dims), (0.0,), trials, seed, outcome, method=method,
                        restarts=restarts, budget=budget, workers=workers)
    lin, scn = np.array(stats)[:, 0].T
    level = 1.0 - alpha / 2.0
    return DetectionCalibration(
        alpha=alpha, scan_crit=_empirical_quantile(scn, level),
        linear_crit=_empirical_quantile(lin, level), trials=trials, dims=dims, seed=seed,
        method=method, restarts=restarts,
    )


def detect(obs: Observation, calibration: DetectionCalibration, workers: int | None = None) -> DetectionResult:
    """Reject the all-noise null iff either arm exceeds its calibrated critical value.

    `workers` is ignored (one scan, one thread); perfbench/run.py passes it."""
    if obs.dims.shape != calibration.dims.shape:
        raise DimensionMismatchError(
            f"observation is {obs.dims.shape}, calibration expects {calibration.dims.shape}"
        )
    lin = linear_statistic(obs)
    scn = scan_statistic(
        obs,
        calibration.dims.n,
        calibration.dims.m,
        method=calibration.method,
        restarts=calibration.restarts,
        seed=derive_seed(calibration.seed, (_DETECT_TAG,)),
    )
    lin_rej = lin > calibration.linear_crit
    scn_rej = scn > calibration.scan_crit
    return DetectionResult(
        reject=bool(lin_rej or scn_rej),
        linear_value=lin,
        scan_value=scn,
        linear_reject=bool(lin_rej),
        scan_reject=bool(scn_rej),
    )
