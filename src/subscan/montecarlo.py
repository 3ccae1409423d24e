"""Monte Carlo estimation of the selection risk P(selected != planted).

One planted support suffices: by symmetry of the noise law the miss
probability of the scan selector does not depend on where the block sits, so
the canonical top-left block is planted (and the invariance itself is covered
by tests rather than assumed).  All supported cells get mean exactly a, the
least favorable configuration.

Trials are independent, draw from streams keyed by (seed, tag, trial index),
and are aggregated in trial order, so estimates are bit-identical for any
worker count.  `scan_trials` is the one trial loop, and it is trial-major: a
trial draws its noise and its selector seed once and scans them at every
signal level asked for, so the levels of a sweep share the noise draw and
the heuristic's restart rows.  `parallel.map_indexed` fans the trials out
only when the first one is heavy.  The loop runs at one level for risk and
at a = 0 for detection's null calibration.  Failure is exact set mismatch;
the average overlap fraction is a diagnostic only.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

from .errors import ValidationError
from .model import Dims, SignalSpec, Support, canonical_support, check_signal_level, generate, plant
from .parallel import map_indexed, map_windowed
from .selector import EXACT_ENUMERATION_BUDGET, scan, vector_select
from .selector import scan_exact, scan_heuristic  # noqa: F401  perfbench's tracer rebinds these here
from .streams import derive_seed, gaussian_stream
from .thresholds import critical_value

_NOISE_TAG = 0
_SELECT_TAG = 1
_NULL = SignalSpec(0.0)

# the exact float64 of scipy.stats.norm.ppf(0.975); statistics.NormalDist
# gives 1.9599639845400536, one ulp off, which would move every interval
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class RiskEstimate:
    trials: int
    failures: int
    risk: float
    ci_low: float
    ci_high: float
    mean_overlap: float
    selector_method: str
    dims: Dims
    a: float
    seed: int

    to_dict = asdict


@dataclass(frozen=True)
class SweepResult:
    grid: tuple[tuple[float, RiskEstimate], ...]
    multipliers: tuple[float, ...]
    dims: Dims
    a_star_used: float

    def to_dict(self) -> dict:
        return {
            "a_star_used": self.a_star_used,
            "dims": asdict(self.dims),
            "grid": [
                {"multiplier": mult, "a": a, **est.to_dict()}
                for mult, (a, est) in zip(self.multipliers, self.grid)
            ],
        }

    def csv_rows(self) -> list[str]:
        """Plot-ready flat table, one line per grid point (with header)."""
        lines = ["a,multiplier,risk,ci_low,ci_high,mean_overlap,trials"]
        for mult, (a, est) in zip(self.multipliers, self.grid):
            lines.append(
                f"{a:.17g},{mult:.17g},{est.risk:.17g},{est.ci_low:.17g},"
                f"{est.ci_high:.17g},{est.mean_overlap:.17g},{est.trials}"
            )
        return lines


def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion; well-behaved at 0 and 1."""
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if not 0 <= failures <= trials:
        raise ValidationError(f"failures must lie in [0, {trials}], got {failures}")
    phat, z = failures / trials, _Z95
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    # at the boundary counts the endpoints are exactly 0 and 1; don't let
    # rounding in the half-width smear them
    low = 0.0 if failures == 0 else max(0.0, center - half)
    high = 1.0 if failures == trials else min(1.0, center + half)
    return low, high


def _risk_estimate(outcomes, selector_method, dims, a, seed) -> RiskEstimate:
    """Aggregate per-trial (missed, overlap fraction) pairs, in trial order."""
    trials = len(outcomes)
    failures = sum(1 for missed, _ in outcomes if missed)
    low, high = wilson_interval(failures, trials)  # rejects trials < 1
    mean_overlap = math.fsum(ov for _, ov in outcomes) / trials
    return RiskEstimate(
        trials, failures, failures / trials, low, high, mean_overlap, selector_method, dims, a, seed
    )


def scan_trials(dims: Dims, planted: Support, levels, trials: int, seed: int, outcome: Callable,
                *, method: str, restarts: int, budget: int, workers: int | None) -> list:
    """[[outcome(obs, result) per signal level] for trial t = 0, 1, ...], in
    trial order.

    The loop is trial-major: trial t draws its pure-noise matrix once, from
    the stream (seed, 0, t), plants each of `levels` on the `planted` support
    by generate's own rule, and scans every level serially with `method`,
    seeded from the select stream (seed, 1, t).  So each level's outcomes
    equal those of a one-level call, and the heuristic's restart rows, a
    function of that seed, are drawn once per trial and shared by its levels.
    """
    signals = [SignalSpec(a) for a in levels]

    def one_trial(t: int) -> list:
        null = generate(dims, planted, _NULL, derive_seed(seed, (_NOISE_TAG, t)))
        select_seed = derive_seed(seed, (_SELECT_TAG, t))
        outcomes = []
        for signal in signals:
            obs = plant(null, planted, signal)
            res = scan(obs, dims.n, dims.m, method, restarts=restarts, seed=select_seed,
                       budget=budget)
            outcomes.append(outcome(obs, res))
        return outcomes

    return map_indexed(one_trial, trials, workers)


def estimate_risk(
    dims: Dims,
    a: float,
    trials: int,
    seed: int,
    selector_method: str = "exact",
    restarts: int = 20,
    budget: int = EXACT_ENUMERATION_BUDGET,
    workers: int | None = None,
) -> RiskEstimate:
    """Fraction of trials in which the selector misses the planted canonical
    top-left block."""
    return _risk_curve(dims, (a,), trials, seed, selector_method, restarts, budget, workers)[0]


def _risk_curve(dims, levels, trials, seed, selector_method, restarts, budget, workers) -> list:
    """[estimate_risk(dims, a, ...) for a in levels], from one trial loop."""
    planted = canonical_support(dims)
    nm = dims.n * dims.m

    def outcome(obs, res) -> tuple[bool, float]:
        return res.support != planted, res.support.overlap(planted) / nm

    per_trial = scan_trials(dims, planted, levels, trials, seed, outcome, method=selector_method,
                            restarts=restarts, budget=budget, workers=workers)
    return [_risk_estimate([trial[i] for trial in per_trial], selector_method, dims, a, seed)
            for i, a in enumerate(levels)]


def sweep(
    dims: Dims,
    a_multipliers,
    trials: int,
    seed: int,
    selector_method: str = "heuristic",
    restarts: int = 20,
    budget: int = EXACT_ENUMERATION_BUDGET,
    workers: int | None = None,
) -> SweepResult:
    """Risk curve across multiples of the critical level a_star.

    One trial-major loop serves the whole grid: trial t's noise matrix and
    selector seed are drawn once and scanned at every signal level (common
    random numbers), so the phase transition shows up without Monte Carlo
    jitter between points, and each grid point equals `estimate_risk` at its
    level.  A trial carries one scan per level, so a long grid sooner makes
    it heavy enough for `parallel.map_indexed` to fan the trials out.
    """
    mults = [float(x) for x in a_multipliers]
    if not mults:
        raise ValidationError("need at least one multiplier")
    if any(x <= 0 for x in mults):
        raise ValidationError(f"multipliers must be positive, got {mults}")
    if sorted(mults) != mults:
        raise ValidationError(f"multipliers must be sorted ascending, got {mults}")
    a_star = critical_value(dims)
    levels = [mult * a_star for mult in mults]
    ests = _risk_curve(dims, levels, trials, seed, selector_method, restarts, budget, workers)
    return SweepResult(grid=tuple(zip(levels, ests)), multipliers=tuple(mults), dims=dims,
                       a_star_used=a_star)


def vector_risk(
    N: int, n: int, a: float, trials: int, seed: int, workers: int | None = None
) -> RiskEstimate:
    """Selection risk for the vector case: top-n picking of a length-N vector
    with n coordinates elevated by a."""
    if n < 2 or n >= N:
        raise ValidationError(f"vector case needs 2 <= n < N, got n={n}, N={N}")
    check_signal_level(a)  # the estimate keeps `a` as given
    planted = list(range(n))

    def one_trial(t: int) -> tuple[bool, float]:
        x = gaussian_stream(derive_seed(seed, (_NOISE_TAG, t))).standard_normal(N)
        x[:n] += a
        picked = vector_select(x, n)
        overlap = len(set(picked) & set(planted)) / n
        return picked != planted, overlap

    outcomes = list(map_windowed(one_trial, range(trials), workers))  # see parallel's docstring
    return _risk_estimate(outcomes, "vector", Dims(N, 1, n, 1), a, seed)


def max_gauss_exceedance(J: int, t: float, trials: int, seed: int,
                         workers: int | None = None) -> float:
    """Estimate P(max of J standard normals >= t * sqrt(2 log J)) by simulation.

    For J = 1 the scaling factor is 0, so this is P(Z >= 0) = 1/2 for any finite t.
    """
    if J < 1:
        raise ValidationError(f"J must be >= 1, got {J}")
    if trials < 100:
        raise ValidationError(f"need trials >= 100, got {trials}")
    if not math.isfinite(t):
        raise ValidationError(f"t must be finite, got {t!r}")
    threshold = float(t) * math.sqrt(2.0 * math.log(J))

    def one_trial(tr: int) -> bool:
        draws = gaussian_stream(derive_seed(seed, (_NOISE_TAG, tr))).standard_normal(J)
        return bool(draws.max() >= threshold)

    hits = list(map_windowed(one_trial, range(trials), workers))
    return sum(hits) / trials
