"""The nine release properties behind `subscan selftest` and the acceptance tests:
one function each, at acceptance scale, returning its failure count or its list
of problems, so that 0 or an empty list means the property holds."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np

from . import parallel
from .detection import calibrate
from .model import Dims, Observation, make_support
from .montecarlo import _Z95, estimate_risk, max_gauss_exceedance, sweep, vector_risk, wilson_interval
from .selector import log_lr, scan_brute_force, scan_exact, top_indices
from .streams import gaussian_stream
from .thresholds import compute, critical_value


def _instances(count: int, seed: int, max_dim: int = 8):
    """`count` seeded Gaussian noise observations, 3 <= N, M <= max_dim, n, m <= 3."""
    rng = gaussian_stream(seed)
    for _ in range(count):
        N, M = int(rng.integers(3, max_dim + 1)), int(rng.integers(3, max_dim + 1))
        n, m = int(rng.integers(1, min(3, N) + 1)), int(rng.integers(1, min(3, M) + 1))
        yield Observation(rng.standard_normal((N, M)), Dims(N, M, n, m))


def _support(data, dims: Dims):
    return scan_exact(Observation(data, dims), dims.n, dims.m).support


def oracle_mismatches() -> int:
    """Of 500 instances, those where the exact scan and brute force differ."""
    mismatches = 0
    for obs in _instances(500, 1001):
        exact, brute = (scan(obs, obs.dims.n, obs.dims.m) for scan in (scan_exact, scan_brute_force))
        mismatches += (exact.support, exact.objective) != (brute.support, brute.objective)
    return mismatches


def column_reduction_mismatches() -> int:
    """Of all row sets and m in 200 matrices up to 6x6, those where `top_indices` misses the best columns."""
    rng = gaussian_stream(1002)
    mismatches = 0
    for _ in range(200):
        N, M = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        Y = rng.standard_normal((N, M))
        for size in range(1, N + 1):
            for rows in itertools.combinations(range(N), size):
                colsum = Y[list(rows)].sum(axis=0)
                for m in range(1, M + 1):
                    subsets = list(itertools.combinations(range(M), m))
                    sums = [colsum[list(c)].sum() for c in subsets]
                    top = tuple(int(j) for j in top_indices(colsum, m))
                    mismatches += top != subsets[int(np.argmax(sums))] or colsum[list(top)].sum() != max(sums)
    return mismatches


def shift_failures() -> int:
    """Of 200 instances, those whose support moves when 4.75 is added to every entry."""
    return sum(_support(o.data + 4.75, o.dims) != _support(o.data, o.dims) for o in _instances(200, 1011, 7))


def scale_failures() -> int:
    """Of 200 instances, those whose support moves when every entry is scaled by 3.5 or 0.125."""
    return sum(any(_support(o.data * c, o.dims) != _support(o.data, o.dims) for c in (3.5, 0.125))
               for o in _instances(200, 1011, 7))


def permutation_failures() -> int:
    """Of 200 instances, those whose support does not follow a random row and column permutation."""
    rng = gaussian_stream(1010)
    failures = 0
    for obs in _instances(200, 1011, 7):
        base = _support(obs.data, obs.dims)
        sigma, tau = rng.permutation(obs.dims.N), rng.permutation(obs.dims.M)
        # row sigma[i] moves to row i, so row r lands at argsort(sigma)[r]
        moved = make_support(obs.dims, np.argsort(sigma)[list(base.rows)], np.argsort(tau)[list(base.cols)])
        failures += _support(obs.data[np.ix_(sigma, tau)], obs.dims) != moved
    return failures


def threshold_problems() -> list[str]:
    """Where B = min(A1, A2, A), B(a*) = 1 or the row/column swap symmetry fails."""
    problems = []
    for dims in (Dims(1000, 1000, 10, 10), Dims(60, 60, 6, 6), Dims(47, 83, 3, 9), Dims(120, 85, 6, 3),
                 Dims(10**6, 14, 100, 3), Dims(10**6, 14, 10**5, 3), Dims(50, 40, 5, 3)):
        levels = [compute(dims, a) for a in (0.1, 0.3, 1.0, 2.7, 4.2, 10.0)]
        if any(th.B != min(th.A1, th.A2, th.A) for th in levels):
            problems.append(f"min-composition at {dims}")
        if abs(compute(dims, critical_value(dims)).B - 1.0) > 1e-12:
            problems.append(f"B(a*) != 1 at {dims}")
        # the swap exchanges A1 and A2 and leaves A, B, a_star and det_quantity exactly as they were
        th = compute(dims, 1.0)
        if compute(Dims(dims.M, dims.N, dims.m, dims.n), 1.0) != replace(th, A1=th.A2, A2=th.A1):
            problems.append(f"symmetry at {dims}")
    return problems


def wilson_failures() -> int:
    """Endpoints of the 0- and all-failure intervals at 50, 200 and 1000 trials off their closed forms."""
    z2 = _Z95 * _Z95
    failures = 0
    for trials in (50, 200, 1000):
        low, high = wilson_interval(0, trials)
        failures += low != 0.0 or not math.isclose(high, z2 / (trials + z2), rel_tol=1e-12)
        low, high = wilson_interval(trials, trials)
        failures += high != 1.0 or not math.isclose(low, trials / (trials + z2), rel_tol=1e-12)
    return failures


def worker_dependent() -> list[str]:
    """The entry points whose result differs between 1, 4 and 8 workers."""
    dims, small = Dims(60, 60, 6, 6), Dims(20, 20, 3, 3)
    runs = {
        "risk": lambda w: estimate_risk(dims, critical_value(dims), 30, 5, "heuristic", restarts=10, workers=w),
        "sweep": lambda w: sweep(small, [0.5, 1.5], 20, 6, "exact", workers=w),
        "calibration": lambda w: calibrate(small, 0.1, 1000, 7, method="heuristic", restarts=4, workers=w),
        "vector": lambda w: vector_risk(2000, 5, 4.0, 50, 8, workers=w),
        "maxgauss": lambda w: max_gauss_exceedance(1000, 1.0, 200, 9, workers=w),
    }
    # open the gate, process-wide, so even these light trials reach 4- and 8-worker pools
    gate, parallel.FAN_OUT_SECONDS = parallel.FAN_OUT_SECONDS, 0.0
    try:
        return [name for name, result in runs.items() if not result(1) == result(4) == result(8)]
    finally:
        parallel.FAN_OUT_SECONDS = gate


def likelihood_mismatches() -> int:
    """Of 10 instances up to 5x5 at a = 0.9 and 1.5, those where the least log-LR support is not the scan's."""
    mismatches = 0
    for obs in _instances(10, 106, 5):
        d = obs.dims
        supports = [make_support(d, rows, cols) for rows in itertools.combinations(range(d.N), d.n)
                    for cols in itertools.combinations(range(d.M), d.m)]
        best = _support(obs.data, d)
        for a in (0.9, 1.5):
            mismatches += supports[int(np.argmin([log_lr(obs, s, a) for s in supports]))] != best
    return mismatches


def run() -> bool:
    """Print one line per property and a summary; True when every property holds."""
    properties = [
        ("exact scan matches brute force", oracle_mismatches),
        ("top-m column reduction equals exhaustive column search", column_reduction_mismatches),
        ("shift invariance of the selected support", shift_failures),
        ("scale invariance of the selected support", scale_failures),
        ("permutation equivariance of the selected support", permutation_failures),
        ("threshold identities (min-composition, B(a*)=1, symmetry)", threshold_problems),
        ("wilson interval endpoints", wilson_failures),
        ("worker-count determinism of risk estimates", worker_dependent),
        ("scan maximizer equals likelihood maximizer", likelihood_mismatches),
    ]
    failed = 0
    for name, prop in properties:
        ok = not prop()
        print(f"{'ok' if ok else 'FAIL'} - {name}")
        failed += not ok
    print(f"{len(properties) - failed}/{len(properties)} properties passed")
    return failed == 0
