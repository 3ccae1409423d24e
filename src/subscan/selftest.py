"""Reduced-scale oracle and invariance checks behind `subscan selftest`.

Nine properties on small seeded instances: the exact scan against brute
force, the top-m column reduction, shift, scale and permutation behaviour of
the selected support, the threshold identities, the Wilson interval
endpoints, worker-count determinism and the scan/likelihood equivalence.
"""

from __future__ import annotations

import itertools

import numpy as np

from .model import Dims, Observation, make_support
from .montecarlo import estimate_risk, wilson_interval
from .selector import log_lr, scan_brute_force, scan_exact
from .streams import gaussian_stream
from .thresholds import compute, critical_value


def _random_instances(count, seed, max_dim=7):
    rng = gaussian_stream(seed)
    for _ in range(count):
        N = int(rng.integers(3, max_dim + 1))
        M = int(rng.integers(3, max_dim + 1))
        n = int(rng.integers(1, min(3, N) + 1))
        m = int(rng.integers(1, min(3, M) + 1))
        Y = rng.standard_normal((N, M))
        yield Observation(Y, Dims(N, M, n, m)), n, m


def _st_oracle() -> bool:
    for obs, n, m in _random_instances(40, 101):
        a = scan_exact(obs, n, m)
        b = scan_brute_force(obs, n, m)
        if a.support != b.support or a.objective != b.objective:
            return False
    return True


def _st_decomposition() -> bool:
    rng = gaussian_stream(102)
    for _ in range(12):
        Y = rng.standard_normal((5, 5))
        for size in range(1, 6):
            for rows in itertools.combinations(range(5), size):
                colsum = Y[list(rows)].sum(axis=0)
                for m in range(1, 6):
                    best = max(
                        sum(colsum[list(cols)]) for cols in itertools.combinations(range(5), m)
                    )
                    top = np.sort(colsum)[5 - m:].sum()
                    if not np.isclose(best, top, rtol=0, atol=1e-12):
                        return False
    return True


def _st_shift_scale() -> tuple[bool, bool]:
    shift_ok = scale_ok = True
    for obs, n, m in _random_instances(25, 103):
        base = scan_exact(obs, n, m)
        shifted = Observation(obs.data + 3.25, obs.dims)
        scaled = Observation(obs.data * 7.5, obs.dims)
        shift_ok &= scan_exact(shifted, n, m).support == base.support
        scale_ok &= scan_exact(scaled, n, m).support == base.support
    return shift_ok, scale_ok


def _st_permutation() -> bool:
    rng = gaussian_stream(104)
    for obs, n, m in _random_instances(25, 105):
        base = scan_exact(obs, n, m)
        N, M = obs.dims.shape
        sigma = rng.permutation(N)
        tau = rng.permutation(M)
        permuted = Observation(obs.data[np.ix_(sigma, tau)], obs.dims)
        res = scan_exact(permuted, n, m)
        rows = tuple(sorted(int(np.flatnonzero(sigma == r)[0]) for r in base.support.rows))
        cols = tuple(sorted(int(np.flatnonzero(tau == c)[0]) for c in base.support.cols))
        if (res.support.rows, res.support.cols) != (rows, cols):
            return False
    return True


def _st_thresholds() -> bool:
    for (N, M, n, m) in ((1000, 1000, 10, 10), (60, 60, 6, 6), (50, 40, 5, 3)):
        dims = Dims(N, M, n, m)
        for a in (0.25, 1.0, 3.0):
            th = compute(dims, a)
            if th.B != min(th.A1, th.A2, th.A):
                return False
        a_star = critical_value(dims)
        if abs(compute(dims, a_star).B - 1.0) > 1e-12:
            return False
        sw = compute(Dims(M, N, m, n), 1.0)
        th = compute(dims, 1.0)
        if sw.A1 != th.A2 or sw.A2 != th.A1 or sw.A != th.A:
            return False
    return True


def _st_wilson() -> bool:
    z = 1.959963984540054
    for trials in (50, 200):
        low, high = wilson_interval(0, trials)
        if low != 0.0 or abs(high - z * z / (trials + z * z)) > 1e-12:
            return False
        low, high = wilson_interval(trials, trials)
        if high != 1.0 or abs(low - trials / (trials + z * z)) > 1e-12:
            return False
    return True


def _st_workers() -> bool:
    dims = Dims(20, 20, 3, 3)
    one = estimate_risk(dims, 2.0, 12, 7, selector_method="heuristic", restarts=5, workers=1)
    many = estimate_risk(dims, 2.0, 12, 7, selector_method="heuristic", restarts=5, workers=3)
    return one == many


def _st_likelihood() -> bool:
    for obs, n, m in _random_instances(10, 106, max_dim=5):
        best = scan_exact(obs, n, m)
        N, M = obs.dims.shape
        supports = [
            make_support(Dims(N, M, n, m), rows, cols)
            for rows in itertools.combinations(range(N), n)
            for cols in itertools.combinations(range(M), m)
        ]
        loglrs = [log_lr(obs, s, 1.5) for s in supports]
        if supports[int(np.argmin(loglrs))] != best.support:
            return False
    return True


def run() -> bool:
    """Print one line per property and a summary; True when every property holds."""
    shift_ok, scale_ok = _st_shift_scale()
    checks = [
        ("exact scan matches brute force", _st_oracle()),
        ("top-m column reduction equals exhaustive column search", _st_decomposition()),
        ("shift invariance of the selected support", shift_ok),
        ("scale invariance of the selected support", scale_ok),
        ("permutation equivariance of the selected support", _st_permutation()),
        ("threshold identities (min-composition, B(a*)=1, symmetry)", _st_thresholds()),
        ("wilson interval endpoints", _st_wilson()),
        ("worker-count determinism of risk estimates", _st_workers()),
        ("scan maximizer equals likelihood maximizer", _st_likelihood()),
    ]
    failed = 0
    for name, ok in checks:
        print(f"{'ok' if ok else 'FAIL'} - {name}")
        failed += not ok
    print(f"{len(checks) - failed}/{len(checks)} properties passed")
    return failed == 0
