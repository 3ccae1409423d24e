"""The benchmark's three workloads: inputs, timed operations and output checks.

Every workload has two kinds of operation:

* a Monte Carlo round, one library call over many seeded trials, timed for
  ``trials_per_s``;
* a pass of CLI requests over a fixed pool of input files, each request timed
  for ``request_ms``.

All inputs are functions of the workload seed.  Checkers return a list of
problems; an empty list means the output is correct.  Each workload also
knows how to corrupt one of its own results, so that the check mode can prove
that no checker is vacuous.
"""

from __future__ import annotations

import copy
import json
import math
from itertools import combinations
from pathlib import Path
from statistics import NormalDist

import numpy as np

import subscan
from subscan import detection, matrixio, montecarlo, thresholds

MULTS = (0.5, 1.0, 2.0)


def round_seed(seed: int, r: int) -> int:
    return seed * 1000 + r


def pool_seed(seed: int, i: int) -> int:
    return seed * 1000 + 500 + i


def top_k(values: np.ndarray, k: int) -> list[int]:
    """Indices of the k largest values, ties to the smaller index, ascending."""
    return sorted(int(i) for i in np.argsort(-values, kind="stable")[:k])


def read_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def close(x: float, y: float) -> bool:
    return math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-9)


def exact_max_four_rows(Y: np.ndarray, m: int) -> float:
    """Largest 4 x m block sum of Y, by enumerating every set of four rows.

    A four-row set is a pair (a, b) followed by a pair (c, d) with b < c, so
    each first pair is combined with all later pairs in one array operation.
    For a fixed row set the best m columns are the m largest column sums.
    """
    N, M = Y.shape
    pairs = list(combinations(range(N), 2))
    first = np.array([a for a, _ in pairs])
    S2 = Y[first] + Y[[b for _, b in pairs]]
    best = -math.inf
    for i, (_, b) in enumerate(pairs):
        start = int(np.searchsorted(first, b, side="right"))
        if start == len(pairs):
            continue
        colsums = S2[i] + S2[start:]
        tops = np.partition(colsums, M - m, axis=1)[:, M - m:].sum(axis=1)
        best = max(best, float(tops.max()))
    return best


def swap_row(payloads: list, k: int, N: int) -> list:
    """A copy of a pass whose first request's k-th payload selected one other row."""
    bad = copy.deepcopy(payloads)
    support = bad[0][k]["result"]["support"]
    spare = min(set(range(N)) - set(support["rows"]))
    support["rows"] = sorted(support["rows"][1:] + [spare])
    return bad


def rate_slack(p: float, count: int) -> float:
    """Four binomial standard errors of a proportion p estimated from count draws."""
    return 4.0 * math.sqrt(p * (1.0 - p) / count)


class Workload:
    """One benchmark workload.  Subclasses fill in the hooks below."""

    name = ""
    warmup = ""  # code run after `import subscan as ss` in each fresh start
    calls_per_round = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def mc_call(self, u: int, workers: int) -> tuple[object, int]:
        """Run Monte Carlo call u; returns (JSON-able result, trials completed).
        Calls u = k * calls_per_round, ... form round k, which is checked whole."""
        raise NotImplementedError

    def check_mc(self, calls: list) -> list[str]:
        raise NotImplementedError

    def prepare(self, first_round: list) -> None:
        """Write the request pool's input files (outside every timed phase)."""

    def requests(self, threads: int) -> list[list[list[str]]]:
        """One pass: each request is a list of CLI argument vectors run in order."""
        raise NotImplementedError

    def check_request(self, i: int, payloads: list[dict]) -> list[str]:
        raise NotImplementedError

    def check_pass(self, payloads: list[list[dict]]) -> list[str]:
        return []

    def corrupt(self, mc: list, payloads: list) -> list[tuple[str, list, list]]:
        """(label, corrupted MC round, corrupted pass): one corruption each."""
        raise NotImplementedError


class SweepHeuristic(Workload):
    """sweep on 60x60, n = m = 6, at 0.5, 1 and 2 a*, heuristic with 20 restarts."""

    name = "sweep-heuristic"
    dims = subscan.Dims(60, 60, 6, 6)
    trials = 10  # per grid point and call; a round pools five calls
    calls_per_round = 5
    restarts = 20
    pool = 12
    warmup = (
        "d = ss.Dims(60, 60, 6, 6)\n"
        "ss.estimate_risk(d, ss.critical_value(d), 1, 1, selector_method='heuristic', restarts=20)\n"
    )

    def mc_call(self, u, workers):
        res = montecarlo.sweep(
            self.dims, MULTS, self.trials, round_seed(self.seed, u),
            selector_method="heuristic", restarts=self.restarts, workers=workers,
        )
        return res.to_dict(), self.trials * len(MULTS)

    def check_mc(self, calls):
        trials = [sum(c["grid"][j]["trials"] for c in calls) for j in range(len(MULTS))]
        failures = [sum(c["grid"][j]["failures"] for c in calls) for j in range(len(MULTS))]
        risks = [f / t for f, t in zip(failures, trials)]
        problems = []
        if trials != [self.trials * self.calls_per_round] * len(MULTS):
            problems.append(f"sweep trial counts {trials}")
        if risks[0] < 0.8:
            problems.append(f"risk {risks[0]} at 0.5 a* is below 0.8")
        if risks[-1] > 0.1:
            problems.append(f"risk {risks[-1]} at 2 a* is above 0.1")
        if not all(x > y for x, y in zip(risks, risks[1:])):
            problems.append(f"risk {risks} does not strictly decrease")
        return problems

    def _path(self, i):
        return str(self.workdir / f"sweep-{i}.csv")

    def requests(self, threads):
        d = self.dims
        a_star = thresholds.critical_value(d)
        t = str(threads)
        reqs = []
        for i in range(self.pool):
            s = str(pool_seed(self.seed, i))
            a = MULTS[i % len(MULTS)] * a_star
            reqs.append([
                ["generate", "--N", str(d.N), "--M", str(d.M), "--n", str(d.n), "--m", str(d.m),
                 "--a", repr(a), "--seed", s, "--out", self._path(i), "--threads", t],
                ["select", "--matrix", self._path(i), "--method", "heuristic",
                 "--restarts", str(self.restarts), "--seed", s, "--threads", t],
            ])
        return reqs

    def check_request(self, i, payloads):
        gen, sel = (p["result"] for p in payloads)
        Y = read_csv(gen["matrix"])
        rows, cols = sel["support"]["rows"], sel["support"]["cols"]
        problems = []
        if (len(rows), len(cols)) != (self.dims.n, self.dims.m):
            return [f"request {i}: support is {len(rows)}x{len(cols)}"]
        block = float(Y[np.ix_(rows, cols)].sum())
        if not close(sel["objective"], block):
            problems.append(f"request {i}: objective {sel['objective']} != block sum {block}")
        if rows != top_k(Y[:, cols].sum(axis=1), self.dims.n):
            problems.append(f"request {i}: rows {rows} are not the top rows of their columns")
        if cols != top_k(Y[rows].sum(axis=0), self.dims.m):
            problems.append(f"request {i}: cols {cols} are not the top columns of their rows")
        return problems

    def corrupt(self, mc, payloads):
        bad_mc = copy.deepcopy(mc)
        for call in bad_mc:
            call["grid"][1]["failures"] = call["grid"][0]["failures"]
        swapped, consistent = swap_row(payloads, 1, self.dims.N), swap_row(payloads, 1, self.dims.N)
        sel = consistent[0][1]["result"]
        Y = read_csv(consistent[0][0]["result"]["matrix"])
        sel["objective"] = float(Y[np.ix_(sel["support"]["rows"], sel["support"]["cols"])].sum())
        return [("sweep risk not decreasing", bad_mc, payloads),
                ("selected row swapped", mc, swapped),
                ("selected row swapped, objective recomputed", mc, consistent)]


class CalibrateDetect(Workload):
    """calibrate on 50x50, n = m = 5, heuristic with 10 restarts; CLI detect
    on null matrices and on matrices planted at 2 a*."""

    name = "calibrate-detect"
    dims = subscan.Dims(50, 50, 5, 5)
    alpha = 0.2
    trials = 500  # the least calibrate accepts at this alpha is 100 / alpha
    restarts = 10
    nulls = 100
    planted = 40
    warmup = (
        "d = ss.Dims(50, 50, 5, 5)\n"
        "ss.scan_statistic(ss.generate_null(d, 1), 5, 5, method='heuristic', restarts=10, seed=1)\n"
    )

    def mc_call(self, u, workers):
        calib = detection.calibrate(
            self.dims, self.alpha, self.trials, round_seed(self.seed, u),
            method="heuristic", restarts=self.restarts, workers=workers,
        )
        return calib.to_dict(), self.trials

    def check_mc(self, calls):
        (result,) = calls
        level = 1.0 - self.alpha / 2.0
        z = NormalDist().inv_cdf(level)
        se = math.sqrt(level * (1.0 - level) / self.trials) / NormalDist().pdf(z)
        if abs(result["linear_crit"] - z) > 4.0 * se:
            return [f"linear_crit {result['linear_crit']} is not within 4 se ({se:.4f}) of {z}"]
        return []

    def _path(self, i):
        return self.workdir / f"detect-{i}.csv"

    def prepare(self, first_round):
        (self.crit,) = first_round
        self.calib_path = self.workdir / "calibration.json"
        self.calib_path.write_text(json.dumps(self.crit))
        support = subscan.canonical_support(self.dims)
        a = 2.0 * thresholds.critical_value(self.dims)
        for i in range(self.nulls + self.planted):
            s = pool_seed(self.seed, i)
            if i < self.nulls:
                obs, sup, level = subscan.generate_null(self.dims, s), None, 0.0
            else:
                obs, sup, level = subscan.generate(self.dims, support, subscan.SignalSpec(a), s), support, a
            matrixio.save_matrix(obs, self._path(i), sup, level, s)

    def requests(self, threads):
        return [
            [["detect", "--matrix", str(self._path(i)), "--calibration", str(self.calib_path),
              "--threads", str(threads)]]
            for i in range(self.nulls + self.planted)
        ]

    def check_request(self, i, payloads):
        res = payloads[0]["result"]
        Y = read_csv(self._path(i))
        linear = float(Y.sum()) / math.sqrt(Y.size)
        problems = []
        if not close(res["linear_value"], linear):
            problems.append(f"request {i}: linear_value {res['linear_value']} != {linear}")
        if res["linear_reject"] != (res["linear_value"] > self.crit["linear_crit"]):
            problems.append(f"request {i}: linear_reject disagrees with linear_crit")
        if res["scan_reject"] != (res["scan_value"] > self.crit["scan_crit"]):
            problems.append(f"request {i}: scan_reject disagrees with scan_crit")
        if res["reject"] != (res["linear_reject"] or res["scan_reject"]):
            problems.append(f"request {i}: reject is not the OR of the two arms")
        return problems

    def check_pass(self, payloads):
        rejects = [p[0]["result"]["reject"] for p in payloads]
        null_rate = sum(rejects[: self.nulls]) / self.nulls
        power = sum(rejects[self.nulls:]) / self.planted
        # the calibrated level itself carries error from the two tail quantiles
        calib_slack = 2 * rate_slack(self.alpha / 2.0, self.trials)
        limit = self.alpha + rate_slack(self.alpha, self.nulls) + calib_slack
        problems = []
        if null_rate > limit:
            problems.append(f"null rejection rate {null_rate} is above {limit:.4f}")
        if power < 0.9:
            problems.append(f"rejection rate {power} at 2 a* is below 0.9")
        return problems

    def corrupt(self, mc, payloads):
        bad_mc = [dict(mc[0], linear_crit=mc[0]["linear_crit"] + 1.0)]
        flipped, shifted = copy.deepcopy(payloads), copy.deepcopy(payloads)
        flipped[0][0]["result"]["reject"] = not flipped[0][0]["result"]["reject"]
        shifted[0][0]["result"]["linear_value"] += 1e-6
        every_null_rejected = copy.deepcopy(payloads)
        for p in every_null_rejected[: self.nulls]:
            p[0]["result"].update(reject=True, scan_reject=True, scan_value=math.inf)
        return [("linear_crit shifted", bad_mc, payloads), ("reject flipped", mc, flipped),
                ("linear_value shifted", mc, shifted),
                ("every null rejected", mc, every_null_rejected)]


class RiskExact(Workload):
    """estimate_risk with the exact selector on 40x40, n = m = 4, at 0.5, 1 and
    2 a*; CLI exact select on 60x60 null matrices with n = m = 4."""

    name = "risk-exact"
    dims = subscan.Dims(40, 40, 4, 4)
    request_dims = subscan.Dims(60, 60, 4, 4)
    trials = 4  # per call; a round is one call at each grid point
    calls_per_round = len(MULTS)
    pool = 2
    warmup = (
        "d = ss.Dims(40, 40, 4, 4)\n"
        "ss.estimate_risk(d, ss.critical_value(d), 1, 1, selector_method='exact')\n"
    )

    def mc_call(self, u, workers):
        # the grid points of one round share their seed, hence their noise
        r, j = divmod(u, len(MULTS))
        a = MULTS[j] * thresholds.critical_value(self.dims)
        est = montecarlo.estimate_risk(
            self.dims, a, self.trials, round_seed(self.seed, r), selector_method="exact", workers=workers,
        )
        return est.to_dict(), self.trials

    def check_mc(self, calls):
        risks = [c["risk"] for c in calls]
        if all(x >= y for x, y in zip(risks, risks[1:])) and risks[0] > risks[-1]:
            return []
        return [f"risk {risks} does not decrease across the grid"]

    def _path(self, i):
        return self.workdir / f"exact-{i}.csv"

    def prepare(self, first_round):
        self.maxima = []
        for i in range(self.pool):
            obs = subscan.generate_null(self.request_dims, pool_seed(self.seed, i))
            matrixio.save_matrix(obs, self._path(i), None, 0.0, pool_seed(self.seed, i))
            self.maxima.append(exact_max_four_rows(read_csv(self._path(i)), self.request_dims.m))

    def requests(self, threads):
        return [
            [["select", "--matrix", str(self._path(i)), "--method", "exact", "--threads", str(threads)]]
            for i in range(self.pool)
        ]

    def check_request(self, i, payloads):
        res = payloads[0]["result"]
        rows, cols = res["support"]["rows"], res["support"]["cols"]
        if (len(rows), len(cols)) != (self.request_dims.n, self.request_dims.m):
            return [f"request {i}: support is {len(rows)}x{len(cols)}"]
        Y = read_csv(self._path(i))
        block = float(Y[np.ix_(rows, cols)].sum())
        problems = []
        if not close(res["objective"], block):
            problems.append(f"request {i}: objective {res['objective']} != block sum {block}")
        if not close(res["objective"], self.maxima[i]):
            problems.append(f"request {i}: objective {res['objective']} != enumerated max {self.maxima[i]}")
        return problems

    def corrupt(self, mc, payloads):
        bad_mc = copy.deepcopy(mc)
        bad_mc[0]["risk"], bad_mc[-1]["risk"] = bad_mc[-1]["risk"], bad_mc[0]["risk"]
        swapped, consistent = swap_row(payloads, 0, self.request_dims.N), swap_row(payloads, 0, self.request_dims.N)
        res = consistent[0][0]["result"]
        Y = read_csv(self._path(0))
        res["objective"] = float(Y[np.ix_(res["support"]["rows"], res["support"]["cols"])].sum())
        return [("risk order reversed", bad_mc, payloads),
                ("selected row swapped", mc, swapped),
                ("selected row swapped, objective recomputed", mc, consistent)]


WORKLOADS = {w.name: w for w in (SweepHeuristic, CalibrateDetect, RiskExact)}
