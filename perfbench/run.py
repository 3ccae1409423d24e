"""Benchmark of subscan's sweep, calibrate/detect and exact-scan paths.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-heuristic --seed 1 --seconds 28 --trace 0

Each workload runs in this one process.  Four kinds of timed operation take
turns: Monte Carlo calls with workers=1 and with workers=2, and CLI requests
through subscan.cli.main with --threads 1 and with --threads 2.  One
closed-loop client issues each request after the previous one returned.  Set-up time is the
median of several fresh interpreter starts.  Every output is checked; the last
line of standard output is one JSON object with the end-to-end metrics
(--trace 0) or the per-layer metrics from a separate traced run (--trace 1).

    python3 perfbench/run.py --workload risk-exact --seed 1 --check-checkers

feeds each checker a deliberately corrupted result and exits 1 unless every
corruption is caught.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
FRESH_STARTS = 3
IMPORTTIME_STARTS = 3
LARGE_SCAN = (60, 60, 4, 4)  # 487,635 four-row subsets
FANOUT_ITEMS = 4000
FANOUT_REPEATS = 5

# At most two threads: numpy's own pools are pinned to one.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SUBSCAN_THREADS", None)
os.environ["PYTHONPATH"] = str(SRC)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def cli_call(argv: list[str]) -> tuple[int, str]:
    from subscan import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def strip_timing(payload):
    """The payload without wall-clock fields, which differ on every run."""
    if isinstance(payload, dict):
        return {k: strip_timing(v) for k, v in payload.items() if k != "seconds"}
    if isinstance(payload, list):
        return [strip_timing(v) for v in payload]
    return payload


class Series:
    """One kind of timed operation at one worker count: a Monte Carlo call
    (sample: trials per second) or a CLI request (sample: seconds).  Units
    run in whole rounds; a round is what a checker looks at as one."""

    def __init__(self, per_round: int, unit):
        self.per_round, self.unit = per_round, unit
        self.results: list = []
        self.samples: list[float] = []
        self.spent = 0.0

    def step(self) -> None:
        result, seconds, sample = self.unit(len(self.results))
        self.results.append(result)
        self.samples.append(sample)
        self.spent += seconds

    def run_round(self) -> None:
        for _ in range(self.per_round):
            self.step()

    def done(self, budget: float) -> bool:
        return self.spent >= budget and len(self.results) % self.per_round == 0

    def rounds(self) -> list[list]:
        k = self.per_round
        return [self.results[i:i + k] for i in range(0, len(self.results), k)]


class Run:
    """Counts of one benchmark run, and the problems its checks found."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def mc(self, workers: int) -> Series:
        def unit(u):
            t0 = time.perf_counter()
            result, trials = self.wl.mc_call(u, workers)
            dt = time.perf_counter() - t0
            self.attempted += trials
            return result, dt, trials / dt

        return Series(self.wl.calls_per_round, unit)

    def requests(self, threads: int) -> Series:
        reqs = self.wl.requests(threads)

        def unit(i):
            t0 = time.perf_counter()
            outs = [cli_call(argv) for argv in reqs[i % len(reqs)]]
            dt = time.perf_counter() - t0
            self.attempted += 1
            if any(code != 0 for code, _ in outs):
                self.failed += 1
                return None, dt, dt
            return [json.loads(text) for _, text in outs], dt, dt

        return Series(len(reqs), unit)

    def check_mc(self, rounds: list) -> None:
        for r, calls in enumerate(rounds):
            self.problems += [f"round {r}: {p}" for p in self.wl.check_mc(calls)]

    def check_passes(self, passes: list) -> None:
        """Full checks on the first pass; every later pass must repeat it."""
        first = passes[0]
        for i, p in enumerate(first):
            if p is not None:
                self.problems += self.wl.check_request(i, p)
        if None not in first:
            self.problems += self.wl.check_pass(first)
        self.check_same("request pass", [first] + passes[1:])

    def check_same(self, what: str, seq: list) -> None:
        ref = strip_timing(seq[0])
        for k, other in enumerate(seq[1:], 1):
            if strip_timing(other) != ref:
                self.problems.append(f"{what} {k} differs from {what} 0")


def digest(mc_first, pass_first) -> str:
    blob = json.dumps({"mc": mc_first, "requests": strip_timing(pass_first)}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def report_digest(name: str, seed: int, value: str) -> None:
    golden = json.loads((HERE / "digests.json").read_text()).get(f"{name}/{seed}")
    if golden is None:
        verdict = "no golden digest for this seed"
    elif golden == value:
        verdict = "matches golden"
    else:
        verdict = f"MISMATCH, golden {golden}"
    print(f"digest {name} seed={seed} sha256={value} ({verdict})", flush=True)


def fresh_start_seconds(wl) -> float:
    """Median wall time of fresh interpreters through import and one warm-up call."""
    code = "import subscan as ss\n" + wl.warmup
    times = []
    for _ in range(FRESH_STARTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(wl, seconds: float, run: Run) -> dict:
    """The four kinds of timed operation take turns, one unit each, until
    each has had its quarter of `seconds` and ended a round, so that a slow
    spell of the machine falls on all of them alike.  Each metric is the
    median of its samples."""
    setup = fresh_start_seconds(wl)
    mc1, mc2 = run.mc(1), run.mc(2)
    mc1.run_round()
    wl.prepare(mc1.results)
    req1, req2 = run.requests(1), run.requests(2)
    series = (mc1, mc2, req1, req2)
    budget = seconds / 4.0
    while not all(s.done(budget) for s in series):
        for s in series:
            if not s.done(budget):
                s.step()

    run.check_mc(mc1.rounds() + mc2.rounds())
    common = min(len(mc1.results), len(mc2.results))
    run.check_same("workers=2 call vs workers=1 call", [mc1.results[:common], mc2.results[:common]])
    run.check_passes(req1.rounds() + req2.rounds())
    report_digest(wl.name, wl.seed, digest(mc1.rounds()[0], req1.rounds()[0]))
    log(f"{wl.name}: {len(mc1.results)}+{len(mc2.results)} Monte Carlo calls, "
        f"{len(req1.results)}+{len(req2.results)} requests")
    return {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "trials_per_s.w1": (statistics.median(mc1.samples), "1/s"),
        "trials_per_s.w2": (statistics.median(mc2.samples), "1/s"),
        "request_ms": (statistics.median(req1.samples) * 1e3, "ms"),
        "request_ms.w2": (statistics.median(req2.samples) * 1e3, "ms"),
    }


def montecarlo_import_seconds() -> float:
    """Median cumulative import time of subscan.montecarlo, from -X importtime."""
    values = []
    for _ in range(IMPORTTIME_STARTS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import subscan"],
            cwd=ROOT, check=True, capture_output=True, text=True,
        )
        match = re.search(r"^import time:\s*\d+ \|\s*(\d+) \|\s*subscan\.montecarlo$",
                          proc.stderr, re.MULTILINE)
        values.append(int(match.group(1)) / 1e6)
    return statistics.median(values)


def per_item_us(fn) -> float:
    times = []
    for _ in range(FANOUT_REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / FANOUT_ITEMS * 1e6


def _noop(i):
    return i


def probes(wl) -> dict[str, tuple]:
    """Calls into the layers a workload may leave idle, keyed by the span
    name whose absence calls for them; each works on the workload's dims."""
    import subscan
    from subscan import detection, matrixio, montecarlo, selector

    d = wl.dims
    a_star = subscan.critical_value(d)
    support = subscan.canonical_support(d)
    insts = [subscan.generate(d, support, subscan.SignalSpec(a_star), 900 + k) for k in range(10)]

    def heuristic():
        for k, obs in enumerate(insts):
            selector.scan_heuristic(obs, d.n, d.m, restarts=20, seed=k)

    def exact():
        selector.scan_exact(large_null(wl.seed), LARGE_SCAN[2], LARGE_SCAN[3], workers=1)

    def risk():
        montecarlo.estimate_risk(d, 2 * a_star, 40, wl.seed, selector_method="heuristic",
                                 restarts=10, workers=1)

    def detect():
        calib = detection.calibrate(d, 0.5, 200, wl.seed, method="heuristic", restarts=10, workers=1)
        for obs in insts:
            detection.detect(obs, calib, workers=1)

    def io_():
        for k, obs in enumerate(insts):
            path = wl.workdir / f"probe-{k}.csv"
            matrixio.save_matrix(obs, path)
            matrixio.load_matrix(path)

    return {
        "selector.scan_heuristic": heuristic,
        "selector.scan_exact": exact,
        "montecarlo.estimate_risk": risk,
        "detection.calibrate": detect,
        "detection.detect": detect,
        "matrixio.save_matrix": io_,
        "matrixio.load_matrix": io_,
    }


def large_null(seed: int):
    import subscan

    return subscan.generate_null(subscan.Dims(*LARGE_SCAN), seed)


def traced(wl, run: Run) -> dict:
    """Per-layer metrics.  One Monte Carlo round and one request pass run
    untraced after a warm-up, then once more traced (the difference is the
    tracing overhead); layers the workload leaves idle are probed while
    traced; the exact-scan rate, fan-out cost and import time are measured
    apart from any span."""
    from subscan import parallel, selector
    from tracing import Tracer, layer_metrics

    mc = run.mc(1)
    mc.run_round()
    wl.prepare(mc.results)
    req = run.requests(1)
    req.run_round()
    mc.run_round()  # the rounds above warm up; these are timed untraced
    req.run_round()
    with Tracer() as tracer:
        mc.run_round()
        req.run_round()
        for name, call in probes(wl).items():
            if not tracer.named(name):
                call()
    run.check_mc(mc.rounds())
    run.check_passes(req.rounds())
    k, n = mc.per_round, req.per_round
    u_tps, t_tps = (statistics.median(mc.samples[i * k:(i + 1) * k]) for i in (1, 2))
    u_lat, t_lat = (statistics.median(req.samples[i * n:(i + 1) * n]) for i in (1, 2))
    log(f"tracing overhead on {wl.name}: trials/s {u_tps:.1f} untraced, {t_tps:.1f} traced "
        f"({u_tps / t_tps - 1:+.1%} time); request {u_lat * 1e3:.2f} ms untraced, "
        f"{t_lat * 1e3:.2f} ms traced ({t_lat / u_lat - 1:+.1%})")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{wl.name}-seed{wl.seed}.jsonl")

    metrics = layer_metrics(tracer)
    big = large_null(wl.seed)
    subsets = min(math.comb(LARGE_SCAN[0], LARGE_SCAN[2]), math.comb(LARGE_SCAN[1], LARGE_SCAN[3]))
    for w in (1, 2):
        t0 = time.perf_counter()
        selector.scan_exact(big, LARGE_SCAN[2], LARGE_SCAN[3], workers=w)
        metrics[f"selector.exact_subsets_per_s.w{w}"] = (subsets / (time.perf_counter() - t0), "1/s")
    metrics["parallel.map_indexed_us_per_item.w2"] = (
        per_item_us(lambda: parallel.map_indexed(_noop, FANOUT_ITEMS, workers=2)), "us")
    metrics["parallel.map_windowed_us_per_item.w2"] = (
        per_item_us(lambda: list(parallel.map_windowed(_noop, range(FANOUT_ITEMS), workers=2))), "us")
    metrics["montecarlo.import_s"] = (montecarlo_import_seconds(), "s")
    return metrics


def check_checkers(wl) -> int:
    """Feed every checker one corrupted result; 0 if each corruption is caught."""
    clean = Run(wl)
    mc_series = clean.mc(1)
    mc_series.run_round()
    mc = mc_series.results
    wl.prepare(mc)
    req_series = clean.requests(1)
    req_series.run_round()
    pass_ = req_series.results
    clean.check_mc([mc])
    clean.check_passes([pass_])
    if clean.problems or clean.failed:
        log(f"the uncorrupted results fail their checks: {clean.problems}")
        return 1
    cases = wl.corrupt(mc, pass_)
    missed = 0
    for label, bad_mc, bad_pass in cases:
        run = Run(wl)
        run.check_mc([bad_mc])
        run.check_passes([bad_pass])
        missed += not run.problems
        print(f"{'caught' if run.problems else 'MISSED'}: {label}: {run.problems[:1]}")
    run = Run(wl)
    second = json.loads(json.dumps(pass_))
    second[0][-1]["result"]["corrupted"] = True
    run.check_same("request pass", [pass_, second])
    missed += not run.problems
    print(f"{'caught' if run.problems else 'MISSED'}: workers=2 pass differs: {run.problems[:1]}")
    return 1 if missed else 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-checkers", action="store_true")
    args = ap.parse_args(argv)

    # a fixed relative path, since the CLI echoes file names into its payloads
    os.chdir(ROOT)
    workdir = OUT.relative_to(ROOT) / f"work-{args.workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.check_checkers:
            return check_checkers(wl)
        run = Run(wl)
        metrics = traced(wl, run) if args.trace else end_to_end(wl, args.seconds, run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in run.problems:
        log(f"check failed: {p}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "subscan" / "__init__.py").is_file():
        log(f"no subscan sources at {SRC}: run this from a subscan source checkout")
        sys.exit(2)
    sys.path.insert(1, str(SRC))
    sys.exit(main())
