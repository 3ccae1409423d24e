"""Spans around the calls into each subscan layer, for the traced run only.

A span is recorded by swapping a module attribute for a wrapper: the caller
looks the name up at call time, so the wrapper sees every call made through
that binding.  Each callee is wrapped in the module that defines it and in
every module that imported it by name, so that every call gets exactly one
span.  Spans are kept in memory (name, start, end, parent) and written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path

from subscan import cli, detection, matrixio, model, montecarlo, selector

# (span name, modules whose binding of the attribute is wrapped, attribute)
WRAPPED = [
    ("streams.gaussian_stream", (model, selector), "gaussian_stream"),
    ("streams.derive_seed", (montecarlo, detection), "derive_seed"),
    ("model.generate", (model, montecarlo, cli), "generate"),
    ("model.generate", (model, detection), "generate_null"),
    ("selector.top_indices", (selector,), "top_indices"),
    ("selector.scan_heuristic", (selector, montecarlo, detection, cli), "scan_heuristic"),
    ("selector.scan_exact", (selector, montecarlo, detection, cli), "scan_exact"),
    ("montecarlo.estimate_risk", (montecarlo,), "estimate_risk"),
    ("detection.linear_statistic", (detection,), "linear_statistic"),
    ("detection.scan_statistic", (detection,), "scan_statistic"),
    ("detection.calibrate", (detection,), "calibrate"),
    ("detection.detect", (detection,), "detect"),
    ("matrixio.load_matrix", (matrixio, cli), "load_matrix"),
    ("matrixio.save_matrix", (matrixio, cli), "save_matrix"),
    ("cli.parse_args", (cli,), "parse_args"),
    ("cli.main", (cli,), "main"),
]

# work counts read off a span's return value
COUNTS = {
    "selector.scan_heuristic": lambda res: res.iterations,
    "montecarlo.estimate_risk": lambda res: res.trials,
    "detection.calibrate": lambda res: res.trials,
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "count")

    def to_dict(self, t0: float) -> dict:
        return {
            "id": self.id, "parent": self.parent, "name": self.name,
            "start_s": self.start - t0, "end_s": self.end - t0, "count": self.count,
        }


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []
        self.t0 = time.perf_counter()

    def _wrap(self, name, fn):
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span()
            span.id, span.name, span.count = next(self._ids), name, None
            span.parent = stack[-1] if stack else None
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if count is not None:
                span.count = count(result)
            return result

        return traced

    def __enter__(self):
        for name, modules, attr in WRAPPED:
            fn = getattr(modules[0], attr)
            traced = self._wrap(name, fn)
            for mod in modules:
                self._saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, traced)
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self, name: str) -> list[float]:
        """Duration minus the union of child-span intervals, per span."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = []
        for s in self.named(name):
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.id, []), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.end - s.start - covered)
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(s.to_dict(self.t0)) + "\n")


def mean_duration(tracer: Tracer, name: str) -> float:
    spans = tracer.named(name)
    return sum(s.end - s.start for s in spans) / len(spans)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics that the spans give, as name -> (value, unit)."""
    heur = tracer.named("selector.scan_heuristic")
    risk = tracer.named("montecarlo.estimate_risk")
    calib = tracer.named("detection.calibrate")
    main_self = tracer.self_times("cli.main")
    return {
        "streams.gaussian_stream_us": (mean_duration(tracer, "streams.gaussian_stream") * 1e6, "us"),
        "streams.derive_seed_us": (mean_duration(tracer, "streams.derive_seed") * 1e6, "us"),
        "model.generate_ms": (mean_duration(tracer, "model.generate") * 1e3, "ms"),
        "selector.top_indices_us": (mean_duration(tracer, "selector.top_indices") * 1e6, "us"),
        "selector.scan_heuristic_ms": (mean_duration(tracer, "selector.scan_heuristic") * 1e3, "ms"),
        "selector.ascent_cycles": (sum(s.count for s in heur) / len(heur), "count"),
        "selector.scan_exact_ms": (mean_duration(tracer, "selector.scan_exact") * 1e3, "ms"),
        "montecarlo.self_us_per_trial": (
            sum(tracer.self_times("montecarlo.estimate_risk")) / sum(s.count for s in risk) * 1e6, "us"),
        "detection.linear_statistic_us": (mean_duration(tracer, "detection.linear_statistic") * 1e6, "us"),
        "detection.scan_statistic_ms": (mean_duration(tracer, "detection.scan_statistic") * 1e3, "ms"),
        "detection.calibrate_self_us_per_trial": (
            sum(tracer.self_times("detection.calibrate")) / sum(s.count for s in calib) * 1e6, "us"),
        "detection.detect_ms": (mean_duration(tracer, "detection.detect") * 1e3, "ms"),
        "matrixio.load_matrix_ms": (mean_duration(tracer, "matrixio.load_matrix") * 1e3, "ms"),
        "matrixio.save_matrix_ms": (mean_duration(tracer, "matrixio.save_matrix") * 1e3, "ms"),
        "cli.parse_args_ms": (mean_duration(tracer, "cli.parse_args") * 1e3, "ms"),
        "cli.request_self_ms": (sum(main_self) / len(main_self) * 1e3, "ms"),
    }
