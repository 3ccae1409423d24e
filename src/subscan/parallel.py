"""Thread-pool fan-out with results independent of the worker count.

`map_windowed` is the one thread pool: it keeps a bounded window of items in
flight and yields results in input order, so any reduction over them is
identical to a sequential run; `map_indexed` runs it over 0..count-1.  The
worker count has one source, the caller's `workers` argument (the CLI's
--threads); None means one worker.

Threads fan out whole Monte Carlo trials, never the inside of one scan: the
trials that run the exact scan (`montecarlo.scan_trials`, behind
`estimate_risk`, `sweep` and `calibrate`), and `vector_risk` and
`max_gauss_exceedance`, whose trials are each one long Gaussian draw.  A
heuristic trial is a loop of small array calls that holds the GIL most of
the time, so those trials run serially whatever worker count is asked for.
A single exact scan, whose branch and bound prunes most of its work to a few
small blocks, runs on one thread.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers: int | None) -> int:
    """The worker count asked for, at least 1; None means 1."""
    return max(1, int(workers or 1))


def map_windowed(fn: Callable[[T], R], items: Iterable[T], workers: int | None = None) -> Iterator[R]:
    """Like map(fn, items) but parallel, keeping at most ~2*workers items in flight.

    Items are pulled lazily, so a large enumeration is never materialized at
    once.  Results come back in input order.
    """
    nw = resolve_workers(workers)
    if nw <= 1:
        yield from map(fn, items)
        return
    window = 2 * nw
    with ThreadPoolExecutor(max_workers=nw) as ex:
        pending: deque = deque()
        for item in items:
            pending.append(ex.submit(fn, item))
            if len(pending) >= window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def map_indexed(fn: Callable[[int], R], count: int, workers: int | None = None) -> list[R]:
    """[fn(0), ..., fn(count-1)], computed with up to `workers` threads (none for one item)."""
    nw = resolve_workers(workers)
    return list(map_windowed(fn, range(count), nw if count > 1 else 1))
