"""Thread-pool fan-out with results independent of the worker count.

`map_windowed` is the one thread pool: it keeps a bounded window of items in
flight and yields results in input order, so any reduction over them is
identical to a sequential run; `map_indexed` runs it over 0..count-1.  The
worker count has one source, the caller's `workers` argument (the CLI's
--threads); None means one worker.

Threads fan out whole Monte Carlo trials, never the inside of one scan.  A
`vector_risk` or `max_gauss_exceedance` trial is one long Gaussian draw,
filled with the GIL released, so those loops always fan out.  Scan trials
(`montecarlo.scan_trials`) hold the GIL most of the time, and light ones lose
more to GIL hand-offs than a second thread gains, so `map_indexed` times item
0 alone, warm-up included, and fans out the rest only if it took at least
FAN_OUT_SECONDS.  A single exact scan runs on one thread.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")

FAN_OUT_SECONDS = 0.005  # an item 0 this slow marks a loop heavy enough to gain from threads


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
    """[fn(0), ..., fn(count-1)], each computed once; the items after fn(0), if more
    than one, fan out to `workers` threads only if fn(0), timed alone, took FAN_OUT_SECONDS."""
    start = perf_counter()
    head = [fn(0)] if count > 0 else []
    heavy = count > 2 and perf_counter() - start >= FAN_OUT_SECONDS
    return head + list(map_windowed(fn, range(1, count), workers if heavy else 1))
