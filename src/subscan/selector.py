"""Scan selectors: find the n x m submatrix with maximal entry sum.

The exact scan never enumerates both axes.  For a fixed row set A the best
column set is the m largest column sums restricted to A, so it suffices to
enumerate subsets of whichever axis has the smaller binomial coefficient and
read the other axis off a partial sort.  Subsets are processed in
lexicographic order in vectorized chunks; chunks can be fanned out to worker
threads because the reduction keeps the maximum of (objective, tie key),
which makes the result identical to a sequential run.

Tie-breaking is total and deterministic everywhere: higher objective first,
then the lexicographically smallest row set, then the lexicographically
smallest column set.  Inside a top-k selection, equal values lose to the
smaller index.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BudgetExceededError, DimensionMismatchError, ValidationError
from .model import Observation, Support
from .parallel import map_windowed, resolve_workers
from .streams import gaussian_stream

EXACT_ENUMERATION_BUDGET = 10_000_000
BRUTE_FORCE_BUDGET = 1_000_000
MAX_ALTERNATIONS = 1000
METHODS = ("exact", "heuristic")


@dataclass(frozen=True)
class SelectorResult:
    support: Support
    objective: float
    method: str
    iterations: int = 0
    restarts_used: int = 0

    to_dict = asdict


def _top_rows(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries of each row; ties go to the smaller
    index; sorted ascending."""
    return np.sort(np.argsort(-values, axis=1, kind="stable")[:, :k], axis=1)


def top_indices(values: np.ndarray, k: int) -> np.ndarray:
    """_top_rows of a single vector."""
    return _top_rows(np.asarray(values)[None, :], k)[0]


# (objective, rows, cols) candidates; None is worse than everything.
def _improves(cand, best) -> bool:
    if best is None:
        return True
    if cand[0] != best[0]:
        return cand[0] > best[0]
    return (cand[1], cand[2]) < (best[1], best[2])


def _check_shape(obs: Observation, n: int, m: int) -> np.ndarray:
    N, M = obs.dims.shape
    if not 1 <= n <= N or not 1 <= m <= M:
        raise DimensionMismatchError(
            f"scan shape ({n}, {m}) does not fit a {N}x{M} matrix"
        )
    return obs.data


def _objective(Y: np.ndarray, rows, cols) -> float:
    return float(Y[np.ix_(list(rows), list(cols))].sum())


def _chunks(indices: int, size: int, chunk: int):
    it = itertools.combinations(range(indices), size)
    while True:
        block = list(itertools.islice(it, chunk))
        if not block:
            return
        yield block


def _scan_enumerate(Y: np.ndarray, n: int, m: int, budget: int, workers: int | None):
    """Exact maximizer via single-axis enumeration plus top-k on the other axis."""
    N, M = Y.shape
    count_rows = math.comb(N, n)
    count_cols = math.comb(M, m)
    count = min(count_rows, count_cols)
    if count > budget:
        raise BudgetExceededError(
            f"exact scan needs {count:,} subsets, over the budget of {budget:,}; "
            "raise the budget or use the heuristic selector"
        )
    transposed = count_cols < count_rows
    W = Y.T if transposed else Y
    k_enum, k_top = (m, n) if transposed else (n, m)
    K, L = W.shape
    chunk = max(256, int(4_000_000 / max(1, k_enum * L)))

    def process(block):
        flat = itertools.chain.from_iterable(block)
        arr = np.fromiter(flat, dtype=np.intp, count=len(block) * k_enum).reshape(-1, k_enum)
        sums = W[arr].sum(axis=1) if k_enum > 1 else W[arr[:, 0]]
        if k_top == L:
            objs = sums.sum(axis=1)
        else:
            objs = np.partition(sums, L - k_top, axis=1)[:, L - k_top:].sum(axis=1)
        peak = objs.max()
        ties = np.flatnonzero(objs == peak)
        if not transposed:
            # distinct row subsets in lex order: the first tie already has the
            # lexicographically smallest rows, and cols only matter per-rows
            ties = ties[:1]
        best = None
        for i in ties:
            other = tuple(int(j) for j in top_indices(sums[i], k_top))
            subset = block[i]
            cand = (float(peak), other, subset) if transposed else (float(peak), subset, other)
            if _improves(cand, best):
                best = cand
        return best

    nw = resolve_workers(workers)
    best = None
    # a single chunk cannot pay for starting a thread pool
    for cand in map_windowed(process, _chunks(K, k_enum, chunk), nw if count > chunk else 1):
        if _improves(cand, best):
            best = cand
    return best


def scan_exact(
    obs: Observation,
    n: int,
    m: int,
    budget: int = EXACT_ENUMERATION_BUDGET,
    workers: int | None = None,
) -> SelectorResult:
    """Global maximizer of the submatrix sum over all n x m supports.

    Enumerates only the cheaper axis (see module docstring); raises
    BudgetExceededError when even that side exceeds `budget` subsets.
    """
    Y = _check_shape(obs, n, m)
    obj, rows, cols = _scan_enumerate(Y, n, m, budget, workers)
    support = Support(rows, cols)
    return SelectorResult(support, _objective(Y, rows, cols), "exact")


def scan_brute_force(
    obs: Observation, n: int, m: int, budget: int = BRUTE_FORCE_BUDGET
) -> SelectorResult:
    """Reference oracle: exhaustive maximization over every row-set x column-set
    pair, with the same tie-breaking as scan_exact.  Intentionally does not use
    the top-k column reduction."""
    Y = _check_shape(obs, n, m)
    N, M = Y.shape
    total = math.comb(N, n) * math.comb(M, m)
    if total > budget:
        raise BudgetExceededError(
            f"brute force needs {total:,} support pairs, over the budget of {budget:,}"
        )
    col_sets = np.asarray(list(itertools.combinations(range(M), m)), dtype=np.intp)
    best = None
    for row_set in itertools.combinations(range(N), n):
        colsum = Y[list(row_set)].sum(axis=0)
        objs = colsum[col_sets].sum(axis=1) if m > 1 else colsum[col_sets[:, 0]]
        i = int(np.argmax(objs))  # first max = lex smallest col set
        cand = (float(objs[i]), row_set, tuple(int(c) for c in col_sets[i]))
        if _improves(cand, best):
            best = cand
    _, rows, cols = best
    support = Support(rows, cols)
    return SelectorResult(support, _objective(Y, rows, cols), "brute_force")


def _climb(Y: np.ndarray, rows: np.ndarray, n: int, m: int, max_cycles: int):
    """Alternating row/column top-k updates for all restarts at once.

    `rows` holds one initial row set per line.  A restart leaves the active
    set at its first cycle whose objective does not strictly rise.  Returns
    (rows, cols, objective, cycles), one line or entry per restart.  The sums
    reduce the same axes as the one-restart expressions Y[:, cols].sum(axis=1),
    Y[rows].sum(axis=0) and Y[np.ix_(rows, cols)].sum(), so every float is
    bit-identical to them.
    """
    rows = rows.copy()

    def col_sums(r):
        return Y[r].sum(axis=1)

    def objectives(r, c):
        return Y[r[:, :, None], c[:, None, :]].reshape(len(r), n * m).sum(axis=1)

    cols = _top_rows(col_sums(rows), m)
    obj = objectives(rows, cols)
    cycles = np.zeros(len(rows), dtype=np.intp)
    active = np.arange(len(rows))
    for _ in range(max_cycles):
        rows_next = _top_rows(Y[:, cols[active]].sum(axis=2).T, n)
        cols_next = _top_rows(col_sums(rows_next), m)
        obj_next = objectives(rows_next, cols_next)
        rise = ~(obj_next <= obj[active])
        active = active[rise]
        if active.size == 0:
            break
        rows[active] = rows_next[rise]
        cols[active] = cols_next[rise]
        obj[active] = obj_next[rise]
        cycles[active] += 1
    return rows, cols, obj, cycles


def scan_heuristic(
    obs: Observation,
    n: int,
    m: int,
    restarts: int = 20,
    seed: int = 0,
    max_cycles: int = MAX_ALTERNATIONS,
) -> SelectorResult:
    """Best fixed point of alternating maximization over `restarts` random
    initial row sets (streams keyed by (seed, restart)).  `iterations` is the
    winning restart's number of improving cycles."""
    Y = _check_shape(obs, n, m)
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1, got {restarts}")
    N = Y.shape[0]
    init = np.array([
        np.sort(gaussian_stream(seed, (r,)).choice(N, size=n, replace=False))
        for r in range(restarts)
    ])
    rows, cols, obj, cycles = _climb(Y, init, n, m, max_cycles)
    best, best_r = None, 0
    for r in range(restarts):
        cand = (float(obj[r]), tuple(rows[r].tolist()), tuple(cols[r].tolist()))
        if _improves(cand, best):
            best, best_r = cand, r
    objective, best_rows, best_cols = best
    return SelectorResult(
        Support(best_rows, best_cols), objective, "heuristic",
        iterations=int(cycles[best_r]), restarts_used=restarts,
    )


def scan(
    obs: Observation,
    n: int,
    m: int,
    method: str = "exact",
    *,
    restarts: int = 20,
    seed: int = 0,
    budget: int = EXACT_ENUMERATION_BUDGET,
    workers: int | None = None,
) -> SelectorResult:
    """Run the scan named by `method` (one of METHODS); each scan ignores the
    options that do not apply to it."""
    # the scans are looked up when called, so a rebound module attribute is used
    if method == "exact":
        return scan_exact(obs, n, m, budget=budget, workers=workers)
    if method == "heuristic":
        return scan_heuristic(obs, n, m, restarts=restarts, seed=seed)
    raise ValidationError(f"method must be one of {METHODS}, got {method!r}")


def vector_select(x, n: int) -> list[int]:
    """Indices of the n largest coordinates (ties to the smaller index), sorted."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError(f"expected a 1-D vector, got shape {x.shape}")
    if not 1 <= n <= x.size:
        raise ValidationError(f"need 1 <= n <= {x.size}, got n={n}")
    return [int(i) for i in top_indices(x, n)]


def log_lr(obs: Observation, support: Support, a: float) -> float:
    """Log likelihood ratio of pure noise against the planted-at-`support`
    alternative: -a * sum_{support} Y + a^2 * n * m / 2.

    Minimizing this over supports is the same as maximizing the scan
    objective, which is what makes the scan the likelihood maximizer.
    """
    if a < 0:
        raise ValidationError(f"a must be >= 0, got {a}")
    N, M = obs.dims.shape
    if (
        not support.rows
        or not support.cols
        or support.rows[0] < 0
        or support.rows[-1] >= N
        or support.cols[0] < 0
        or support.cols[-1] >= M
    ):
        raise DimensionMismatchError("support indices out of range for the observation")
    nm = len(support.rows) * len(support.cols)
    return float(-a * _objective(obs.data, support.rows, support.cols) + a * a * nm / 2.0)
