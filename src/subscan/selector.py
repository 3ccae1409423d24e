"""Scan selectors: find the n x m submatrix with maximal entry sum.

The exact scan never enumerates both axes.  For a fixed row set A the best
column set is the m largest column sums restricted to A, so it suffices to
enumerate subsets of whichever axis has the smaller binomial coefficient and
read the other axis off a partial sort.  The subsets are searched strongest
rows first, depth first and in vectorized blocks of bounded size, by branch
and bound: a prefix is dropped once no completion can reach the best
objective known, with a slack for rounding.  Every leaf that may be a
maximizer is summed again with its rows in index order, so every maximizer is
scored with the same arithmetic and the tie-break below is settled among all
of them.  One scan runs on one thread; its `workers` argument changes nothing.

Tie-breaking is total and deterministic everywhere: higher objective first,
then the lexicographically smallest row set, then the lexicographically
smallest column set.  The rule is written once, as `_rank`, the sort key of
one candidate, and `_best_line`, its batch form over arrays of candidates;
every scan settles its ties through them.  Every top-k selection is
`top_indices`, where a tie goes to the smaller index.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BudgetExceededError, DimensionMismatchError, ValidationError
from .model import Observation, Support, check_signal_level, check_support
from .streams import gaussian_stream

EXACT_ENUMERATION_BUDGET = 10_000_000
BRUTE_FORCE_BUDGET = 1_000_000
MAX_ALTERNATIONS = 1000
METHODS = ("exact", "heuristic")
_last_restart_rows = threading.local()  # per thread: the key and rows of its last call


@dataclass(frozen=True)
class SelectorResult:
    support: Support
    objective: float
    method: str
    iterations: int = 0
    restarts_used: int = 0

    to_dict = asdict


def top_indices(values, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis; ties go to the
    smaller index; sorted ascending."""
    return np.sort(np.argsort(-np.asarray(values), axis=-1, kind="stable")[..., :k], axis=-1)


def _rank(objective: float, rows, cols) -> tuple:
    """Sort key of one candidate under the tie-break: the best sorts first."""
    return (-objective, tuple(rows), tuple(cols))


def _best_line(objs: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> int:
    """Index of the best line of candidate arrays under the tie-break, the
    batch form of _rank; of identical lines the first wins."""
    return int(np.lexsort([*cols.T[::-1], *rows.T[::-1], -objs])[0])


def _check_shape(obs: Observation, n: int, m: int) -> np.ndarray:
    N, M = obs.dims.shape
    if not 1 <= n <= N or not 1 <= m <= M:
        raise DimensionMismatchError(
            f"scan shape ({n}, {m}) does not fit a {N}x{M} matrix"
        )
    return obs.data


def _objective(Y: np.ndarray, rows, cols) -> float:
    return float(Y[np.ix_(list(rows), list(cols))].sum())


def _top_sums(sums: np.ndarray, t: int) -> np.ndarray:
    """Sum of the t largest entries of each row: the scan objective of each
    row of column sums, always computed by this one expression.  May reorder
    each row of `sums` in place."""
    L = sums.shape[1]
    if t == L:
        return sums.sum(axis=1)
    sums.partition(L - t, axis=1)
    return sums[:, L - t:].sum(axis=1)


def _suffix_tops(W: np.ndarray, r_max: int) -> np.ndarray:
    """tops[r, i]: per column, the sum of the r largest entries of W[i:], for
    r = 0..r_max and i = 0..K (-inf where fewer than r rows remain).

    The r-th largest entry of W[i:] is the largest over j >= i of
    min(W[j], the (r-1)-th largest of W[j+1:]), one running max per r.
    """
    K, L = W.shape
    tops = np.zeros((r_max + 1, K + 1, L))
    prev = np.full((K + 1, L), np.inf)
    for r in range(1, r_max + 1):
        largest = np.full((K + 1, L), -np.inf)
        largest[:K] = np.maximum.accumulate(np.minimum(W, prev[1:])[::-1], axis=0)[::-1]
        tops[r] = tops[r - 1] + largest
        prev = largest
    return tops


def _incumbent(W: np.ndarray, k: int, t: int) -> float:
    """Objective of a good k-row set, in the scan's own arithmetic: the best
    alternating-maximization fixed point from the first 2k rows of W as
    starts, each start's top-t columns and then the top-k rows for those
    columns.  scan_exact passes W with its strongest rows first."""
    cols = top_indices(W[:2 * k], t)
    init = top_indices(W[:, cols].sum(axis=2).T, k)
    rows = _climb(W, init, k, t, MAX_ALTERNATIONS)[0]
    return float(_top_sums(W[rows].sum(axis=1), t).max())


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
    `workers` is ignored (one scan, one thread); perfbench/run.py passes it.

    The search is a lexicographic depth-first branch-and-bound over the
    k-subsets of the enumerated axis, its rows relabelled strongest first (by
    their own top-t sums) so that the suffix bounds tighten early.  A prefix
    carries its first admissible next row and its running sum from -0.0; each
    child adds one row.  A prefix is pruned when even the best r rows left per
    column cannot lift it to the incumbent.  A leaf near its block's peak is
    summed again in index order, the arithmetic of the result; the slack
    covers the rounding of both orders, so every maximizer survives and the
    tie-break is settled among them.  Children are made at most `block` at a
    time (about 2**18 floats of sums), so memory stays bounded where nothing
    prunes.
    """
    Y = _check_shape(obs, n, m)
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
    W0 = Y.T if transposed else Y
    k, t = (m, n) if transposed else (n, m)
    K, L = W0.shape
    perm = np.argsort(-_top_sums(W0.copy(), t), kind="stable")
    W = W0[perm]
    block = max(256, 2**18 // L)
    tops = _suffix_tops(W, k)
    # a generous multiple of the rounding error of a sum of k*t entries,
    # doubled to cover both the search's order of rows and index order
    slack = (k + t + 2) * k * t * float(np.abs(W).max()) * 2.0**-49
    floor = _incumbent(W, k, t) - slack if k > 1 else -np.inf
    gain = _top_sums((W + tops[:-1, 1:]).reshape(-1, L), t).reshape(k, K)
    best = (np.inf,)  # the _rank of no candidate: worse than every one

    def score(subsets, sums):
        nonlocal best, floor
        objs = _top_sums(sums, t)
        peak = float(objs.max())
        if peak + slack < -best[0]:
            return
        # the leaves near the peak are summed again in index order, the
        # arithmetic of the result; their columns are read off these sums,
        # which the partition in _top_sums does not reorder
        near = np.sort(perm[subsets[objs >= peak - slack]], axis=1)
        sums = W0[near].sum(axis=1)
        objs = _top_sums(sums.copy(), t)
        peak = float(objs.max())
        hit = objs == peak
        tied, other = near[hit], top_indices(sums[hit], t)
        rows, cols = (other, tied) if transposed else (tied, other)
        i = _best_line(objs[hit], rows, cols)
        cand = _rank(peak, rows[i].tolist(), cols[i].tolist())
        if cand < best:
            best = cand
            floor = max(floor, peak - slack)

    def visit(subsets, next_row, sums):
        d = subsets.shape[1]
        if d == k:
            score(subsets, sums)
            return
        bounds = tops[k - d, next_row]
        bounds += sums
        keep = ~(_top_sums(bounds, t) < floor)
        subsets, next_row, sums = subsets[keep], next_row[keep], sums[keep]
        head = _top_sums(sums.copy(), t)
        # a child at depth d + 1 still needs k - d - 1 rows after its own
        admissible = np.arange(K - k + d + 1)
        step = max(1, block // len(admissible))
        for lo in range(0, len(subsets), step):
            parent, rows = np.nonzero(next_row[lo:lo + step, None] <= admissible)
            parent += lo
            ok = ~(head[parent] + gain[k - d - 1, rows] < floor)
            parent, rows = parent[ok], rows[ok]
            if len(rows):
                child = W[rows]
                child += sums[parent]
                visit(np.column_stack([subsets[parent], rows]), rows + 1, child)

    visit(np.empty((1, 0), np.intp), np.zeros(1, np.intp), np.full((1, L), -0.0))
    _, rows, cols = best
    return SelectorResult(Support(rows, cols), _objective(Y, rows, cols), "exact")


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
    best = (np.inf,)
    for row_set in itertools.combinations(range(N), n):
        colsum = Y[list(row_set)].sum(axis=0)
        objs = colsum[col_sets].sum(axis=1) if m > 1 else colsum[col_sets[:, 0]]
        i = int(np.argmax(objs))  # first max = lex smallest col set
        best = min(best, _rank(float(objs[i]), row_set, col_sets[i].tolist()))
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

    cols = top_indices(col_sums(rows), m)
    obj = objectives(rows, cols)
    cycles = np.zeros(len(rows), dtype=np.intp)
    active = np.arange(len(rows))
    for _ in range(max_cycles):
        rows_next = top_indices(Y[:, cols[active]].sum(axis=2).T, n)
        cols_next = top_indices(col_sums(rows_next), m)
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


def _restart_rows(N: int, n: int, restarts: int, seed: int) -> np.ndarray:
    """Initial row set of each restart r: n of N drawn without replacement from
    gaussian_stream(seed, (r,)), sorted; read-only.  Each thread keeps its last
    call, so the signal levels of one Monte Carlo trial, which share a seed and
    a thread, share one draw even when trials fan out."""
    key = (N, n, restarts, seed)
    if getattr(_last_restart_rows, "key", None) != key:
        rows = np.array([
            np.sort(gaussian_stream(seed, (r,)).choice(N, size=n, replace=False))
            for r in range(restarts)
        ])
        rows.flags.writeable = False
        _last_restart_rows.key, _last_restart_rows.rows = key, rows
    return _last_restart_rows.rows


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
    rows, cols, obj, cycles = _climb(Y, _restart_rows(Y.shape[0], n, restarts, seed), n, m, max_cycles)
    r = _best_line(obj, rows, cols)
    return SelectorResult(
        Support(tuple(rows[r].tolist()), tuple(cols[r].tolist())), float(obj[r]), "heuristic",
        iterations=int(cycles[r]), restarts_used=restarts,
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
) -> SelectorResult:
    """Run the scan named by `method` (one of METHODS); each scan ignores the
    options that do not apply to it."""
    # the scans are looked up when called, so a rebound module attribute is used
    if method == "exact":
        return scan_exact(obs, n, m, budget=budget)
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
    a = check_signal_level(a)
    check_support(obs.dims.shape, support)
    nm = len(support.rows) * len(support.cols)
    return float(-a * _objective(obs.data, support.rows, support.cols) + a * a * nm / 2.0)
